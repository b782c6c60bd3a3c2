package cluster

import (
	"fmt"

	"odds/internal/serve"
)

// Migration protocol (state machine; each arrow is one admin call):
//
//	serving ──seal+snapshot──▶ sealed ──install on target──▶ staged
//	  staged ──re-chain replica──▶ chained ──commit epoch──▶ committed
//	  committed ──release source──▶ done
//
// A move onto the shard's own replica has no third node to re-chain before
// the commit; it repairs the chain after the release instead, with the
// source as the follower, under a second epoch.
//
// Failure unwinds: before commit, the source is simply unsealed and the
// target's partial state released — no client-visible change (sealed
// rejections were retried and will land on the unchanged owner). After
// commit the migration is done; releasing the sealed source copy is
// best-effort cleanup (a sealed shard only rejects, it cannot diverge).
//
// The seal happens inside the source shard's mailbox discipline: the
// seal flag is set before the snapshot envelope is enqueued, so FIFO
// order guarantees the blob contains exactly the readings that were
// ACKed — nothing ACKed is lost, nothing unACKed is captured.

// drain seals a shard on its node and cuts its ODSH ship frame. On failure
// the seal may or may not have landed, so it is lifted best-effort.
func (r *Router) drain(node, shard int) ([]byte, error) {
	frame, err := r.node(node).Shard(serve.ShardSnapshot, shard, serve.ShardArgs{Seal: true})
	if err != nil {
		_ = r.shardOp(node, serve.ShardUnseal, shard)
	}
	return frame, err
}

// Migrate moves one shard's primary to another node, live. Clients see
// at most a window of rejected (retried) sub-batches while the shard is
// sealed and the epoch flips; verdict streams stay seq-contiguous
// because the target resumes publishing exactly where the source's
// snapshot ends.
func (r *Router) Migrate(shard, to int) error {
	r.opMu.Lock()
	defer r.opMu.Unlock()

	r.mu.RLock()
	m := r.m
	deadTo := to < 0 || to >= len(r.dead) || r.dead[to]
	r.mu.RUnlock()
	if shard < 0 || shard >= m.Shards {
		return fmt.Errorf("cluster: shard %d outside [0,%d)", shard, m.Shards)
	}
	if deadTo {
		return fmt.Errorf("cluster: target node %d is not alive", to)
	}
	from := m.Owner[shard]
	if from < 0 {
		return fmt.Errorf("%w: shard %d", errNoOwner, shard)
	}
	if from == to {
		return nil
	}

	// Drain: seal, then snapshot through the same mailbox.
	frame, err := r.drain(from, shard)
	if err != nil {
		return fmt.Errorf("cluster: migrate shard %d: drain: %w", shard, err)
	}

	// Stage: install the blob on the target (fingerprint-checked,
	// fail-closed — a mismatched target refuses before touching state).
	// If the target is the shard's current replica, its copy — a stale
	// prefix of the blob we just cut — is released first.
	if m.Replica[shard] == to {
		_ = r.shardOp(to, serve.ShardRelease, shard)
	}
	if _, err := r.node(to).Shard(serve.ShardInstall, shard, serve.ShardArgs{Frame: frame}); err != nil {
		_ = r.shardOp(from, serve.ShardUnseal, shard)
		return fmt.Errorf("cluster: migrate shard %d: install on node %d: %w", shard, to, err)
	}

	// Re-chain the replica before the commit, while nothing can write:
	// install the same blob as a follower so replication is contiguous
	// from the cut. The old replica (a stale prefix) is released.
	newReplica := -1
	if old := m.Replica[shard]; old >= 0 {
		r.mu.RLock()
		oldDead := r.dead[old]
		r.mu.RUnlock()
		if old != to && !oldDead {
			_ = r.shardOp(old, serve.ShardRelease, shard)
			if r.chainReplica(shard, to, old, frame) == nil {
				newReplica = old
			}
		}
	}

	// Commit: successor map, push the new epoch. From this point stale-
	// stamped requests bounce off every node that heard the push.
	r.mu.Lock()
	next := r.m.clone()
	next.Owner[shard] = to
	next.Replica[shard] = newReplica
	r.m = next
	r.mu.Unlock()
	r.pushEpoch(next)
	r.migrations.Add(1)

	// Cleanup: release the sealed source copy (best-effort; a sealed
	// shard can only reject, so a failed release is safe to leave).
	_ = r.shardOp(from, serve.ShardRelease, shard)

	// A move onto the shard's own replica consumed the chain, and a crash
	// of the new owner would then orphan the shard for good: make the
	// source its follower. Best-effort like the re-chain above — a failure
	// leaves Replica -1 for RepairReplica.
	if m.Replica[shard] == to {
		_ = r.rechain(shard, to, from)
	}
	return nil
}

// HealthTick probes every node once. A live node that has missed
// HealthThreshold consecutive probes is declared dead and its shards
// fail over; a dead node that answers again is auto-revived (its stale
// copies stay unrouted) and any orphaned shard (Owner == -1) it still
// hosts as a primary is re-adopted — sound because an orphaned shard
// rejected every write, so the returning copy is a consistent prefix of
// the canonical stream and clients recover via the catch-up contract.
// Promotion is deterministic: shards are scanned in id order, each
// promoted to its map replica — which holds a bit-exact prefix of the
// dead primary. Returns the shards whose primary changed this tick
// (promotions and re-adoptions); clients must resync their cursors.
func (r *Router) HealthTick() []int {
	r.opMu.Lock()
	defer r.opMu.Unlock()

	r.mu.RLock()
	m := r.m
	nNodes := len(m.Nodes)
	r.mu.RUnlock()

	alive := make([]bool, nNodes)
	for id := 0; id < nNodes; id++ {
		alive[id] = r.node(id).Healthy()
	}

	r.mu.Lock()
	newlyDead := false
	var revived []int
	for id := 0; id < nNodes; id++ {
		if r.dead[id] {
			if alive[id] {
				r.dead[id] = false
				r.down[id] = 0
				revived = append(revived, id)
			}
			continue
		}
		if alive[id] {
			r.down[id] = 0
			continue
		}
		r.down[id]++
		if r.down[id] >= r.opts.HealthThreshold {
			r.dead[id] = true
			newlyDead = true
		}
	}
	if !newlyDead && len(revived) == 0 {
		r.mu.Unlock()
		r.retryPromotions()
		return nil
	}
	next := r.m.clone()
	var toPromote []int
	for sh := 0; sh < next.Shards; sh++ {
		owner, rep := next.Owner[sh], next.Replica[sh]
		repLive := rep >= 0 && !r.dead[rep]
		switch {
		case owner >= 0 && r.dead[owner] && repLive:
			next.Owner[sh] = rep
			next.Replica[sh] = -1
			toPromote = append(toPromote, sh)
		case owner >= 0 && r.dead[owner]:
			// No live replica: the shard is unavailable until an
			// operator re-creates it (ingest for it rejects).
			next.Owner[sh] = -1
			next.Replica[sh] = -1
		case rep >= 0 && !repLive:
			// The follower died while the primary survived: drop it from
			// the map so RepairReplica can rebuild the chain — leaving a
			// dead replica in place would doom the next owner failure.
			next.Replica[sh] = -1
		}
	}
	r.m = next
	r.mu.Unlock()

	for _, sh := range toPromote {
		// The map already routes the shard to the replica; until the node
		// hears op=promote it still refuses ingest as role=replica, so a
		// failed call must be retried, not dropped — otherwise a transient
		// router→replica partition leaves the shard unavailable forever.
		if err := r.shardOp(next.Owner[sh], serve.ShardPromote, sh); err != nil {
			r.pendingPromote[sh] = next.Owner[sh]
			continue
		}
		r.promotions.Add(1)
	}

	// Re-adopt orphaned shards still hosted by revived nodes.
	changed := toPromote
	for _, id := range revived {
		infos, err := r.node(id).Shards()
		if err != nil {
			continue // next tick retries; the node stays revived
		}
		var adopt []int
		for _, info := range infos {
			if info.Role == "primary" && next.Owner[info.Shard] < 0 {
				adopt = append(adopt, info.Shard)
				if info.Sealed {
					_ = r.shardOp(id, serve.ShardUnseal, info.Shard)
				}
			}
		}
		if len(adopt) == 0 {
			continue
		}
		r.mu.Lock()
		next = r.m.clone()
		for _, sh := range adopt {
			next.Owner[sh] = id
		}
		r.m = next
		r.mu.Unlock()
		changed = append(changed, adopt...)
	}
	r.pushEpoch(next)
	r.retryPromotions()
	return changed
}

// retryPromotions re-issues op=promote calls that failed after their
// failover commit. Called with opMu held (every HealthTick return path).
// An entry is dropped once the node accepts, or once the map no longer
// routes the shard to that node (a later migration or failover
// superseded the failover, making the promote moot).
func (r *Router) retryPromotions() {
	if len(r.pendingPromote) == 0 {
		return
	}
	r.mu.RLock()
	m := r.m
	dead := append([]bool(nil), r.dead...)
	r.mu.RUnlock()
	for sh, node := range r.pendingPromote {
		if sh >= m.Shards || m.Owner[sh] != node {
			delete(r.pendingPromote, sh)
			continue
		}
		if dead[node] {
			continue // unreachable right now; keep for a later tick
		}
		if err := r.shardOp(node, serve.ShardPromote, sh); err == nil {
			r.promotions.Add(1)
			delete(r.pendingPromote, sh)
		}
	}
}

// Revive marks a node live again (it must already be serving — e.g. a
// restarted empty process) so it can host future shards and replicas.
func (r *Router) Revive(node int) error {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	if node < 0 || node >= len(r.opts.Nodes) {
		return fmt.Errorf("cluster: node %d unknown", node)
	}
	if !r.node(node).Healthy() {
		return fmt.Errorf("cluster: node %d did not answer a health probe", node)
	}
	r.mu.Lock()
	r.dead[node] = false
	r.down[node] = 0
	m := r.m
	r.mu.Unlock()
	// The revived node restarts at epoch 0; bring it up to date.
	r.pushEpoch(m)
	return nil
}

// RepairReplica rebuilds a missing replica chain for one shard on the
// given node: seal → snapshot → install replica → follow → unseal. The
// seal window means a few rejected (retried) sub-batches, the same cost
// as a migration drain.
func (r *Router) RepairReplica(shard, node int) error {
	r.opMu.Lock()
	defer r.opMu.Unlock()

	r.mu.RLock()
	m := r.m
	deadNode := node < 0 || node >= len(r.dead) || r.dead[node]
	r.mu.RUnlock()
	if shard < 0 || shard >= m.Shards {
		return fmt.Errorf("cluster: shard %d outside [0,%d)", shard, m.Shards)
	}
	owner := m.Owner[shard]
	if owner < 0 {
		return fmt.Errorf("%w: shard %d", errNoOwner, shard)
	}
	if deadNode || node == owner {
		return fmt.Errorf("cluster: node %d cannot host shard %d's replica", node, shard)
	}
	return r.rechain(shard, owner, node)
}

// rechain is RepairReplica's work once its arguments are checked, and what
// Migrate runs when the move consumed the chain: drain the owner, install
// the cut on node as a follower, unseal, and commit the replica under a new
// epoch. The caller holds opMu.
func (r *Router) rechain(shard, owner, node int) error {
	frame, err := r.drain(owner, shard)
	if err != nil {
		return err
	}
	if err := r.chainReplica(shard, owner, node, frame); err != nil {
		_ = r.shardOp(owner, serve.ShardUnseal, shard)
		return err
	}
	if err := r.shardOp(owner, serve.ShardUnseal, shard); err != nil {
		return err
	}
	r.mu.Lock()
	next := r.m.clone()
	next.Replica[shard] = node
	r.m = next
	r.mu.Unlock()
	r.pushEpoch(next)
	return nil
}
