package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Cluster administration — the node-side API a router drives to place,
// migrate, and fail over shards. A shard's state travels between nodes as
// a one-shard snapshot file: the ODSV checkpoint format (snapshot.go) with
// the shard's ODPS blob in its slot and every other slot empty. It carries
// the full config fingerprint, so a migration between differently
// configured nodes is refused fail-closed before any state is touched —
// the same check, by the same decoder, as a restart's restore.

// decodeShardFile opens the body of op=install: a snapshot file that
// decodeFile admits (CRC, magic, version, fingerprint, shard count) whose
// only non-empty slot is id. It returns that slot's pipeline blob.
func decodeShardFile(data []byte, id, shards int, cfg PipelineConfig) ([]byte, error) {
	if id < 0 || id >= shards {
		return nil, fmt.Errorf("serve: shard %d outside global space [0,%d)", id, shards)
	}
	blobs, err := decodeFile(data, shards, cfg)
	if err != nil {
		return nil, err
	}
	for i, b := range blobs {
		if i != id && len(b) > 0 {
			return nil, fmt.Errorf("serve: admin: snapshot carries shard %d, request names %d", i, id)
		}
	}
	if len(blobs[id]) == 0 {
		return nil, fmt.Errorf("serve: admin: snapshot carries no state for shard %d", id)
	}
	return blobs[id], nil
}

// Epoch returns the map version this node last acknowledged.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// SetEpoch advances the node's map epoch; epochs are monotonic, so a
// stale push can never rewind a newer map. Returns the epoch in force.
func (s *Server) SetEpoch(e uint64) uint64 {
	for {
		cur := s.epoch.Load()
		if e <= cur {
			return cur
		}
		if s.epoch.CompareAndSwap(cur, e) {
			return e
		}
	}
}

var errNotCluster = errors.New("serve: not a cluster node")

// InstallShard hosts a shard on this node: a fresh pipeline when blob is
// empty, or a restore of a shipped snapshot. The fingerprint was already
// matched by the HTTP layer (decodeShardFile); RestorePipeline
// re-verifies the blob's internal structure.
func (s *Server) InstallShard(id int, replica bool, blob []byte) error {
	if !s.cfg.Cluster {
		return errNotCluster
	}
	if id < 0 || id >= s.cfg.Shards {
		return fmt.Errorf("serve: shard %d outside global space [0,%d)", id, s.cfg.Shards)
	}
	pl, err := s.buildPipeline(id, blob)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errServerClosed
	}
	if s.shards[id] != nil {
		s.mu.Unlock()
		return fmt.Errorf("serve: shard %d already hosted", id)
	}
	sh := newShard(id, pl, s.cfg.QueueDepth, s.hub)
	if replica {
		sh.role.Store(roleReplica)
	}
	s.shards[id] = sh
	s.mu.Unlock()
	go sh.run()
	return nil
}

// ReleaseShard stops hosting a shard (the final step of migrating it
// away): the slot is cleared under the write lock so no handler can race
// the mailbox close, then the goroutine is awaited.
func (s *Server) ReleaseShard(id int) error {
	if id < 0 || id >= len(s.shards) {
		return fmt.Errorf("serve: shard %d outside global space [0,%d)", id, len(s.shards))
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errServerClosed
	}
	sh := s.shards[id]
	if sh == nil {
		s.mu.Unlock()
		return fmt.Errorf("%w: shard %d", errWrongNode, id)
	}
	s.shards[id] = nil
	close(sh.reqs)
	s.mu.Unlock()
	<-sh.done
	sh.stopReplicator()
	return nil
}

// withShard runs fn on a live shard while holding the read lock, the
// same invariant the query/ingest paths rely on: ReleaseShard closes the
// shard's mailbox only under the write lock, so a mailbox send inside fn
// can never race the close.
func (s *Server) withShard(id int, fn func(*shard) error) error {
	if id < 0 || id >= len(s.shards) {
		return fmt.Errorf("serve: shard %d outside global space [0,%d)", id, len(s.shards))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return errServerClosed
	}
	sh := s.shards[id]
	if sh == nil {
		return fmt.Errorf("%w: shard %d", errWrongNode, id)
	}
	return fn(sh)
}

// UnsealShard re-opens a sealed shard (migration abort/unwind).
func (s *Server) UnsealShard(id int) error {
	return s.withShard(id, func(sh *shard) error {
		sh.sealed.Store(false)
		return nil
	})
}

// SnapshotShard captures one shard's ODPS blob through its mailbox,
// optionally sealing it first (the migration drain: seal, then snapshot —
// mailbox FIFO guarantees every ACKed reading is in the blob).
func (s *Server) SnapshotShard(id int, seal bool) ([]byte, error) {
	var blob []byte
	err := s.withShard(id, func(sh *shard) error {
		if seal {
			sh.sealed.Store(true)
		}
		resp, err := sh.call(shardReq{op: opSnapshot})
		if err != nil {
			return err
		}
		blob = resp.snap
		return nil
	})
	if err != nil {
		return nil, err
	}
	return blob, nil
}

// PromoteShard flips a replica to primary (failover). Promotion is
// deterministic: the replica is a bit-exact prefix of the failed
// primary, and clients re-send the un-replicated tail on catch-up.
func (s *Server) PromoteShard(id int) error {
	return s.withShard(id, func(sh *shard) error {
		sh.role.Store(rolePrimary)
		sh.sealed.Store(false)
		return nil
	})
}

// SetFollower points a primary's replication stream at a follower node
// (empty target detaches). Ownership of the replicator passes to the
// shard goroutine via the mailbox, so forwarding is race-free.
func (s *Server) SetFollower(id int, target string) error {
	var repl *replicator
	if target != "" {
		repl = newReplicator(id, Client{HTTP: s.peers, Base: target}, s.cfg.Pipeline.Core.Dim, s.wireFP)
	}
	err := s.withShard(id, func(sh *shard) error {
		_, err := sh.call(shardReq{op: opFollow, repl: repl})
		return err
	})
	if err != nil && repl != nil {
		repl.stop()
	}
	return err
}

// adminErrStatus maps admin failures onto HTTP statuses.
func adminErrStatus(err error) int {
	switch {
	case errors.Is(err, errWrongNode):
		return http.StatusNotFound
	case errors.Is(err, errServerClosed), errors.Is(err, errShardDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, errNotCluster), errors.Is(err, errFingerprint):
		return http.StatusConflict
	default:
		return http.StatusBadRequest
	}
}

// ShardOp names one shard lifecycle operation: the op= vocabulary of
// /admin/shard, typed so the handler's switch and Client.Shard (client.go)
// spell it from the same constants.
type ShardOp string

const (
	ShardCreate   ShardOp = "create"
	ShardInstall  ShardOp = "install"
	ShardSnapshot ShardOp = "snapshot"
	ShardUnseal   ShardOp = "unseal"
	ShardRelease  ShardOp = "release"
	ShardPromote  ShardOp = "promote"
	ShardFollow   ShardOp = "follow"
)

// handleAdminShard executes one shard lifecycle op:
//
//	POST /admin/shard?op=create&id=3[&role=replica]      fresh pipeline
//	POST /admin/shard?op=install&id=3[&role=replica]     body = one-shard ODSV
//	POST /admin/shard?op=snapshot&id=3[&seal=1]          reply = one-shard ODSV
//	POST /admin/shard?op=unseal|release|promote&id=3
//	POST /admin/shard?op=follow&id=3&target=http://node  ("" detaches)
func (s *Server) handleAdminShard(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodPost) {
		return
	}
	q := r.URL.Query()
	id, err := strconv.Atoi(q.Get("id"))
	if err != nil {
		WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad id parameter: %v", err))
		return
	}
	replica := q.Get("role") == "replica"
	op := ShardOp(q.Get("op"))
	switch op {
	case ShardCreate:
		err = s.InstallShard(id, replica, nil)
	case ShardInstall:
		var body, blob []byte
		if body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
			WriteErr(w, IngestDecodeStatus(err), err)
			return
		}
		// The fail-closed gate: a snapshot cut on a node with a different
		// configuration never restores here, not even partially.
		if blob, err = decodeShardFile(body, id, s.cfg.Shards, s.cfg.Pipeline); err == nil {
			err = s.InstallShard(id, replica, blob)
		}
	case ShardSnapshot:
		var blob []byte
		if blob, err = s.SnapshotShard(id, q.Get("seal") == "1"); err != nil {
			WriteErr(w, adminErrStatus(err), err)
			return
		}
		blobs := make([][]byte, s.cfg.Shards)
		blobs[id] = blob
		WriteBody(w, http.StatusOK, "application/x-odds-snapshot", encodeFile(s.cfg.Shards, s.cfg.Pipeline, blobs))
		return
	case ShardUnseal:
		err = s.UnsealShard(id)
	case ShardRelease:
		err = s.ReleaseShard(id)
	case ShardPromote:
		err = s.PromoteShard(id)
	case ShardFollow:
		err = s.SetFollower(id, q.Get("target"))
	default:
		WriteErr(w, http.StatusBadRequest, fmt.Errorf("unknown op %q", op))
		return
	}
	if err != nil {
		WriteErr(w, adminErrStatus(err), err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleAdminEpoch gets (GET) or advances (POST ?epoch=N) the map epoch.
func (s *Server) handleAdminEpoch(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		WriteJSON(w, http.StatusOK, map[string]uint64{"epoch": s.Epoch()})
	case http.MethodPost:
		e, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
		if err != nil {
			WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad epoch parameter: %v", err))
			return
		}
		WriteJSON(w, http.StatusOK, map[string]uint64{"epoch": s.SetEpoch(e)})
	default:
		w.Header().Set("Allow", "GET, POST")
		WriteErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// EpochHeader carries the sender's map epoch on hot-path requests; a
// node whose epoch differs answers 409 with its own epoch in the same
// header, so a router with a stale (or newer) map never applies work on
// the wrong side of a migration commit.
const EpochHeader = "X-Odds-Epoch"

// checkEpoch enforces the map-epoch handshake. Requests without the
// header (standalone clients) always pass.
func (s *Server) checkEpoch(w http.ResponseWriter, r *http.Request) bool {
	h := r.Header.Get(EpochHeader)
	if h == "" {
		return true
	}
	cur := s.epoch.Load()
	want, err := strconv.ParseUint(h, 10, 64)
	if err != nil || want != cur {
		w.Header().Set(EpochHeader, strconv.FormatUint(cur, 10))
		WriteErr(w, http.StatusConflict,
			fmt.Errorf("serve: map epoch %q does not match node epoch %d", h, cur))
		return false
	}
	return true
}
