package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"odds/internal/serve"
)

// Regression tests for review findings: orphaned-shard migration must
// fail cleanly, failed promotes must be retried, and subscription
// upstreams must not run through the deadline-bounded admin client.

// TestMigrateOrphanedShardRefused: migrating a shard whose owner died
// with no live replica (Owner == -1) is refused with errNoOwner instead
// of panicking on a negative node index.
func TestMigrateOrphanedShardRefused(t *testing.T) {
	tc := newTestCluster(t, 2, 4, false) // no replicas: failover orphans
	owner := tc.router.CurrentMap().Owner[0]
	tc.killNode(owner)
	tc.router.HealthTick() // threshold 1: shard 0 is now orphaned
	if got := tc.router.CurrentMap().Owner[0]; got != -1 {
		t.Fatalf("shard 0 owner after failover = %d, want -1 (orphaned)", got)
	}
	err := tc.router.Migrate(0, 1-owner)
	if !errors.Is(err, errNoOwner) {
		t.Fatalf("Migrate of orphaned shard: err = %v, want errNoOwner", err)
	}
}

// TestMigrateOntoReplicaKeepsChain: moving a shard onto its own replica
// used to commit Replica = -1, so a crash of the new owner before the next
// repair orphaned the shard for good. The source becomes the follower
// inside Migrate, and the failover that follows finds it.
func TestMigrateOntoReplicaKeepsChain(t *testing.T) {
	tc := newTestCluster(t, 3, 4, true)
	runRoutedLoad(t, tc.routerTS.URL, 600, false)

	if m := tc.router.CurrentMap(); m.Owner[0] != 0 || m.Replica[0] != 1 {
		t.Fatalf("bootstrap: shard 0 on owner %d replica %d, want 0 and 1", m.Owner[0], m.Replica[0])
	}
	if err := tc.router.Migrate(0, 1); err != nil {
		t.Fatal(err)
	}
	if m := tc.router.CurrentMap(); m.Owner[0] != 1 || m.Replica[0] != 0 {
		t.Fatalf("after Migrate(0, 1): owner %d replica %d, want 1 and 0", m.Owner[0], m.Replica[0])
	}
	runRoutedLoad(t, tc.routerTS.URL, 1200, false)

	tc.killNode(1)
	tc.router.HealthTick()
	tc.router.HealthTick()
	if m := tc.router.CurrentMap(); m.Owner[0] != 0 {
		t.Fatalf("after node 1 died: shard 0 owner %d, want 0", m.Owner[0])
	}
	// The promoted follower may trail the dead primary's ACK point; the
	// resumed run re-sends that tail and the twin still has to agree.
	runRoutedLoad(t, tc.routerTS.URL, 1800, false)
}

// promoteGate fails op=promote admin calls while blocked, simulating a
// transient router→replica partition during a failover.
type promoteGate struct {
	base  http.RoundTripper
	block atomic.Bool
}

func (g *promoteGate) RoundTrip(req *http.Request) (*http.Response, error) {
	if g.block.Load() && req.URL.Path == "/admin/shard" && req.URL.Query().Get("op") == "promote" {
		return nil, fmt.Errorf("promoteGate: promote call blocked")
	}
	return g.base.RoundTrip(req)
}

// TestHealthTickRetriesFailedPromote: when the promote call fails after
// a failover commit, the map keeps routing to the replica; a later
// HealthTick must re-issue the promote so the shard becomes writable
// again once the partition heals.
func TestHealthTickRetriesFailedPromote(t *testing.T) {
	gate := &promoteGate{base: http.DefaultTransport}
	tc := newTestClusterWith(t, 2, 4, Options{
		Replicate:       true,
		Client:          &http.Client{Timeout: 5 * time.Second, Transport: gate},
		HealthThreshold: 1,
	})
	r := tc.router

	// The streaming client must share the fault-injecting transport but
	// carry no overall deadline (a deadline would sever subscriptions).
	if r.streamClient.Transport != gate {
		t.Fatal("streamClient does not share the configured transport")
	}
	if r.streamClient.Timeout != 0 {
		t.Fatalf("streamClient.Timeout = %v, want 0", r.streamClient.Timeout)
	}

	m := r.CurrentMap()
	sh := 0
	dead, rep := m.Owner[sh], m.Replica[sh]
	if rep < 0 {
		t.Fatalf("shard %d has no replica in a 2-node replicated cluster", sh)
	}

	gate.block.Store(true)
	tc.killNode(dead)
	r.HealthTick()
	if got := r.CurrentMap().Owner[sh]; got != rep {
		t.Fatalf("shard %d owner after failover = %d, want replica %d", sh, got, rep)
	}
	role := func() string {
		st, err := tc.servers[rep].Stats()
		if err != nil {
			t.Fatal(err)
		}
		for _, info := range st.PerShard {
			if info.Shard == sh {
				return info.Role
			}
		}
		t.Fatalf("node %d does not host shard %d", rep, sh)
		return ""
	}
	if got := role(); got != "replica" {
		t.Fatalf("role after blocked promote = %q, want replica (promote must have failed)", got)
	}

	// Partition heals: the next tick (no membership change — the early
	// return path) must retry the pending promote.
	gate.block.Store(false)
	r.HealthTick()
	if got := role(); got != "primary" {
		t.Fatalf("role after retry tick = %q, want primary", got)
	}
	if n := r.promotions.Load(); n == 0 {
		t.Fatal("promotions counter not incremented by retried promote")
	}
}

// healthGate fails GET /healthz to one node while blocked, so the router
// declares the node dead while it keeps serving: a partition between
// router and node that heals.
type healthGate struct {
	base  http.RoundTripper
	host  string // set before the first block.Store(true)
	block atomic.Bool
}

func (g *healthGate) RoundTrip(req *http.Request) (*http.Response, error) {
	if g.block.Load() && req.URL.Host == g.host && req.URL.Path == "/healthz" {
		return nil, fmt.Errorf("healthGate: health probe blocked")
	}
	return g.base.RoundTrip(req)
}

// TestHealthTickReadoptsOrphanedShard: a node the router declared dead
// orphans its shards when nothing replicates them (Owner == -1). When it
// answers again, the next tick must hand the shards it still hosts as
// primaries back to it, lift a seal a failed drain left behind, and the
// routed load must then resume against the twin with nothing lost.
func TestHealthTickReadoptsOrphanedShard(t *testing.T) {
	gate := &healthGate{base: http.DefaultTransport}
	tc := newTestClusterWith(t, 2, 4, Options{
		Client:          &http.Client{Timeout: 5 * time.Second, Transport: gate},
		HealthThreshold: 1,
	})
	runRoutedLoad(t, tc.routerTS.URL, 600, false)

	const node = 1
	var orphans []int
	for sh, owner := range tc.router.CurrentMap().Owner {
		if owner == node {
			orphans = append(orphans, sh)
		}
	}
	if len(orphans) == 0 {
		t.Fatalf("node %d owns no shard", node)
	}
	gate.host = strings.TrimPrefix(tc.nodeTS[node].URL, "http://")
	gate.block.Store(true)
	tc.router.HealthTick()
	for _, sh := range orphans {
		if got := tc.router.CurrentMap().Owner[sh]; got != -1 {
			t.Fatalf("shard %d owner after node %d went dark = %d, want -1 (orphaned)", sh, node, got)
		}
	}
	// A drain (op=snapshot&seal=1) whose migration never finished.
	if _, err := tc.servers[node].SnapshotShard(orphans[0], true); err != nil {
		t.Fatal(err)
	}

	gate.block.Store(false)
	if changed := tc.router.HealthTick(); !reflect.DeepEqual(changed, orphans) {
		t.Fatalf("revival tick changed shards %v, want %v re-adopted", changed, orphans)
	}
	m := tc.router.CurrentMap()
	for _, sh := range orphans {
		if m.Owner[sh] != node {
			t.Fatalf("shard %d owner after revival = %d, want %d", sh, m.Owner[sh], node)
		}
	}
	st, err := tc.servers[node].Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, ps := range st.PerShard {
		if ps.Sealed {
			t.Fatalf("shard %d still sealed after re-adoption", ps.Shard)
		}
	}
	if rep := runRoutedLoad(t, tc.routerTS.URL, 1200, false); rep.CaughtUp != 600 {
		t.Fatalf("resumed run caught up %d, want 600 (re-adoption lost state)", rep.CaughtUp)
	}
}

// TestStreamClientDefaultHasNoTimeout: with no custom client, the
// request/response client keeps its 5s deadline while the subscription
// client gets a transport-bounded one with no overall timeout.
func TestStreamClientDefaultHasNoTimeout(t *testing.T) {
	tc := newTestCluster(t, 1, 2, false)
	if tc.router.client.Timeout == 0 {
		t.Fatal("request/response client lost its overall timeout")
	}
	if tc.router.streamClient.Timeout != 0 {
		t.Fatalf("streamClient.Timeout = %v, want 0", tc.router.streamClient.Timeout)
	}
	if tr, ok := tc.router.streamClient.Transport.(*http.Transport); !ok {
		t.Fatalf("default streamClient transport is %T, want *http.Transport", tc.router.streamClient.Transport)
	} else if tr.ResponseHeaderTimeout == 0 {
		t.Fatal("default streamClient transport has no response-header timeout")
	}
}

// TestSequencerCountsRingDropsOnce: a node ring drop reaches the router
// twice — as the node's own gap frame and, right after it on the same
// stream, as a seq jump. The merged stream must report the lost events
// once (TestRoutedLoadAgreement's conservation check failed whenever a
// subscriber fell behind), while a jump no gap frame announced — loss
// between node and router — is still reported in full.
func TestSequencerCountsRingDropsOnce(t *testing.T) {
	type step struct {
		src     int
		drop    uint64 // nonzero: an upstream gap frame of this size
		shard   int
		seq     uint64
		gap     uint64
		deliver bool
	}
	steps := []step{
		{src: 0, shard: 0, seq: 5, deliver: true},          // baseline
		{src: 0, shard: 1, seq: 9, deliver: true},          // baseline
		{src: 0, shard: 0, seq: 6, deliver: true},          // in order
		{src: 0, drop: 5},                                  // node dropped 0:7-9 and 1:10-11
		{src: 0, shard: 0, seq: 10, deliver: true},         // jump of 3, already reported
		{src: 0, shard: 1, seq: 12, deliver: true},         // jump of 2, already reported
		{src: 0, shard: 0, seq: 10},                        // duplicate
		{src: 0, shard: 1, seq: 15, gap: 2, deliver: true}, // unannounced loss
		{src: 1, drop: 4},                                  // another node's drop...
		{src: 0, shard: 0, seq: 13, gap: 2, deliver: true}, // ...explains nothing here
		{src: 1, shard: 2, seq: 3, deliver: true},          // baseline: credit stays
		{src: 1, shard: 2, seq: 6, deliver: true},          // jump of 2, from src 1's drop
		{src: 0, shard: 7},                                 // unknown shard
	}
	seq := sequencer{lastSeq: make([]uint64, 3), credit: make([]uint64, 2)}
	for i, st := range steps {
		if st.drop > 0 {
			seq.ringDrop(st.src, st.drop)
			continue
		}
		gap, deliver := seq.event(st.src, serve.Event{Shard: st.shard, Seq: st.seq})
		if gap != st.gap || deliver != st.deliver {
			t.Fatalf("step %d (%+v): gap %d deliver %t", i, st, gap, deliver)
		}
	}
}
