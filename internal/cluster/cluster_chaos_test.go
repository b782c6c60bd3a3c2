package cluster

// The cluster chaos suite: in-process multi-node clusters driven through
// seeded fault schedules — node crashes, router↔node partitions, lossy
// links, migrations mid-stream — with the twin oracle (internal/twin)
// asserting that every verdict the cluster ever serves (including
// re-served tails after promote-on-failure) is bit-identical to an
// in-process pipeline fed the same readings in the same order. On failure
// the schedule is ddmin-shrunk to a minimal reproducer and printed as a
// Go literal.
//
// Fault model: time is logical (one epoch per driver iteration; no
// wall-clock), and faults act at the router's HTTP transport — a request
// into a cut link or a downed node fails at the sender, before anything
// is transmitted. Sender-side cuts mean a failed request was never
// partially applied, which keeps the harness deterministic; the unwind
// paths for mid-protocol failures (migration drain/stage, replica
// repair) are still fully exercised because admin sequences span epochs.
// Inter-node replication traffic uses the nodes' own clients and is not
// cut; what replication loses under failover is the async tail, which
// the catch-up contract (and this oracle) covers.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"odds/internal/fault"
	"odds/internal/oracle"
	"odds/internal/serve"
	"odds/internal/twin"
)

// chaosRouterID is the fault-plan node id of the router itself; serve
// nodes are 0..N-1.
const chaosNodes = 3
const chaosRouterID = chaosNodes

// faultTransport is the fault-injecting http.RoundTripper the router's
// client runs on: it maps target hosts to node ids and consults the
// compiled plan before letting a request leave the "router process".
type faultTransport struct {
	base   http.RoundTripper
	plan   *fault.Plan
	epoch  *atomic.Int64
	nodeOf map[string]int // URL host:port → node id
}

func (ft *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	to, known := ft.nodeOf[req.URL.Host]
	if known {
		e := int(ft.epoch.Load())
		if ft.plan.Down(to, e) || ft.plan.Cut(chaosRouterID, to, e) {
			return nil, fmt.Errorf("fault: router→node %d cut at epoch %d", to, e)
		}
		// Probabilistic link faults apply to the hot path only (a lost
		// ingest is a rejected, retried sub-batch); admin and health
		// traffic sees crashes and partitions but not radio loss.
		if req.URL.Path == "/ingest" {
			if v := ft.plan.Transmit(chaosRouterID, to, e); v.Fates[0].Lost {
				return nil, fmt.Errorf("fault: ingest to node %d lost at epoch %d", to, e)
			}
		}
	}
	return ft.base.RoundTrip(req)
}

// chaosCluster is one fresh in-process cluster under a fault plan.
type chaosCluster struct {
	servers []*serve.Server
	nodeTS  []*httptest.Server
	router  *Router
	epoch   atomic.Int64
	close   func()
}

func newChaosCluster(shards int, plan *fault.Plan) (*chaosCluster, error) {
	cc := &chaosCluster{}
	var cleanup []func()
	fail := func(err error) (*chaosCluster, error) {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
		return nil, err
	}
	urls := make([]string, chaosNodes)
	nodeOf := make(map[string]int, chaosNodes)
	for i := 0; i < chaosNodes; i++ {
		srv, err := serve.New(serve.Config{
			Shards:     shards,
			Pipeline:   testPipeline(42),
			QueueDepth: 64,
			Cluster:    true,
		})
		if err != nil {
			return fail(err)
		}
		ts := httptest.NewServer(srv.Handler())
		cc.servers = append(cc.servers, srv)
		cc.nodeTS = append(cc.nodeTS, ts)
		urls[i] = ts.URL
		nodeOf[strings.TrimPrefix(ts.URL, "http://")] = i
		cleanup = append(cleanup, func() { ts.Close(); _ = srv.Close() })
	}
	client := &http.Client{
		Timeout: 5 * time.Second,
		Transport: &faultTransport{
			base:   http.DefaultTransport,
			plan:   plan,
			epoch:  &cc.epoch,
			nodeOf: nodeOf,
		},
	}
	r, err := NewRouter(Options{
		Nodes:           urls,
		Replicate:       true,
		Client:          client,
		HealthThreshold: 2,
	})
	if err != nil {
		return fail(err)
	}
	// A schedule's node ids name the same cluster every run only if the
	// bootstrap map is the table, whatever ports the listeners drew.
	if err := checkPlacement(r.CurrentMap()); err != nil {
		return fail(fmt.Errorf("bootstrap placement: %w", err))
	}
	cc.router = r
	cc.close = func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}
	return cc, nil
}

// chaosParams sizes one chaos run.
type chaosParams struct {
	shards  int
	sensors int
	total   int // readings in the seeded stream
	epochs  int // fault-phase logical epochs
	drain   int // max recovery epochs before declaring a stall
	chunk   int // readings per shard per epoch
}

func defaultChaosParams() chaosParams {
	return chaosParams{shards: 4, sensors: 6, total: 480, epochs: 40, drain: 60, chunk: 4}
}

// genValue is the deterministic per-sensor stream: a drifting baseline
// with periodic spikes, so detectors see both inliers and outliers.
func genValue(sensor, i int) float64 {
	v := 0.5 + 0.3*float64((sensor*7+i*13)%97)/97.0
	if (sensor*31+i*17)%23 == 0 {
		v += 3.0 // spike
	}
	return v
}

// runChaos executes one schedule against a fresh cluster and returns nil
// iff the run upholds every invariant: no verdict ever disagrees with
// the twin, the stream fully drains after recovery, and final per-shard
// arrivals conserve the stream exactly.
func runChaos(p chaosParams, sched fault.Schedule) error {
	plan, err := fault.Compile(sched)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	cc, err := newChaosCluster(p.shards, plan)
	if err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	defer cc.close()
	r := cc.router

	// Pre-generate the full stream and split it into per-shard lists;
	// list index k ↔ the shard's pipeline seq k+1.
	list := make([][]serve.Reading, p.shards)
	for g := 0; g < p.total; g++ {
		sensor := fmt.Sprintf("sensor-%d", g%p.sensors)
		sh := serve.ShardOf(sensor, p.shards)
		list[sh] = append(list[sh], serve.Reading{Sensor: sensor, Value: []float64{genValue(g%p.sensors, g/p.sensors)}})
	}
	next := make([]int, p.shards) // next list index to send per shard
	st, err := r.AggregateStats()
	if err != nil {
		return fmt.Errorf("bootstrap stats: %w", err)
	}
	tw, err := twin.New(st)
	if err != nil {
		return err
	}

	// resync rewinds a shard's send cursor to its (new) owner's arrival
	// count — the catch-up contract after promote-on-failure.
	resync := func(sh int) error {
		m := r.CurrentMap()
		owner := m.Owner[sh]
		if owner < 0 {
			return fmt.Errorf("shard %d has no live owner (epoch %d)", sh, m.Epoch)
		}
		ost, err := fetchNodeStats(r.client, m.Nodes[owner])
		if err != nil {
			return err
		}
		for _, ss := range ost.PerShard {
			if ss.Shard == sh {
				if int(ss.Arrivals) < next[sh] {
					next[sh] = int(ss.Arrivals)
				}
				return nil
			}
		}
		return fmt.Errorf("owner %d does not host shard %d", owner, sh)
	}
	needResync := map[int]bool{}

	tick := func(epoch int) error {
		cc.epoch.Store(int64(epoch))

		// Health + failover; promoted shards rewind to the replica's seq.
		for _, sh := range r.HealthTick() {
			needResync[sh] = true
		}
		for sh := range needResync {
			if err := resync(sh); err == nil {
				delete(needResync, sh)
			} // else retry next epoch (owner may still be settling)
		}

		// Self-healing: rebuild missing replica chains on the first live
		// node that is not the owner (deterministic choice).
		m := r.CurrentMap()
		for sh := 0; sh < p.shards; sh++ {
			if m.Replica[sh] >= 0 || m.Owner[sh] < 0 {
				continue
			}
			for cand := 0; cand < chaosNodes; cand++ {
				r.mu.RLock()
				dead := r.dead[cand]
				r.mu.RUnlock()
				if cand == m.Owner[sh] || dead {
					continue
				}
				_ = r.RepairReplica(sh, cand) // best-effort; retried next epoch
				break
			}
		}

		// Migrations mid-stream: every 9th epoch, move one shard to the
		// next live node after its owner.
		if epoch%9 == 4 {
			m = r.CurrentMap()
			sh := epoch % p.shards
			if owner := m.Owner[sh]; owner >= 0 {
				for d := 1; d < chaosNodes; d++ {
					cand := (owner + d) % chaosNodes
					r.mu.RLock()
					dead := r.dead[cand]
					r.mu.RUnlock()
					if !dead {
						_ = r.Migrate(sh, cand) // failures unwind; retried by schedule
						break
					}
				}
			}
		}

		// One routed batch: up to chunk readings per shard, whole-chunk
		// accept/reject per shard (node sub-batches are atomic per shard).
		var batch []serve.Reading
		var shardOf []int
		for sh := 0; sh < p.shards; sh++ {
			end := next[sh] + p.chunk
			if end > len(list[sh]) {
				end = len(list[sh])
			}
			for k := next[sh]; k < end; k++ {
				batch = append(batch, list[sh][k])
				shardOf = append(shardOf, sh)
			}
		}
		if len(batch) == 0 {
			return nil
		}
		results := make([]serve.ReadingResult, len(batch))
		if _, _, err := r.Ingest(batch, results); err != nil {
			return fmt.Errorf("epoch %d: ingest: %w", epoch, err)
		}
		for i, res := range results {
			sh := shardOf[i]
			if !res.Accepted {
				continue // whole shard chunk rejected; cursor stays
			}
			// The twin's accept rule: the next seq must match a fresh twin
			// verdict, and one re-served after a rewind its stored verdict.
			k := next[sh]
			if err := tw.Accept(sh, uint64(k+1), list[sh][k], res); err != nil {
				return fmt.Errorf("epoch %d: %w", epoch, err)
			}
			next[sh]++
		}
		return nil
	}

	// Phase A: drive load under faults.
	for e := 0; e < p.epochs; e++ {
		if err := tick(e); err != nil {
			return err
		}
	}

	// Phase B: heal finite faults, revive partition-dead nodes, drain.
	healEpoch := 1 << 20
	cc.epoch.Store(int64(healEpoch))
	for id := 0; id < chaosNodes; id++ {
		r.mu.RLock()
		dead := r.dead[id]
		r.mu.RUnlock()
		if dead && !plan.Down(id, healEpoch) {
			if err := r.Revive(id); err != nil {
				return fmt.Errorf("revive node %d: %w", id, err)
			}
		}
	}
	done := func() bool {
		if len(needResync) > 0 {
			return false
		}
		for sh := 0; sh < p.shards; sh++ {
			if next[sh] != len(list[sh]) {
				return false
			}
		}
		return true
	}
	for e := 0; e < p.drain && !done(); e++ {
		if err := tick(healEpoch + 1 + e); err != nil {
			return err
		}
	}
	if !done() {
		return fmt.Errorf("stalled: cursors %v of %v after %d recovery epochs", next, lengths(list), p.drain)
	}

	// Conservation: every shard's current owner holds exactly the stream.
	m := r.CurrentMap()
	for sh := 0; sh < p.shards; sh++ {
		owner := m.Owner[sh]
		if owner < 0 {
			return fmt.Errorf("shard %d has no owner after recovery", sh)
		}
		ost, err := fetchNodeStats(r.client, m.Nodes[owner])
		if err != nil {
			return fmt.Errorf("final stats from owner of shard %d: %w", sh, err)
		}
		found := false
		for _, ss := range ost.PerShard {
			if ss.Shard == sh {
				found = true
				if ss.Arrivals != uint64(len(list[sh])) {
					return fmt.Errorf("shard %d conserved %d of %d readings", sh, ss.Arrivals, len(list[sh]))
				}
			}
		}
		if !found {
			return fmt.Errorf("owner %d lost shard %d", owner, sh)
		}
	}
	return nil
}

func lengths(lists [][]serve.Reading) []int {
	out := make([]int, len(lists))
	for i := range lists {
		out[i] = len(lists[i])
	}
	return out
}

// chaosSchedules is the pinned suite: ≥10 seeded fault schedules, each
// ending in bit-identical twin-oracle verdicts after recovery. Node ids
// are 0..2; the router is id 3 (chaosRouterID).
var chaosSchedules = []struct {
	name  string
	short bool // included in the -short subset
	sched fault.Schedule
}{
	{"baseline-no-faults", true, fault.Schedule{Seed: 1}},
	{"crash-transient", true, fault.Schedule{Seed: 2,
		Crashes: []fault.Crash{{Node: 0, At: 8, For: 10}}}},
	{"crash-permanent", true, fault.Schedule{Seed: 3,
		Crashes: []fault.Crash{{Node: 2, At: 5, For: 0}}}},
	{"partition-one-link", true, fault.Schedule{Seed: 4,
		Partitions: []fault.Partition{{From: chaosRouterID, To: 1, At: 6, For: 8}}}},
	{"partition-flap", false, fault.Schedule{Seed: 5,
		Partitions: []fault.Partition{
			{From: chaosRouterID, To: 0, At: 3, For: 2},
			{From: chaosRouterID, To: 0, At: 9, For: 2}}}},
	{"partition-during-migration", false, fault.Schedule{Seed: 6,
		Partitions: []fault.Partition{{From: chaosRouterID, To: 2, At: 13, For: 2}}}},
	{"crash-staggered-two-nodes", false, fault.Schedule{Seed: 7,
		Crashes: []fault.Crash{{Node: 0, At: 6, For: 6}, {Node: 1, At: 24, For: 6}}}},
	{"partition-blip-all-links", false, fault.Schedule{Seed: 8,
		Partitions: []fault.Partition{{From: fault.Any, To: fault.Any, At: 12, For: 1}}}},
	{"crash-long-window", false, fault.Schedule{Seed: 9,
		Crashes: []fault.Crash{{Node: 1, At: 4, For: 30}}}},
	{"lossy-ingest-links", false, fault.Schedule{Seed: 10,
		Links: []fault.Link{{From: chaosRouterID, To: fault.Any, Loss: 0.15}}}},
	{"partition-rolling", false, fault.Schedule{Seed: 11,
		Partitions: []fault.Partition{
			{From: chaosRouterID, To: 0, At: 5, For: 2},
			{From: chaosRouterID, To: 1, At: 15, For: 2},
			{From: chaosRouterID, To: 2, At: 25, For: 2}}}},
	{"loss-plus-crash", false, fault.Schedule{Seed: 12,
		Crashes: []fault.Crash{{Node: 0, At: 10, For: 8}},
		Links:   []fault.Link{{From: chaosRouterID, To: fault.Any, Loss: 0.1}}}},
}

// chaosEvent is one schedule element for ddmin shrinking.
type chaosEvent struct {
	crash *fault.Crash
	part  *fault.Partition
	link  *fault.Link
}

func scheduleEvents(s fault.Schedule) []chaosEvent {
	var evs []chaosEvent
	for i := range s.Crashes {
		c := s.Crashes[i]
		evs = append(evs, chaosEvent{crash: &c})
	}
	for i := range s.Partitions {
		pt := s.Partitions[i]
		evs = append(evs, chaosEvent{part: &pt})
	}
	for i := range s.Links {
		l := s.Links[i]
		evs = append(evs, chaosEvent{link: &l})
	}
	return evs
}

func eventsSchedule(seed int64, evs []chaosEvent) fault.Schedule {
	s := fault.Schedule{Seed: seed}
	for _, ev := range evs {
		switch {
		case ev.crash != nil:
			s.Crashes = append(s.Crashes, *ev.crash)
		case ev.part != nil:
			s.Partitions = append(s.Partitions, *ev.part)
		case ev.link != nil:
			s.Links = append(s.Links, *ev.link)
		}
	}
	return s
}

// TestClusterChaos is the headline suite: every schedule must end in a
// fully drained cluster whose every served verdict matched the twin
// oracle bit-for-bit. A failing schedule is ddmin-shrunk to a minimal
// reproducer and printed as a copy-pasteable Go literal.
func TestClusterChaos(t *testing.T) {
	p := defaultChaosParams()
	for _, tt := range chaosSchedules {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			if testing.Short() && !tt.short {
				t.Skip("full chaos suite runs without -short")
			}
			err := runChaos(p, tt.sched)
			if err == nil {
				return
			}
			if testing.Short() || tt.sched.Empty() {
				t.Fatalf("chaos run failed: %v\nschedule: %s", err, tt.sched.GoString())
			}
			shrunk := oracle.ShrinkSlice(scheduleEvents(tt.sched), func(evs []chaosEvent) bool {
				return runChaos(p, eventsSchedule(tt.sched.Seed, evs)) != nil
			})
			t.Fatalf("chaos run failed: %v\nschedule: %s\nshrunk reproducer: %s",
				err, tt.sched.GoString(), eventsSchedule(tt.sched.Seed, shrunk).GoString())
		})
	}
}
