package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"odds/internal/core"
	"odds/internal/distance"
	"odds/internal/mdef"
	"odds/internal/serve"
	"odds/internal/twin"
)

// testPipeline is the shared node configuration for cluster tests: a
// small window so detectors warm quickly.
func testPipeline(seed int64) serve.PipelineConfig {
	ccfg := core.DefaultConfig(1)
	ccfg.WindowCap = 150
	ccfg.SampleSize = 50
	return serve.PipelineConfig{
		Core:     ccfg,
		Kind:     serve.DetectDistance,
		Distance: distance.Params{Radius: 0.05, Threshold: 3},
		MDEF:     mdef.Params{R: 0.2, AlphaR: 0.05, KSigma: 1.5},
		Seed:     seed,
	}
}

// testCluster is an in-process multi-node cluster: N serve nodes behind
// httptest servers, fronted by a router with its own HTTP listener.
type testCluster struct {
	t        *testing.T
	servers  []*serve.Server
	nodeTS   []*httptest.Server
	router   *Router
	routerTS *httptest.Server
}

func newTestCluster(t *testing.T, nodes, shards int, replicate bool) *testCluster {
	t.Helper()
	return newTestClusterWith(t, nodes, shards, Options{Replicate: replicate, HealthThreshold: 1})
}

// newTestClusterWith is newTestCluster with the router's options spelled
// out; it fills in opts.Nodes.
func newTestClusterWith(t *testing.T, nodes, shards int, opts Options) *testCluster {
	t.Helper()
	tc := &testCluster{t: t}
	urls := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		srv, err := serve.New(serve.Config{
			Shards:     shards,
			Pipeline:   testPipeline(42),
			QueueDepth: 64,
			Cluster:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		tc.servers = append(tc.servers, srv)
		tc.nodeTS = append(tc.nodeTS, ts)
		urls[i] = ts.URL
		t.Cleanup(func() { ts.Close(); _ = srv.Close() })
	}
	opts.Nodes = urls
	r, err := NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	tc.router = r
	tc.routerTS = httptest.NewServer(r.Handler())
	t.Cleanup(tc.routerTS.Close)
	return tc
}

// killNode makes a node unreachable (its listener closes; in-flight and
// future requests fail), simulating a crash.
func (tc *testCluster) killNode(id int) {
	tc.nodeTS[id].Close()
}

func runRoutedLoad(t *testing.T, url string, total int, subscribe bool) *twin.Report {
	t.Helper()
	rep, err := twin.Run(twin.Options{
		BaseURL: url, Sensors: 6, Total: total, Batch: 48, Stream: "mixture", Seed: 99,
		Encoding: "binary", Subscribe: subscribe,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRouterRefusesMismatchedNodes: forming a cluster from nodes with
// different detector configurations is refused fail-closed at bootstrap.
func TestRouterRefusesMismatchedNodes(t *testing.T) {
	mk := func(pcfg serve.PipelineConfig, cluster bool) (*httptest.Server, func()) {
		srv, err := serve.New(serve.Config{Shards: 4, Pipeline: pcfg, QueueDepth: 16, Cluster: cluster})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		return ts, func() { ts.Close(); _ = srv.Close() }
	}
	good, cleanGood := mk(testPipeline(42), true)
	defer cleanGood()
	badCfg := testPipeline(42)
	badCfg.Distance.Radius *= 2
	bad, cleanBad := mk(badCfg, true)
	defer cleanBad()

	if _, err := NewRouter(Options{Nodes: []string{good.URL, bad.URL}}); err == nil ||
		!strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("mismatched configs formed a cluster: %v", err)
	}

	solo, cleanSolo := mk(testPipeline(42), false)
	defer cleanSolo()
	if _, err := NewRouter(Options{Nodes: []string{solo.URL}}); err == nil ||
		!strings.Contains(err.Error(), "cluster mode") {
		t.Fatalf("non-cluster node joined a cluster: %v", err)
	}
}

// TestRoutedLoadAgreement extends the twin-oracle verdict agreement to
// the routed path: oddload's oracle runs unchanged against the router
// across node and shard counts, and every served verdict must be
// bit-identical to the in-process twin.
func TestRoutedLoadAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("routed load oracle is slow; run without -short")
	}
	for _, tt := range []struct{ nodes, shards int }{
		{1, 1}, {1, 4}, {3, 1}, {3, 4},
	} {
		t.Run(fmt.Sprintf("nodes=%d_shards=%d", tt.nodes, tt.shards), func(t *testing.T) {
			tc := newTestCluster(t, tt.nodes, tt.shards, tt.nodes > 1)
			rep := runRoutedLoad(t, tc.routerTS.URL, 2000, true)
			if rep.Sent != 2000 {
				t.Fatalf("sent %d readings, want 2000", rep.Sent)
			}
		})
	}
}

// TestRoutedQueryAndStats covers the proxied query path and the
// aggregated stats/metrics surface.
func TestRoutedQueryAndStats(t *testing.T) {
	tc := newTestCluster(t, 3, 4, true)
	runRoutedLoad(t, tc.routerTS.URL, 600, false)

	st, err := tc.router.AggregateStats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Cluster || st.Shards != 4 || len(st.PerShard) != 4 {
		t.Fatalf("aggregate stats %+v", st)
	}
	var total uint64
	for _, ss := range st.PerShard {
		total += ss.Arrivals
	}
	if total != 600 {
		t.Fatalf("cluster arrivals %d, want 600", total)
	}

	resp, err := http.Get(tc.routerTS.URL + "/query/outlier?sensor=sensor-0&v=0.5")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxied query: status %d: %s", resp.StatusCode, body)
	}

	resp, err = http.Get(tc.routerTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, metric := range []string{"odds_router_map_epoch", "odds_router_forwarded_total", "odds_router_nodes_live 3"} {
		if !strings.Contains(string(body), metric) {
			t.Errorf("metrics missing %q:\n%s", metric, body)
		}
	}
}

// TestRoutedLoadAcrossMigration: migrate a shard between two load runs
// and require the resumed run to agree bit-identically — the shipped
// snapshot carried the exact pipeline state.
func TestRoutedLoadAcrossMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("routed load oracle is slow; run without -short")
	}
	tc := newTestCluster(t, 3, 4, true)
	runRoutedLoad(t, tc.routerTS.URL, 1200, false)

	// Onto the third node: the replica is re-chained before the commit
	// (TestMigrateOntoReplicaKeepsChain moves onto the replica itself).
	m := tc.router.CurrentMap()
	shard, from, follower := 0, m.Owner[0], m.Replica[0]
	to := 3 - from - follower
	epochBefore := m.Epoch
	resp, err := http.Post(fmt.Sprintf("%s/admin/migrate?shard=%d&to=%d", tc.routerTS.URL, shard, to), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate: status %d: %s", resp.StatusCode, body)
	}
	m = tc.router.CurrentMap()
	if m.Owner[shard] != to || m.Replica[shard] != follower || m.Epoch <= epochBefore {
		t.Fatalf("post-migration map: owner %d replica %d epoch %d (was node %d, replica %d, epoch %d)",
			m.Owner[shard], m.Replica[shard], m.Epoch, from, follower, epochBefore)
	}

	// The resumed run catches up from /stats and re-verifies the tail.
	rep := runRoutedLoad(t, tc.routerTS.URL, 2400, false)
	if rep.CaughtUp != 1200 {
		t.Fatalf("resumed run caught up %d, want 1200 (migration lost state)", rep.CaughtUp)
	}
}

// TestFailoverPromote: kill a primary, let the health loop declare it
// dead and promote replicas, then require a catch-up load run to agree
// bit-identically — deterministic replay across failover.
func TestFailoverPromote(t *testing.T) {
	if testing.Short() {
		t.Skip("routed load oracle is slow; run without -short")
	}
	tc := newTestCluster(t, 3, 4, true)
	runRoutedLoad(t, tc.routerTS.URL, 1200, false)

	m := tc.router.CurrentMap()
	victim := m.Owner[0]
	tc.killNode(victim)
	promoted := tc.router.HealthTick() // threshold 1: one failed probe
	if len(promoted) == 0 {
		t.Fatal("health tick promoted nothing after killing a primary")
	}
	m = tc.router.CurrentMap()
	for sh := 0; sh < m.Shards; sh++ {
		if m.Owner[sh] == victim {
			t.Fatalf("shard %d still owned by dead node %d", sh, victim)
		}
		if m.Owner[sh] < 0 {
			t.Fatalf("shard %d unavailable after failover (no live replica)", sh)
		}
	}

	// The promoted replicas may trail the dead primary's ACK point; the
	// catch-up run reads their arrivals and re-sends the lost tail, and
	// every re-served verdict must still match the twin.
	runRoutedLoad(t, tc.routerTS.URL, 2400, false)
}

// TestSubscribeAcrossMigration (conservation): a subscriber connected
// through the router across a live migration sees every accepted reading
// exactly once, bit-identical to the twin — events + ring-drop gaps
// account for everything, with no duplicates and no silent loss.
func TestSubscribeAcrossMigration(t *testing.T) {
	tc := newTestCluster(t, 3, 4, true)
	router := serve.Client{HTTP: http.DefaultClient, Base: tc.routerTS.URL}
	st, err := router.Stats()
	if err != nil {
		t.Fatal(err)
	}
	tw, err := twin.New(st)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := twin.OpenStream(router)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	// Drive batches through the router, retrying rejections in order so
	// every shard's accepted sequence is exact. Migrate a shard mid-stream.
	const sensors = 6
	seqs := make([]uint64, st.Shards)
	accepted := 0
	send := func() {
		readings := make([]serve.Reading, sensors)
		for s := range readings {
			readings[s] = serve.Reading{Sensor: fmt.Sprintf("sensor-%d", s), Value: []float64{0.5}}
		}
		for len(readings) > 0 {
			out, err := router.IngestJSON(serve.IngestRequest{Readings: readings})
			if err != nil {
				t.Fatal(err)
			}
			var retry []serve.Reading
			for i, res := range out.Results {
				if !res.Accepted {
					retry = append(retry, readings[i])
					continue
				}
				sh := serve.ShardOf(readings[i].Sensor, st.Shards)
				seqs[sh]++
				if err := tw.Accept(sh, seqs[sh], readings[i], res); err != nil {
					t.Fatal(err)
				}
				accepted++
			}
			readings = retry
			if len(readings) > 0 {
				time.Sleep(5 * time.Millisecond) // seal window or backpressure
			}
		}
	}

	const rounds = 120
	for round := 0; round < rounds; round++ {
		if round == rounds/2 {
			m := tc.router.CurrentMap()
			to := (m.Owner[0] + 1) % 3
			if err := tc.router.Migrate(0, to); err != nil {
				t.Fatalf("mid-stream migration: %v", err)
			}
		}
		send()
	}

	// Drain: every accepted reading must arrive as an event equal to the
	// twin's verdict, or be covered by an explicit gap record.
	if _, _, err := sub.Check(tw, accepted); err != nil {
		t.Fatal(err)
	}
}

// fetchNodeStats is the chaos suite's read of one node's /stats through
// the router's own (fault-injecting) client.
func fetchNodeStats(c *http.Client, baseURL string) (*serve.StatsResponse, error) {
	return serve.Client{HTTP: c, Base: baseURL}.Stats()
}

// TestRouterIngestErrorParity: a bad request gets the same status (and the
// same Allow/Accept header) from the router as from a node, on every
// endpoint the two share (DESIGN §8 "Negotiation and the zero-alloc
// path"), so clients see one contract with or without a router in front.
// Both answer through serve.RequireMethod, serve.NegotiateIngest,
// serve.IngestDecodeStatus and serve.ParseSubscribeQuery; the ingest bodies
// are over the router's caps, which are at or above a node's defaults.
func TestRouterIngestErrorParity(t *testing.T) {
	tc := newTestCluster(t, 1, 2, false)
	padding := bytes.Repeat([]byte(" "), routerMaxBody+1)
	big := make([]serve.Reading, routerMaxBatch+1)
	for i := range big {
		big[i] = serve.Reading{Sensor: "s", Value: []float64{0.5}}
	}
	type parityCase struct {
		name, method, target, contentType string
		body                              []byte
		want                              int
	}
	cases := []parityCase{
		{"json body over the cap", "POST", "/ingest", "application/json", padding, http.StatusRequestEntityTooLarge},
		{"json trailing bytes after the object", "POST", "/ingest", "application/json", []byte(`{"readings":[{"sensor":"s","value":[0.5]}]} x`), http.StatusBadRequest},
		{"json reading without a value", "POST", "/ingest", "application/json", []byte(`{"readings":[{"sensor":"s"}]}`), http.StatusBadRequest},
		{"binary body over the cap", "POST", "/ingest", serve.ContentTypeBinary, padding, http.StatusRequestEntityTooLarge},
		{"binary batch over the cap", "POST", "/ingest", serve.ContentTypeBinary, serve.AppendBatch(nil, big, 1, tc.router.fp), http.StatusRequestEntityTooLarge},
		{"unknown content type", "POST", "/ingest", "text/csv", []byte("s,0.5\n"), http.StatusUnsupportedMediaType},
		{"subscribe unknown only", "GET", "/subscribe?only=bogus", "", nil, http.StatusBadRequest},
		{"subscribe unknown format", "GET", "/subscribe?format=xml", "", nil, http.StatusBadRequest},
		{"subscribe empty sensor id", "GET", "/subscribe?sensors=a,,b", "", nil, http.StatusBadRequest},
		{"query without sensor", "GET", "/query/outlier?v=0.5", "", nil, http.StatusBadRequest},
		{"query without value", "GET", "/query/outlier?sensor=s", "", nil, http.StatusBadRequest},
		{"prob without radius", "GET", "/query/prob?sensor=s&v=0.5", "", nil, http.StatusBadRequest},
		{"prob with NaN radius", "GET", "/query/prob?sensor=s&v=0.5&r=NaN", "", nil, http.StatusBadRequest},
		{"GET /ingest", "GET", "/ingest", "", nil, http.StatusMethodNotAllowed},
	}
	for _, target := range []string{"/subscribe", "/query/outlier", "/query/prob", "/stats", "/healthz", "/metrics"} {
		cases = append(cases, parityCase{"POST " + target, "POST", target, "", nil, http.StatusMethodNotAllowed})
	}
	send := func(base, method, target, contentType string, body []byte) (int, http.Header) {
		req, err := http.NewRequest(method, base+target, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nodeStatus, nodeHdr := send(tc.nodeTS[0].URL, c.method, c.target, c.contentType, c.body)
			routerStatus, routerHdr := send(tc.routerTS.URL, c.method, c.target, c.contentType, c.body)
			if nodeStatus != c.want || routerStatus != c.want {
				t.Errorf("status: node %d, router %d, want %d from both", nodeStatus, routerStatus, c.want)
			}
			for _, h := range []string{"Accept", "Allow", "Content-Type"} {
				if n, r := nodeHdr.Get(h), routerHdr.Get(h); n != r {
					t.Errorf("%s header: node %q, router %q", h, n, r)
				}
			}
		})
	}
	// The router's own read endpoint fails closed on method mismatch too.
	if status, hdr := send(tc.routerTS.URL, "POST", "/admin/map", "", nil); status != http.StatusMethodNotAllowed || hdr.Get("Allow") != "GET" {
		t.Errorf("POST /admin/map on the router: status %d Allow %q, want 405 GET", status, hdr.Get("Allow"))
	}
}
