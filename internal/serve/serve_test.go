package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testServerConfig returns a small server configuration for API tests.
func testServerConfig(shards, dim int) Config {
	return Config{
		Shards:   shards,
		Pipeline: testPipelineConfig(DetectDistance, dim, 120, 7),
	}
}

func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestHTTPAPI exercises every endpoint of the JSON API against a live
// two-shard server: ingest routing and per-shard sequencing, read-only
// queries, stats, health, and metrics.
func TestHTTPAPI(t *testing.T) {
	srv := mustServer(t, testServerConfig(2, 2))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Ingest a batch across several sensors and check routing + sequencing.
	var req IngestRequest
	sensors := []string{"a", "b", "c", "d"}
	for i := 0; i < 12; i++ {
		s := sensors[i%len(sensors)]
		req.Readings = append(req.Readings, Reading{Sensor: s, Value: []float64{float64(i) / 10, 0.5}})
	}
	resp, body := postJSON(t, ts.URL+"/ingest", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d: %s", resp.StatusCode, body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if len(ir.Results) != len(req.Readings) || ir.Rejected != 0 {
		t.Fatalf("got %d results, %d rejected", len(ir.Results), ir.Rejected)
	}
	seqs := map[int]uint64{}
	for i, res := range ir.Results {
		if !res.Accepted {
			t.Fatalf("reading %d not accepted", i)
		}
		if want := ShardOf(req.Readings[i].Sensor, 2); res.Shard != want {
			t.Fatalf("reading %d routed to shard %d, want %d", i, res.Shard, want)
		}
		seqs[res.Shard]++
		if res.Seq != seqs[res.Shard] {
			t.Fatalf("reading %d: shard %d seq %d, want %d", i, res.Shard, res.Seq, seqs[res.Shard])
		}
	}

	// Empty batch is a cheap OK.
	resp, body = postJSON(t, ts.URL+"/ingest", IngestRequest{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("empty ingest status %d: %s", resp.StatusCode, body)
	}
	// Wrong method.
	if resp, _ := getBody(t, ts.URL+"/ingest"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest status %d", resp.StatusCode)
	}
	// Malformed body.
	r2, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed ingest status %d", r2.StatusCode)
	}

	// Read-only queries.
	resp, body = getBody(t, ts.URL+"/query/outlier?sensor=a&v=0.1,0.5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	var qr QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Shard != ShardOf("a", 2) {
		t.Fatalf("query shard %d, want %d", qr.Shard, ShardOf("a", 2))
	}
	for _, bad := range []string{
		"/query/outlier?v=0.1,0.5",           // missing sensor
		"/query/outlier?sensor=a",            // missing v
		"/query/outlier?sensor=a&v=0.1",      // wrong dim
		"/query/outlier?sensor=a&v=x,y",      // unparsable
		"/query/prob?sensor=a&v=0.1,0.5",     // missing r
		"/query/prob?sensor=a&v=0.1,0.5&r=0", // non-positive r
	} {
		if resp, _ := getBody(t, ts.URL+bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, body = getBody(t, ts.URL+"/query/prob?sensor=a&v=0.1,0.5&r=0.05")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prob status %d: %s", resp.StatusCode, body)
	}
	var pr ProbResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Prob < 0 || pr.Prob > 1 {
		t.Fatalf("prob %v out of range", pr.Prob)
	}

	// Stats: configuration echo plus per-shard counters covering the batch.
	resp, body = getBody(t, ts.URL+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 || st.Kind != DetectDistance || st.Core.Dim != 2 {
		t.Fatalf("stats config echo wrong: %+v", st)
	}
	var arrivals uint64
	for _, ss := range st.PerShard {
		arrivals += ss.Arrivals
	}
	if arrivals != uint64(len(req.Readings)) {
		t.Fatalf("total arrivals %d, want %d", arrivals, len(req.Readings))
	}

	// Health and metrics.
	if resp, body := getBody(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	_, body = getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"odds_serve_shards 2",
		fmt.Sprintf("odds_serve_ingested_total %d", len(req.Readings)),
		`odds_serve_shard_ingested{shard="0"}`,
		`odds_serve_shard_queue_depth{shard="1"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestIngestDimValidation rejects readings whose dimensionality does not
// match the server's pipelines before any shard work happens.
func TestIngestDimValidation(t *testing.T) {
	srv := mustServer(t, testServerConfig(1, 2))
	defer srv.Close()
	if _, _, err := srv.Ingest([]Reading{{Sensor: "a", Value: []float64{1}}}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

// TestBackpressureFullReject pins the pure-backpressure reply: with every
// shard mailbox full, POST /ingest answers 429 with a Retry-After header,
// all readings unaccepted, and the rejection counted per shard. The shard
// goroutines are deliberately not started so the mailbox state is
// deterministic.
func TestBackpressureFullReject(t *testing.T) {
	cfg := testServerConfig(1, 1)
	cfg.QueueDepth = 1
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	pl, err := NewPipeline(cfg.Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	sh := newShard(0, pl, cfg.QueueDepth, nil)
	s := &Server{cfg: cfg, shards: []*shard{sh}, hub: newSubHub()}
	// Occupy the mailbox's only slot so admission control must reject.
	sh.reqs <- shardReq{op: opStats, reply: make(chan shardResp, 1)}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := IngestRequest{Readings: []Reading{
		{Sensor: "a", Value: []float64{0.1}},
		{Sensor: "b", Value: []float64{0.2}},
	}}
	resp, body := postJSON(t, ts.URL+"/ingest", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Rejected != 2 || ir.RetryAfterMS <= 0 {
		t.Fatalf("rejected %d retryAfterMS %d", ir.Rejected, ir.RetryAfterMS)
	}
	for i, res := range ir.Results {
		if res.Accepted {
			t.Fatalf("reading %d accepted under full backpressure", i)
		}
	}
	if got := sh.rejected.Load(); got != 2 {
		t.Fatalf("shard rejected counter %d, want 2", got)
	}
}

// TestBackpressurePartialReject pins atomic per-shard sub-batch rejection:
// with one of two shards full, the other shard's readings are served
// normally (200 + RetryAfterMS in the body), and the full shard's whole
// sub-batch is rejected in order.
func TestBackpressurePartialReject(t *testing.T) {
	cfg := testServerConfig(2, 1)
	cfg.QueueDepth = 1
	if err := cfg.fill(); err != nil {
		t.Fatal(err)
	}
	shards := make([]*shard, 2)
	for i := range shards {
		pcfg := cfg.Pipeline
		pcfg.Seed = shardSeed(cfg.Pipeline.Seed, i)
		pl, err := NewPipeline(pcfg)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = newShard(i, pl, cfg.QueueDepth, nil)
	}
	s := &Server{cfg: cfg, shards: shards, hub: newSubHub()}

	// Find sensor names for each shard.
	bySensor := map[int]string{}
	for i := 0; len(bySensor) < 2; i++ {
		name := fmt.Sprintf("s%d", i)
		sid := ShardOf(name, 2)
		if _, ok := bySensor[sid]; !ok {
			bySensor[sid] = name
		}
	}
	// Shard 0 is full and not running; shard 1 serves.
	shards[0].reqs <- shardReq{op: opStats, reply: make(chan shardResp, 1)}
	go shards[1].run()
	defer func() {
		close(shards[1].reqs)
		<-shards[1].done
	}()

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := IngestRequest{Readings: []Reading{
		{Sensor: bySensor[0], Value: []float64{0.1}},
		{Sensor: bySensor[1], Value: []float64{0.2}},
		{Sensor: bySensor[0], Value: []float64{0.3}},
	}}
	resp, body := postJSON(t, ts.URL+"/ingest", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, body)
	}
	var ir IngestResponse
	if err := json.Unmarshal(body, &ir); err != nil {
		t.Fatal(err)
	}
	if ir.Rejected != 2 || ir.RetryAfterMS <= 0 {
		t.Fatalf("rejected %d retryAfterMS %d, want 2 and >0", ir.Rejected, ir.RetryAfterMS)
	}
	if ir.Results[0].Accepted || ir.Results[2].Accepted {
		t.Fatal("full shard's sub-batch partially accepted")
	}
	if !ir.Results[1].Accepted || ir.Results[1].Seq != 1 {
		t.Fatalf("serving shard's reading: %+v", ir.Results[1])
	}
}

// TestCloseRefusesRequests: after Close, the API consistently answers 503
// and Close stays idempotent.
func TestCloseRefusesRequests(t *testing.T) {
	srv := mustServer(t, testServerConfig(2, 1))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for _, ep := range []string{"/stats", "/healthz", "/query/outlier?sensor=a&v=0.5"} {
		if resp, _ := getBody(t, ts.URL+ep); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s after Close: status %d, want 503", ep, resp.StatusCode)
		}
	}
	resp, _ := postJSON(t, ts.URL+"/ingest", IngestRequest{Readings: []Reading{{Sensor: "a", Value: []float64{1}}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest after Close: status %d, want 503", resp.StatusCode)
	}
}

// TestGracefulCloseDrains: envelopes buffered before Close are still
// served (graceful drain), unlike Abort which drops them.
func TestGracefulCloseDrains(t *testing.T) {
	cfg := testServerConfig(1, 1)
	cfg.QueueDepth = 8
	srv := mustServer(t, cfg)
	// Queue work and close immediately; the drain must process it.
	var readings []Reading
	for i := 0; i < 5; i++ {
		readings = append(readings, Reading{Sensor: "a", Value: []float64{float64(i)}})
	}
	if _, rejected, err := srv.Ingest(readings); err != nil || rejected != 0 {
		t.Fatalf("ingest: rejected=%d err=%v", rejected, err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if got := srv.shards[0].pl.Seq(); got != 5 {
		t.Fatalf("after drain, shard processed %d readings, want 5", got)
	}
}

// TestCheckpointWhileServing: periodic checkpoints interleave with live
// ingest without corrupting state or losing requests.
func TestCheckpointWhileServing(t *testing.T) {
	cfg := testServerConfig(2, 1)
	cfg.SnapshotPath = t.TempDir() + "/snap"
	cfg.SnapshotEvery = time.Millisecond
	srv := mustServer(t, cfg)
	defer srv.Close()
	for i := 0; i < 200; i++ {
		if _, _, err := srv.Ingest([]Reading{{Sensor: fmt.Sprintf("s%d", i%5), Value: []float64{float64(i) / 200}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, ss := range st.PerShard {
		total += ss.Arrivals
	}
	if total != 200 {
		t.Fatalf("arrivals %d, want 200", total)
	}
}
