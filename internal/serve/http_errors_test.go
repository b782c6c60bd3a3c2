package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postRaw(t *testing.T, url, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
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

// TestIngestErrorPaths drives every malformed-request class through POST
// /ingest: each must fail closed with a 4xx — never a 5xx, never a shard
// panic — and the server must stay fully serviceable afterwards.
func TestIngestErrorPaths(t *testing.T) {
	cfg := testServerConfig(2, 1)
	cfg.MaxBatch = 8
	cfg.MaxBodyBytes = 4096
	srv := mustServer(t, cfg)
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	goodReadings := []Reading{{Sensor: "a", Value: []float64{0.5}}}
	goodFrame := AppendBatch(nil, goodReadings, 1, srv.wireFP)
	bigBatch := make([]Reading, 9) // MaxBatch+1
	for i := range bigBatch {
		bigBatch[i] = Reading{Sensor: "s", Value: []float64{0.1}}
	}
	bigFrame := AppendBatch(nil, bigBatch, 1, srv.wireFP)

	jsonBody := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	cases := []struct {
		name        string
		contentType string
		body        []byte
		wantStatus  int
	}{
		{"malformed json", "application/json", []byte("{not json"), http.StatusBadRequest},
		{"json wrong dim", "application/json",
			jsonBody(IngestRequest{Readings: []Reading{{Sensor: "a", Value: []float64{1, 2}}}}),
			http.StatusBadRequest},
		{"json oversized batch", "application/json",
			jsonBody(IngestRequest{Readings: bigBatch}), http.StatusRequestEntityTooLarge},
		{"json oversized body", "application/json",
			[]byte(`{"readings":[{"sensor":"` + strings.Repeat("x", 8192) + `","value":[1]}]}`),
			http.StatusRequestEntityTooLarge},
		{"json trailing bytes", "application/json",
			[]byte(`{"readings":[{"sensor":"a","value":[0.5]}]} x`), http.StatusBadRequest},
		{"json reading without a value", "application/json",
			[]byte(`{"readings":[{"sensor":"a"}]}`), http.StatusBadRequest},
		{"wrong content type", "text/csv", []byte("a,0.5"), http.StatusUnsupportedMediaType},
		{"binary empty body", ContentTypeBinary, nil, http.StatusBadRequest},
		{"binary truncated frame", ContentTypeBinary, goodFrame[:len(goodFrame)-6], http.StatusBadRequest},
		{"binary bad magic", ContentTypeBinary,
			corrupt(goodFrame, func(b []byte) { b[0] ^= 0xff }, true), http.StatusBadRequest},
		{"binary bad crc", ContentTypeBinary,
			corrupt(goodFrame, func(b []byte) { b[len(b)-1] ^= 0xff }, false), http.StatusBadRequest},
		{"binary bad fingerprint", ContentTypeBinary,
			corrupt(goodFrame, func(b []byte) { b[12] ^= 0xff }, true), http.StatusBadRequest},
		{"binary wrong dim", ContentTypeBinary,
			corrupt(goodFrame, func(b []byte) { b[6] = 9 }, true), http.StatusBadRequest},
		{"binary nan value", ContentTypeBinary,
			corrupt(goodFrame, func(b []byte) {
				binary.LittleEndian.PutUint64(b[len(b)-12:], math.Float64bits(math.NaN()))
			}, true), http.StatusBadRequest},
		{"binary oversized batch", ContentTypeBinary, bigFrame, http.StatusRequestEntityTooLarge},
		{"binary oversized body", ContentTypeBinary,
			append(append([]byte(nil), goodFrame...), make([]byte, 8192)...),
			http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRaw(t, ts.URL+"/ingest", tc.contentType, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.wantStatus, body)
			}
			if resp.StatusCode >= 500 {
				t.Fatalf("malformed request answered 5xx: %s", body)
			}
		})
	}

	// The server must still serve a well-formed batch on both encodings.
	resp, body := postRaw(t, ts.URL+"/ingest", "application/json", jsonBody(IngestRequest{Readings: goodReadings}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-abuse JSON ingest: status %d: %s", resp.StatusCode, body)
	}
	resp, body = postRaw(t, ts.URL+"/ingest", ContentTypeBinary, AppendBatch(nil, goodReadings, 1, srv.wireFP))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-abuse binary ingest: status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Content-Type"); got != ContentTypeBinary {
		t.Fatalf("binary reply Content-Type %q", got)
	}
	if _, _, _, err := DecodeResultsInto(body, nil); err != nil {
		t.Fatalf("binary reply does not decode: %v", err)
	}
}

// TestIngestJSONDoesNotInheritPooledReadings is the regression test for
// the JSON path decoding into a pooled slice whose elements encoding/json
// reused without zeroing them: a reading that omitted "value" was ingested
// with the value the slot last held, one that omitted "sensor" under
// another request's sensor id. Both must decode as they would into a
// zeroed request. The pool may drop a scratch (it does so at random under
// the race detector), hence the rounds: a correct server passes every one.
func TestIngestJSONDoesNotInheritPooledReadings(t *testing.T) {
	const shards = 4
	srv := mustServer(t, testServerConfig(shards, 1))
	defer srv.Close()
	h := srv.Handler()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body)))
		return rec
	}
	arrivals := func() (total uint64) {
		st, err := srv.Stats()
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range st.PerShard {
			total += sh.Arrivals
		}
		return total
	}
	// A donor id on another shard than the empty id's, so inheriting it shows.
	secret := "secret"
	for ShardOf(secret, shards) == ShardOf("", shards) {
		secret += "!"
	}
	for round := 0; round < 16; round++ {
		if rec := post(`{"readings":[{"sensor":"` + secret + `","value":[0.77]}]}`); rec.Code != http.StatusOK {
			t.Fatalf("round %d: well-formed ingest: status %d: %s", round, rec.Code, rec.Body)
		}
		before := arrivals()
		rec := post(`{"readings":[{"sensor":"x"}]}`)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "dim 0, want 1") {
			t.Fatalf("round %d: reading without a value: status %d: %s", round, rec.Code, rec.Body)
		}
		if after := arrivals(); after != before {
			t.Fatalf("round %d: refused request moved arrivals %d -> %d", round, before, after)
		}
		rec = post(`{"readings":[{"value":[0.5]}]}`)
		var resp IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || len(resp.Results) != 1 {
			t.Fatalf("round %d: reading without a sensor: status %d: %s", round, rec.Code, rec.Body)
		}
		if got, want := resp.Results[0].Shard, ShardOf("", shards); got != want {
			t.Fatalf("round %d: reading without a sensor routed to shard %d, want %d (the empty id's)", round, got, want)
		}
	}
}

// TestIngestJSONEmptyBatch: a body with no readings takes the same path as
// any other batch and is answered 200 with the bytes it always was, on a
// single-shard server (whose whole batch is the sub-batch) and a sharded one.
func TestIngestJSONEmptyBatch(t *testing.T) {
	for _, shards := range []int{1, 3} {
		srv := mustServer(t, testServerConfig(shards, 1))
		for _, body := range []string{`{}`, `{"readings":[]}`, `{"readings":null}`} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(body)))
			if got := rec.Body.String(); rec.Code != http.StatusOK || got != "{\"results\":[],\"rejected\":0}\n" {
				t.Errorf("%d shards, body %s: status %d, reply %q", shards, body, rec.Code, got)
			}
		}
		srv.Close()
	}
}

// TestMethodMismatches pins 405 + Allow on every endpoint.
func TestMethodMismatches(t *testing.T) {
	srv := mustServer(t, testServerConfig(1, 1))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		path   string
		method string // the WRONG method
		allow  string
	}{
		{"/ingest", http.MethodGet, http.MethodPost},
		{"/ingest", http.MethodDelete, http.MethodPost},
		{"/subscribe", http.MethodPost, http.MethodGet},
		{"/query/outlier", http.MethodPost, http.MethodGet},
		{"/query/prob", http.MethodPost, http.MethodGet},
		{"/stats", http.MethodPost, http.MethodGet},
		{"/healthz", http.MethodPost, http.MethodGet},
		{"/metrics", http.MethodPost, http.MethodGet},
	}
	for _, tc := range cases {
		t.Run(tc.method+" "+tc.path, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("status %d, want 405", resp.StatusCode)
			}
			if got := resp.Header.Get("Allow"); got != tc.allow {
				t.Fatalf("Allow %q, want %q", got, tc.allow)
			}
		})
	}
}

// TestBinaryBackpressureFullReject is the binary twin of
// TestBackpressureFullReject: a full mailbox answers the ODWP client 429
// with a Retry-After header and an ODWR frame carrying the rejection.
func TestBinaryBackpressureFullReject(t *testing.T) {
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
	s := &Server{cfg: cfg, shards: []*shard{sh}, hub: newSubHub(),
		wireFP: wireFingerprint(cfg.Shards, cfg.Pipeline)}
	// Occupy the mailbox's only slot so admission control must reject.
	sh.reqs <- shardReq{op: opStats, reply: make(chan shardResp, 1)}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	readings := []Reading{
		{Sensor: "a", Value: []float64{0.1}},
		{Sensor: "b", Value: []float64{0.2}},
	}
	resp, body := postRaw(t, ts.URL+"/ingest", ContentTypeBinary, AppendBatch(nil, readings, 1, s.wireFP))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	results, rejected, retryMS, err := DecodeResultsInto(body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 2 || retryMS <= 0 {
		t.Fatalf("rejected=%d retryMS=%d", rejected, retryMS)
	}
	for i, r := range results {
		if r.Accepted {
			t.Fatalf("reading %d accepted under full backpressure", i)
		}
	}
}

// failWriter refuses every write, simulating a client that hung up before
// the response body went out.
type failWriter struct{ h http.Header }

func (f *failWriter) Header() http.Header       { return f.h }
func (f *failWriter) WriteHeader(int)           {}
func (f *failWriter) Write([]byte) (int, error) { return 0, errors.New("connection lost") }

// TestWriteJSONEncodeFailureCounted is the regression test for WriteJSON
// silently discarding Encode errors: a failed response encode must be
// counted (and logged once, elsewhere), not dropped on the floor.
func TestWriteJSONEncodeFailureCounted(t *testing.T) {
	before := jsonEncodeFailures.Load()
	WriteJSON(&failWriter{h: http.Header{}}, http.StatusOK, map[string]int{"x": 1})
	if got := jsonEncodeFailures.Load(); got != before+1 {
		t.Fatalf("encode failure counter %d, want %d", got, before+1)
	}
}

// TestMetricsExposeWireCounters checks /metrics carries the new
// subscriber and encode-failure gauges.
func TestMetricsExposeWireCounters(t *testing.T) {
	srv := mustServer(t, testServerConfig(1, 1))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"odds_serve_subscribers 0",
		"odds_serve_subscriber_dropped_total 0",
		"odds_serve_json_encode_failures_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}
