package twin

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"odds/internal/detector"
	"odds/internal/serve"
)

// TestRequeue pins Run's advance step on its own: after a round of n
// readings with the rejected ones compacted to the front, the next
// pending list is the retries in their original order followed by the
// untouched unsent tail, and the step allocates nothing.
func TestRequeue(t *testing.T) {
	const total, n = 12, 5
	for _, tc := range []struct {
		name     string
		rejected []int // indexes into the round, ascending
	}{
		{"no rejects", nil},
		{"some rejects", []int{1, 3, 4}},
		{"all rejected", []int{0, 1, 2, 3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fresh := func() []loadReading {
				p := make([]loadReading, total)
				for i := range p {
					p[i].seq = uint64(i)
				}
				// The scan in Run compacts rejected readings forward.
				for k, i := range tc.rejected {
					p[k] = p[i]
				}
				return p
			}
			got := requeue(fresh(), n, len(tc.rejected))
			var want []uint64
			for _, i := range tc.rejected {
				want = append(want, uint64(i))
			}
			for i := n; i < total; i++ {
				want = append(want, uint64(i))
			}
			if len(got) != len(want) {
				t.Fatalf("len %d, want %d", len(got), len(want))
			}
			for i, rd := range got {
				if rd.seq != want[i] {
					t.Fatalf("position %d holds reading %d, want %d", i, rd.seq, want[i])
				}
			}
			p := fresh()
			if allocs := testing.AllocsPerRun(100, func() { requeue(p, n, len(tc.rejected)) }); allocs != 0 {
				t.Fatalf("requeue allocates %v per run, want 0", allocs)
			}
		})
	}
}

// startServer serves a two-shard server on pcfg, through wrap if non-nil.
func startServer(t *testing.T, pcfg serve.PipelineConfig, wrap func(http.Handler) http.Handler) (*serve.Server, string) {
	t.Helper()
	srv, err := serve.New(serve.Config{Shards: 2, Pipeline: pcfg, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// TestMaxRetries pins Options.MaxRetries as a budget of consecutive fully
// rejected rounds: a server that answers 429 N times in a row and then
// serves is within a budget of N, N+1 in a row exhausts it, and the count
// starts over once a round gets readings accepted.
func TestMaxRetries(t *testing.T) {
	for _, tc := range []struct {
		plan string // the i-th /ingest is answered 429 when plan[i] is 'x'
		ok   bool   // on a budget of 3
	}{
		{"xxx", true},
		{"xxxx", false},
		{"xxx.xxx", true},
	} {
		t.Run(tc.plan, func(t *testing.T) {
			var calls atomic.Int64
			_, url := startServer(t, testPipeline(), func(h http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.URL.Path == "/ingest" {
						if i := calls.Add(1) - 1; i < int64(len(tc.plan)) && tc.plan[i] == 'x' {
							var req serve.IngestRequest
							_ = json.NewDecoder(r.Body).Decode(&req)
							n := len(req.Readings)
							w.WriteHeader(http.StatusTooManyRequests)
							_ = json.NewEncoder(w).Encode(serve.IngestResponse{Results: make([]serve.ReadingResult, n), Rejected: n, RetryAfterMS: 1})
							return
						}
					}
					h.ServeHTTP(w, r)
				})
			})
			rep, err := Run(Options{BaseURL: url, Sensors: 4, Total: 64, Batch: 16, Stream: "mixture", Seed: 1, MaxRetries: 3})
			if ok := err == nil && rep.Sent == 64; ok != tc.ok {
				t.Fatalf("want success %v, got %+v, %v", tc.ok, rep, err)
			}
		})
	}
}

// TestLoadAgreementSelector runs the load oracle against a server whose
// selector routes sensor-000 to ewma and sensor-001 to qn. A twin that
// ingested without the sensor id would judge those two sensors with the
// default kernelchain and disagree.
func TestLoadAgreementSelector(t *testing.T) {
	pcfg := testPipeline()
	pcfg.Selector = []serve.BackendRule{
		{Prefix: "sensor-000", Backend: detector.KindEWMA},
		{Prefix: "sensor-001", Backend: detector.KindQn},
	}
	srv, url := startServer(t, pcfg, nil)
	if _, err := Run(Options{BaseURL: url, Sensors: 6, Total: 3000, Batch: 48,
		Stream: "mixture", Seed: 99, Encoding: "binary", Subscribe: true}); err != nil {
		t.Fatal(err)
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	judged := map[detector.Kind]uint64{}
	for _, ss := range st.PerShard {
		for _, b := range ss.Backends {
			judged[b.Kind] += b.Arrivals
		}
	}
	if judged[detector.KindEWMA] != 500 || judged[detector.KindQn] != 500 {
		t.Fatalf("selector not live: backend arrivals %v, want 500 each for ewma and qn", judged)
	}
}
