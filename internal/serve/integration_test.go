package serve_test

// The serving tier's end-to-end acceptance tests: a load run through
// internal/twin against a real server, across checkpoint, kill and
// restore. They live in the external test package because twin imports
// serve.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"odds/internal/serve"
	"odds/internal/twin"
)

// runLoad runs the seeded stream's first total readings against url; any
// disagreement with the twin fails the test.
func runLoad(t *testing.T, url string, total int, wire string, subscribe bool) *twin.Report {
	t.Helper()
	rep, err := twin.Run(twin.Options{
		BaseURL: url, Sensors: 6, Total: total, Batch: 48, Stream: "mixture", Seed: 99,
		Encoding: wire, Subscribe: subscribe,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// start builds a server and serves it on a loopback listener; both close
// at the end of the test.
func start(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// arrivals sums a server's per-shard arrival counts.
func arrivals(t *testing.T, srv *serve.Server) (n uint64) {
	t.Helper()
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, ss := range st.PerShard {
		n += ss.Arrivals
	}
	return n
}

// crashRestore is the story the load tests share: a fully verified run of
// the first readings, a checkpoint, load up to lost that the crash will
// lose (with a subscriber watching, whose stream must end cleanly when
// the server dies), an Abort — no final checkpoint — and a restart from
// the snapshot, whose arrivals must have rewound to the checkpoint cut.
// It returns the restored server and its URL.
func crashRestore(t *testing.T, cfg serve.Config, first, lost int, wire string, subscribe bool) (*serve.Server, string) {
	t.Helper()
	srv, ts := start(t, cfg)
	runLoad(t, ts.URL, first, wire, subscribe)
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sub, err := twin.OpenStream(serve.Client{HTTP: http.DefaultClient, Base: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	runLoad(t, ts.URL, lost, wire, false)
	srv.Abort()
	ts.Close()
	if err := sub.Close(); err != nil {
		t.Fatalf("crash did not end the stream cleanly: %v", err)
	}
	srv2, ts2 := start(t, cfg)
	if n := arrivals(t, srv2); n != uint64(first) {
		t.Fatalf("restored arrivals %d, want checkpoint cut %d", n, first)
	}
	return srv2, ts2.URL
}

// TestLoadAgreement is the acceptance criterion: the load generator's
// verdict-agreement check passes — every served verdict bit-identical to
// the in-process twin — at shards ∈ {1, 4, NumCPU}, including after a
// mid-run kill + restore from snapshot.
func TestLoadAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end load run")
	}
	shardCounts := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		shardCounts = append(shardCounts, n)
	}
	for _, shards := range shardCounts {
		shards := shards
		t.Run("shards-"+strconv.Itoa(shards), func(t *testing.T) {
			t.Parallel()
			cfg := serve.LoadConfig(serve.DetectDistance, shards, t.TempDir()+"/snap")
			srv, url := crashRestore(t, cfg, 2500, 4000, "json", false)
			// The same seeded run re-sends the lost tail and checks the
			// re-served verdicts against its twin.
			if rep := runLoad(t, url, 6000, "json", false); rep.CaughtUp != 2500 || rep.Sent != 3500 {
				t.Fatalf("post-restore: caught up %d sent %d, want 2500/3500", rep.CaughtUp, rep.Sent)
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			// Graceful close wrote a final checkpoint at the full stream.
			srv3, err := serve.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv3.Close()
			if n := arrivals(t, srv3); n != 6000 {
				t.Fatalf("final checkpoint arrivals %d, want 6000", n)
			}
		})
	}
}

// TestLoadAgreementBinary is the wire-protocol acceptance oracle: the
// identical seeded run through the ODWP binary client — with the
// subscribe-stream oracle attached — produces verdicts bit-identical to
// the in-process twin, including across a kill + restore from snapshot.
// Combined with TestLoadAgreement (the JSON client over the same seeded
// stream), this pins JSON, binary, and push-stream delivery to the same
// verdict sequence.
func TestLoadAgreementBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end load run")
	}
	for _, shards := range []int{1, 4} {
		shards := shards
		t.Run("shards-"+strconv.Itoa(shards), func(t *testing.T) {
			t.Parallel()
			cfg := serve.LoadConfig(serve.DetectDistance, shards, t.TempDir()+"/snap")
			_, url := crashRestore(t, cfg, 2500, 4000, "binary", true)
			// The binary client re-derives the wire fingerprint from /stats,
			// catches its twin up, re-sends the lost tail, and the fresh
			// stream verifies the re-served verdicts.
			if rep := runLoad(t, url, 6000, "binary", true); rep.CaughtUp != 2500 || rep.Sent != 3500 {
				t.Fatalf("post-restore: caught up %d sent %d, want 2500/3500", rep.CaughtUp, rep.Sent)
			}
		})
	}
}

// TestSubscribeAcrossRestore pins the stream lifecycle across a crash: an
// open stream ends cleanly (EOF after a final flush) when the server
// dies, and a reconnect to the restored server delivers the re-served
// tail bit-identical to the twin.
func TestSubscribeAcrossRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end load run")
	}
	_, url := crashRestore(t, serve.LoadConfig(serve.DetectDistance, 2, t.TempDir()+"/snap"), 2000, 3000, "json", false)
	if rep := runLoad(t, url, 3000, "binary", true); rep.CaughtUp != 2000 || rep.Sent != 1000 {
		t.Fatalf("post-restore: caught up %d sent %d, want 2000/1000", rep.CaughtUp, rep.Sent)
	}
}

// TestLoadAgreementMDEF runs the same oracle with the MDEF detector on a
// couple of shards — smaller because DynTruth is the slow exact path.
func TestLoadAgreementMDEF(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end load run")
	}
	_, url := crashRestore(t, serve.LoadConfig(serve.DetectMDEF, 2, t.TempDir()+"/snap"), 1200, 1800, "json", false)
	if rep := runLoad(t, url, 2400, "json", false); rep.CaughtUp != 1200 {
		t.Fatalf("caught up %d, want 1200", rep.CaughtUp)
	}
}

// TestPeriodicCheckpointRecovery drives load while the background
// checkpoint loop runs, aborts without a clean shutdown, and verifies the
// server restores from whatever periodic snapshot last landed and that a
// catch-up run still fully agrees.
func TestPeriodicCheckpointRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end load run")
	}
	snap := t.TempDir() + "/snap"
	cfg := serve.LoadConfig(serve.DetectDistance, 2, snap)
	cfg.SnapshotEvery = 2 * time.Millisecond
	srv, ts := start(t, cfg)
	runLoad(t, ts.URL, 3000, "json", false)
	// Let at least one periodic checkpoint land, then crash.
	time.Sleep(20 * time.Millisecond)
	srv.Abort()
	ts.Close()
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("no periodic snapshot written: %v", err)
	}
	_, ts2 := start(t, cfg)
	if rep := runLoad(t, ts2.URL, 5000, "json", false); rep.CaughtUp == 0 {
		t.Fatal("restore recovered nothing from the periodic snapshot")
	}
}
