package serve

import (
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// loadConfig is the server configuration the integration tests run the
// load generator against: small window so the estimate path warms up and
// models rebuild well within a few thousand readings.
func loadConfig(kind DetectorKind, shards int, snapshotPath string) Config {
	return Config{
		Shards:       shards,
		Pipeline:     testPipelineConfig(kind, 1, 150, 42),
		QueueDepth:   32,
		SnapshotPath: snapshotPath,
	}
}

func runLoadAgainst(t *testing.T, url string, total int) *LoadReport {
	t.Helper()
	return runLoadOpts(t, url, total, "", false)
}

func runLoadOpts(t *testing.T, url string, total int, encoding string, subscribe bool) *LoadReport {
	t.Helper()
	opts := NewLoadOptions(url)
	opts.Sensors = 6
	opts.Total = total
	opts.Batch = 48
	opts.Seed = 99
	opts.Encoding = encoding
	opts.Subscribe = subscribe
	rep, err := RunLoad(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Disagreements > 0 {
		t.Fatalf("%d verdict disagreements; first: %s", rep.Disagreements, rep.FirstDiff)
	}
	if rep.StreamDisagreements > 0 {
		t.Fatalf("%d stream disagreements; first: %s", rep.StreamDisagreements, rep.StreamFirstDiff)
	}
	return rep
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
			snap := t.TempDir() + "/snap"
			srv, err := New(loadConfig(DetectDistance, shards, snap))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())

			// Phase 1: partial run, fully verified.
			rep := runLoadAgainst(t, ts.URL, 2500)
			if rep.Sent != 2500 || rep.CaughtUp != 0 {
				t.Fatalf("phase 1: sent %d caught up %d", rep.Sent, rep.CaughtUp)
			}

			// Checkpoint, then push more load the crash will lose: the
			// snapshot on disk is now older than the server's state.
			if err := srv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			runLoadAgainst(t, ts.URL, 4000)

			// Kill: no final checkpoint, queued work dropped.
			srv.Abort()
			ts.Close()

			// Restart from the snapshot. Arrivals rewind to the checkpoint
			// cut (2500 total); the same seeded run re-sends the lost tail
			// and verifies the re-served verdicts against its twin.
			srv2, err := New(loadConfig(DetectDistance, shards, snap))
			if err != nil {
				t.Fatal(err)
			}
			ts2 := httptest.NewServer(srv2.Handler())
			defer ts2.Close()

			st, err := srv2.Stats()
			if err != nil {
				t.Fatal(err)
			}
			var arrivals uint64
			for _, ss := range st.PerShard {
				arrivals += ss.Arrivals
			}
			if arrivals != 2500 {
				t.Fatalf("restored arrivals %d, want checkpoint cut 2500", arrivals)
			}

			rep = runLoadAgainst(t, ts2.URL, 6000)
			if rep.CaughtUp != 2500 || rep.Sent != 3500 {
				t.Fatalf("post-restore: caught up %d sent %d, want 2500/3500", rep.CaughtUp, rep.Sent)
			}
			if err := srv2.Close(); err != nil {
				t.Fatal(err)
			}

			// Graceful close wrote a final checkpoint at the full stream.
			srv3, err := New(loadConfig(DetectDistance, shards, snap))
			if err != nil {
				t.Fatal(err)
			}
			defer srv3.Close()
			st, err = srv3.Stats()
			if err != nil {
				t.Fatal(err)
			}
			arrivals = 0
			for _, ss := range st.PerShard {
				arrivals += ss.Arrivals
			}
			if arrivals != 6000 {
				t.Fatalf("final checkpoint arrivals %d, want 6000", arrivals)
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
			snap := t.TempDir() + "/snap"
			srv, err := New(loadConfig(DetectDistance, shards, snap))
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())

			// Phase 1: binary client + live subscribe stream, fully verified.
			rep := runLoadOpts(t, ts.URL, 2500, "binary", true)
			if rep.Sent != 2500 || rep.CaughtUp != 0 {
				t.Fatalf("phase 1: sent %d caught up %d", rep.Sent, rep.CaughtUp)
			}
			if rep.StreamEvents+int(rep.StreamDropped) != 2500 {
				t.Fatalf("phase 1 stream: %d events + %d dropped, want 2500 total",
					rep.StreamEvents, rep.StreamDropped)
			}

			// Checkpoint, push load the crash will lose, then kill.
			if err := srv.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			runLoadOpts(t, ts.URL, 4000, "binary", false)
			srv.Abort()
			ts.Close()

			// Restore: the binary client re-derives the wire fingerprint
			// from /stats, catches its twin up, re-sends the lost tail, and
			// the fresh stream verifies the re-served verdicts.
			srv2, err := New(loadConfig(DetectDistance, shards, snap))
			if err != nil {
				t.Fatal(err)
			}
			defer srv2.Close()
			ts2 := httptest.NewServer(srv2.Handler())
			defer ts2.Close()
			rep = runLoadOpts(t, ts2.URL, 6000, "binary", true)
			if rep.CaughtUp != 2500 || rep.Sent != 3500 {
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
	snap := t.TempDir() + "/snap"
	srv, err := New(loadConfig(DetectDistance, 2, snap))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	runLoadAgainst(t, ts.URL, 2000)
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// A long-lived subscriber is mid-stream when the server crashes.
	ls, err := openLoadStream(Client{HTTP: http.DefaultClient, Base: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	runLoadAgainst(t, ts.URL, 3000) // load the crash will lose
	srv.Abort()
	ts.Close()
	if _, _, serr := ls.stop(); serr != nil {
		t.Fatalf("crash did not end the stream cleanly: %v", serr)
	}

	// The subscriber reconnects to the restored server; the same seeded
	// run re-sends the lost tail and the new stream verifies it.
	srv2, err := New(loadConfig(DetectDistance, 2, snap))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	rep := runLoadOpts(t, ts2.URL, 3000, "binary", true)
	if rep.CaughtUp != 2000 || rep.Sent != 1000 {
		t.Fatalf("post-restore: caught up %d sent %d, want 2000/1000", rep.CaughtUp, rep.Sent)
	}
	if rep.StreamEvents+int(rep.StreamDropped) != 1000 {
		t.Fatalf("post-restore stream: %d events + %d dropped, want 1000", rep.StreamEvents, rep.StreamDropped)
	}
}

// TestLoadAgreementMDEF runs the same oracle with the MDEF detector on a
// couple of shards — smaller because DynTruth is the slow exact path.
func TestLoadAgreementMDEF(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end load run")
	}
	snap := t.TempDir() + "/snap"
	srv, err := New(loadConfig(DetectMDEF, 2, snap))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	runLoadAgainst(t, ts.URL, 1200)
	if err := srv.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	srv.Abort()
	ts.Close()

	srv2, err := New(loadConfig(DetectMDEF, 2, snap))
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	rep := runLoadAgainst(t, ts2.URL, 2400)
	if rep.CaughtUp != 1200 {
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
	cfg := loadConfig(DetectDistance, 2, snap)
	cfg.SnapshotEvery = 2 * time.Millisecond
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	runLoadAgainst(t, ts.URL, 3000)
	// Let at least one periodic checkpoint land, then crash.
	time.Sleep(20 * time.Millisecond)
	srv.Abort()
	ts.Close()
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("no periodic snapshot written: %v", err)
	}

	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	rep := runLoadAgainst(t, ts2.URL, 5000)
	if rep.CaughtUp == 0 {
		t.Fatal("restore recovered nothing from the periodic snapshot")
	}
}

// TestRequeue pins RunLoad's advance step on its own: after a round of n
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
				// The scan in RunLoad compacts rejected readings forward.
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
