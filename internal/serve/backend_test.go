package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"odds/internal/detector"
)

// backendTestConfig is testPipelineConfig with the default backend set and
// the non-default engines tuned small enough that every backend warms well
// inside an oracle-sized stream.
func backendTestConfig(kind detector.Kind, dim, wcap int, seed int64) PipelineConfig {
	pcfg := testPipelineConfig(DetectDistance, dim, wcap, seed)
	pcfg.Backend = kind
	pcfg.Backends = detector.Params{
		Qn:      detector.QnConfig{Eps: 0.05, Lag: 8, K: 3, MinN: 16},
		Coreset: detector.CoresetConfig{Size: 64, RebuildEvery: 8, WindowCount: wcap, MinN: 16},
		EWMA:    detector.EWMAConfig{Lambda: 0.2, K: 3, MinN: 8},
	}
	return pcfg
}

// hotBackendPipeline is hotPipeline generalized over the default backend:
// warm on a repeating cycle, pin whatever nondeterminism the backend has,
// and settle into a steady state where the measured loop is allocation-free.
//
// Per-backend regimes:
//   - kernelchain: the original harness — freeze the chain rng so the
//     skip-sampler adopts nothing and no model rebuilds fire.
//   - coreset: the cycle length equals the reservoir size, so after the
//     fill phase every arrival sits exactly on a kept point (d² = 0), no
//     admission draw happens, and the model never goes dirty again.
//   - qn: sketches are pre-grown (qnGrowTuples) and tuple counts grow with
//     log(εn), so steady-state insert/flush cycles reuse storage.
//   - ewma: O(1) arithmetic; nothing to pin.
func hotBackendPipeline(t testing.TB, kind detector.Kind) (*Pipeline, func()) {
	t.Helper()
	const wcap = 200
	pcfg := backendTestConfig(kind, 1, wcap, 3)
	cycleLen := 256
	if kind == detector.KindCoreset {
		cycleLen = pcfg.Backends.Coreset.Size
	}
	p, err := NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	cycle := make([][]float64, cycleLen)
	src := rand.New(rand.NewSource(11))
	for i := range cycle {
		cycle[i] = []float64{src.Float64()}
	}
	pos := 0
	step := func() {
		p.Ingest(cycle[pos%len(cycle)])
		pos++
	}
	for i := 0; i < 6*wcap+len(cycle); i++ {
		step()
	}
	if kind == detector.KindKernelChain {
		p.kc.SetSource(constSrc{v: int64(wcap - 1)})
	}
	for i := 0; i < 4*wcap; i++ {
		step()
	}
	return p, step
}

// TestIngestHotPathZeroAllocBackends extends the hot-path acceptance gate
// to every backend: whichever engine a sensor routes to, a steady-state
// per-reading Ingest — window slide, exact-index update, backend fold,
// verdict — performs zero allocations.
func TestIngestHotPathZeroAllocBackends(t *testing.T) {
	for _, kind := range detector.AllKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			p, step := hotBackendPipeline(t, kind)
			if avg := testing.AllocsPerRun(2000, step); avg != 0 {
				t.Fatalf("steady-state %s Ingest allocates %v per reading, want 0", kind, avg)
			}
			st := p.BackendStats()
			if len(st) != 1 || st[0].Kind != kind || !st[0].Warmed {
				t.Fatalf("harness vacuous: backend stats %+v", st)
			}
		})
	}
}

// BenchmarkPipelineIngestBackend races the per-reading ingest cost of the
// four backends under the shared steady-state harness (the benchmark's
// detector.<kind>.ingest_ns rows are the recorded figures). The allocs/op
// column guards the same contract TestIngestHotPathZeroAllocBackends pins.
func BenchmarkPipelineIngestBackend(b *testing.B) {
	for _, kind := range detector.AllKinds() {
		kind := kind
		b.Run(string(kind), func(b *testing.B) {
			_, step := hotBackendPipeline(b, kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// TestSelectorRouting pins per-sensor backend selection at the pipeline
// boundary: longest matching prefix wins, unmatched sensors (and the empty
// sensor id) use the default, and read-only queries route identically to
// ingests.
func TestSelectorRouting(t *testing.T) {
	pcfg := backendTestConfig(detector.KindKernelChain, 1, 60, 3)
	pcfg.Selector = []BackendRule{
		{Prefix: "a", Backend: detector.KindEWMA},
		{Prefix: "ab", Backend: detector.KindQn},
	}
	p, err := NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(sensor string, n int) {
		for i := 0; i < n; i++ {
			p.IngestSensor(sensor, []float64{float64(i) / 10})
		}
	}
	feed("ab-1", 2) // longest prefix: qn, not ewma
	feed("a-1", 9)  // ewma (past its MinN of 8)
	feed("zz", 5)   // no rule: default
	feed("", 1)     // empty id: default (no rule may have an empty prefix)

	got := map[detector.Kind]uint64{}
	st := p.BackendStats()
	for _, s := range st {
		got[s.Kind] = s.Arrivals
	}
	want := map[detector.Kind]uint64{
		detector.KindKernelChain: 6,
		detector.KindQn:          2,
		detector.KindEWMA:        9,
	}
	if len(st) != len(want) {
		t.Fatalf("armed %d backends, want %d (%+v)", len(st), len(want), st)
	}
	if st[0].Kind != detector.KindKernelChain {
		t.Fatalf("stats order: default backend first, got %s", st[0].Kind)
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("backend %s saw %d arrivals, want %d", k, got[k], n)
		}
	}
	// Query routing: the ewma engine is past warm-up, the default
	// kernelchain (6 of 60 window slots) is not — so the verdict's Warmed
	// bit reveals which backend served the query.
	if v := p.QueryOutlierSensor("a-1", []float64{0.5}); !v.Warmed {
		t.Fatal("query for ewma-routed sensor answered by an unwarmed backend")
	}
	if v := p.QueryOutlierSensor("zz", []float64{0.5}); v.Warmed {
		t.Fatal("query for unmatched sensor did not route to the (unwarmed) default")
	}
}

// TestServerBackendStats pins the wire surface: /stats reports the default
// backend, the selector table, and per-shard per-backend counter blocks
// whose arrivals sum to what was routed at each engine.
func TestServerBackendStats(t *testing.T) {
	pcfg := backendTestConfig(detector.KindKernelChain, 1, 60, 3)
	pcfg.Selector = []BackendRule{{Prefix: "ew-", Backend: detector.KindEWMA}}
	srv, err := New(Config{Shards: 2, Pipeline: pcfg, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	batch := make([]Reading, 0, 24)
	for i := 0; i < 16; i++ {
		batch = append(batch, Reading{Sensor: fmt.Sprintf("ew-%d", i), Value: []float64{0.5}})
	}
	for i := 0; i < 8; i++ {
		batch = append(batch, Reading{Sensor: fmt.Sprintf("kc-%d", i), Value: []float64{0.5}})
	}
	if _, rej, err := srv.Ingest(batch); err != nil || rej != 0 {
		t.Fatalf("ingest: rejected %d, err %v", rej, err)
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Backend != detector.KindKernelChain {
		t.Fatalf("stats backend %q", st.Backend)
	}
	if len(st.Selector) != 1 || st.Selector[0].Backend != detector.KindEWMA {
		t.Fatalf("stats selector %+v", st.Selector)
	}
	arrivals := map[detector.Kind]uint64{}
	for _, ss := range st.PerShard {
		if len(ss.Backends) != 2 || ss.Backends[0].Kind != detector.KindKernelChain {
			t.Fatalf("shard backend block %+v", ss.Backends)
		}
		for _, bs := range ss.Backends {
			arrivals[bs.Kind] += bs.Arrivals
		}
	}
	if arrivals[detector.KindEWMA] != 16 || arrivals[detector.KindKernelChain] != 8 {
		t.Fatalf("routed arrivals %+v, want ewma=16 kernelchain=8", arrivals)
	}
}

// TestPipelineSnapshotBackendsRoundTrip is the checkpoint/restore property
// per backend, with a selector arming a second engine so the multi-detector
// framing is exercised: restore at a cut point must re-snapshot to the same
// bytes and continue verdict-for-verdict identical to the uninterrupted
// pipeline on both routes.
func TestPipelineSnapshotBackendsRoundTrip(t *testing.T) {
	for _, kind := range detector.AllKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			other := detector.KindEWMA
			if kind == detector.KindEWMA {
				other = detector.KindQn
			}
			pcfg := backendTestConfig(kind, 2, 60, 9)
			pcfg.Selector = []BackendRule{{Prefix: "x", Backend: other}}
			full, err := NewPipeline(pcfg)
			if err != nil {
				t.Fatal(err)
			}
			cut, err := NewPipeline(pcfg)
			if err != nil {
				t.Fatal(err)
			}
			src := rand.New(rand.NewSource(41))
			sensors := []string{"x-1", "y-1", "x-2", "y-2"}
			vals := make([][]float64, 300)
			for i := range vals {
				vals[i] = []float64{src.Float64(), src.Float64()}
				if i%37 == 0 {
					vals[i][0] += 5 // the occasional honest outlier
				}
			}
			step := func(p *Pipeline, i int) Verdict {
				return p.IngestSensor(sensors[i%len(sensors)], vals[i])
			}
			for i := 0; i < 150; i++ {
				a := step(full, i)
				b := step(cut, i)
				if a != b {
					t.Fatalf("pre-cut divergence at %d: %+v vs %+v", i, a, b)
				}
			}
			snap, err := cut.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := RestorePipeline(pcfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			snap2, err := restored.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if string(snap) != string(snap2) {
				t.Fatal("re-snapshot of restored pipeline differs")
			}
			for i := 150; i < 300; i++ {
				a := step(full, i)
				b := step(restored, i)
				if a != b {
					t.Fatalf("post-restore divergence at %d: %+v vs %+v", i, a, b)
				}
			}
			fs, _ := full.Snapshot()
			rs, _ := restored.Snapshot()
			if string(fs) != string(rs) {
				t.Fatal("final snapshots diverged bytewise")
			}
		})
	}
}

// TestPipelineSnapshotBackendFailClosed pins the other half of the
// contract: a pipeline snapshot can never restore under a different
// backend arrangement — wrong engine, retuned engine, or a different
// selector table all refuse.
func TestPipelineSnapshotBackendFailClosed(t *testing.T) {
	pcfg := backendTestConfig(detector.KindQn, 1, 60, 9)
	p, err := NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	src := rand.New(rand.NewSource(5))
	for i := 0; i < 120; i++ {
		p.Ingest([]float64{src.Float64()})
	}
	snap, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	wrongKind := pcfg
	wrongKind.Backend = detector.KindEWMA
	if _, err := RestorePipeline(wrongKind, snap); !errors.Is(err, detector.ErrKindMismatch) {
		t.Fatalf("restore under a different engine: %v, want ErrKindMismatch", err)
	}

	retuned := pcfg
	retuned.Backends.Qn.K = 9
	if _, err := RestorePipeline(retuned, snap); !errors.Is(err, detector.ErrFingerprintMismatch) {
		t.Fatalf("restore under retuned engine: %v, want ErrFingerprintMismatch", err)
	}

	rerouted := pcfg
	rerouted.Selector = []BackendRule{{Prefix: "a", Backend: detector.KindEWMA}}
	if _, err := RestorePipeline(rerouted, snap); err == nil {
		t.Fatal("restore under a different selector table accepted")
	}

	if _, err := RestorePipeline(pcfg, snap); err != nil {
		t.Fatalf("restore under the original config: %v", err)
	}
}

// TestFingerprintCoversBackends pins the snapshot-file fingerprint's
// backend section: the default kind, every ARMED engine's tuning, and the
// selector table each gate restore, while tuning an engine nothing routes
// to leaves the fingerprint — and hence old snapshots — valid.
func TestFingerprintCoversBackends(t *testing.T) {
	base := backendTestConfig(detector.KindKernelChain, 1, 60, 3)
	base.Selector = []BackendRule{
		{Prefix: "a", Backend: detector.KindQn},
		{Prefix: "b", Backend: detector.KindCoreset},
		{Prefix: "c", Backend: detector.KindEWMA},
	}
	fp := string(fingerprint(4, base))

	mutations := map[string]func(*PipelineConfig){
		"default backend": func(c *PipelineConfig) { c.Backend = detector.KindEWMA },
		"qn tuning":       func(c *PipelineConfig) { c.Backends.Qn.K = 9 },
		"coreset tuning":  func(c *PipelineConfig) { c.Backends.Coreset.Size = 99 },
		"ewma tuning":     func(c *PipelineConfig) { c.Backends.EWMA.Lambda = 0.5 },
		"selector prefix": func(c *PipelineConfig) { c.Selector[0].Prefix = "aa" },
		"selector target": func(c *PipelineConfig) { c.Selector[0].Backend = detector.KindEWMA },
		"selector pruned": func(c *PipelineConfig) { c.Selector = c.Selector[:2] },
	}
	for name, mut := range mutations {
		cfg := base
		cfg.Selector = append([]BackendRule(nil), base.Selector...)
		mut(&cfg)
		if string(fingerprint(4, cfg)) == fp {
			t.Errorf("%s change left the fingerprint unchanged", name)
		}
	}

	// Unarmed engines are not fingerprinted: with no selector and the
	// kernelchain default, Q_n tuning is dead config and must not
	// invalidate snapshots.
	solo := backendTestConfig(detector.KindKernelChain, 1, 60, 3)
	soloFP := string(fingerprint(4, solo))
	solo.Backends.Qn.K = 9
	if string(fingerprint(4, solo)) != soloFP {
		t.Error("tuning an unarmed engine changed the fingerprint")
	}

	// A defaulted and an explicit spelling of the same tuning fingerprint
	// identically.
	expl := base
	expl.Backends = base.Backends.WithDefaults()
	if string(fingerprint(4, expl)) != fp {
		t.Error("defaults-filled Backends fingerprints differently from its zero-value spelling")
	}
}
