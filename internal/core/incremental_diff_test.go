package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"odds/internal/kernel"
	"odds/internal/oracle"
	"odds/internal/stats"
	"odds/internal/window"
)

// incrementalConfig derives the estimator configuration for one oracle
// scenario; RebuildEvery varies with the sub-seed so the differential also
// covers refreshes that batch several sample changes into one patch cycle.
func incrementalConfig(oc oracle.Config) Config {
	sample := oc.WindowCap / 4
	if sample < 8 {
		sample = 8
	}
	return Config{
		WindowCap:      oc.WindowCap,
		SampleSize:     sample,
		Eps:            0.2,
		SampleFraction: 0.5,
		Dim:            oc.Dim,
		RebuildEvery:   1 + int(oc.Seed%3),
	}
}

// runIncrementalDiff replays pts through an estimator and, at every
// arrival, checks its maintained model bit-for-bit against a from-scratch
// kernel.FromSample over the sample and sigmas the model was last
// refreshed from, scaled by the current effective window count. At
// restoreAt (when >= 0) the estimator additionally goes through the
// serve-style checkpoint round trip — estimator blob plus marshaled model
// snapshot — and the restored instance must keep matching. Returns "" on
// agreement, else a description of the first divergence.
func runIncrementalDiff(cfg Config, seed int64, pts []window.Point, restoreAt int) string {
	rng := rand.New(rand.NewSource(seed))
	e := NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), rng)

	// The reference inputs, captured at each refresh: the sample (copied,
	// in slot order) and the sketch's sigmas.
	var refPts []window.Point
	var refSigmas []float64
	var refreshes uint64
	lo := make([]float64, cfg.Dim)
	hi := make([]float64, cfg.Dim)
	for i, p := range pts {
		e.Observe(p)
		if i == restoreAt {
			blob, err := e.MarshalBinary()
			if err != nil {
				return fmt.Sprintf("step %d: marshal: %v", i, err)
			}
			model, modelWc, dirty, sinceBuild := e.ModelSnapshot()
			var restoredModel *kernel.Estimator
			if model != nil {
				mblob, err := model.MarshalBinary()
				if err != nil {
					return fmt.Sprintf("step %d: model marshal: %v", i, err)
				}
				restoredModel, err = kernel.UnmarshalEstimator(mblob, model.MaxSlots())
				if err != nil {
					return fmt.Sprintf("step %d: model unmarshal: %v", i, err)
				}
			}
			// The restored estimator continues the original's rng stream,
			// exactly as serve's counted-source replay does.
			restored, err := UnmarshalEstimator(blob, rng)
			if err != nil {
				return fmt.Sprintf("step %d: unmarshal: %v", i, err)
			}
			if err := restored.RestoreModelSnapshot(restoredModel, modelWc, dirty, sinceBuild); err != nil {
				return fmt.Sprintf("step %d: restore model: %v", i, err)
			}
			e, refreshes = restored, 0
		}
		m := e.Model()
		if full, patch := e.ModelBuildStats(); full+patch != refreshes {
			refreshes = full + patch
			refPts = refPts[:0]
			for _, sp := range e.SamplePoints() {
				refPts = append(refPts, sp.Clone())
			}
			refSigmas = e.StdDevs()
		}
		if m == nil {
			if len(e.SamplePoints()) > 0 {
				return fmt.Sprintf("step %d: no model over a non-empty sample", i)
			}
			continue
		}
		ref, err := kernel.FromSample(refPts, refSigmas, e.EffectiveWindowCount())
		if err != nil {
			return fmt.Sprintf("step %d: reference FromSample: %v", i, err)
		}
		if m.SampleSize() != ref.SampleSize() {
			return fmt.Sprintf("step %d: sample size %d, want %d", i, m.SampleSize(), ref.SampleSize())
		}
		w := 0.02 + 0.2*float64(i%7)/7
		for d := range lo {
			lo[d], hi[d] = p[d]-w, p[d]+w
		}
		checks := []struct {
			name      string
			want, got float64
		}{
			{"Density", ref.Density(p), m.Density(p)},
			{"ProbBox", ref.ProbBox(lo, hi), m.ProbBox(lo, hi)},
			{"ProbBoxNaive", ref.ProbBoxNaive(lo, hi), m.ProbBoxNaive(lo, hi)},
			{"CountBox", ref.CountBox(lo, hi), m.CountBox(lo, hi)},
			{"Prob", ref.Prob(p, w), e.Model().Prob(p, w)},
		}
		for _, c := range checks {
			if math.Float64bits(c.got) != math.Float64bits(c.want) {
				return fmt.Sprintf("step %d: %s = %v, want %v", i, c.name, c.got, c.want)
			}
		}
	}
	return ""
}

// TestIncrementalModelDifferential is the core-layer differential oracle:
// along random sliding-window histories the estimator's maintained model
// must agree bit-for-bit with a from-scratch build at every arrival,
// including across a checkpoint/restore of the maintained model. Failures are ddmin-shrunk to a minimal reproducer.
func TestIncrementalModelDifferential(t *testing.T) {
	n := 8
	if testing.Short() {
		n = 3
	}
	for _, oc := range oracle.Configs(n, 0x1DC5) {
		oc := oc
		t.Run(oc.Name(), func(t *testing.T) {
			cfg := incrementalConfig(oc)
			src := oc.NewStream()
			pts := make([]window.Point, oc.Steps)
			for i := range pts {
				pts[i] = src.Next()
			}
			fails := func(sub []window.Point) bool {
				return runIncrementalDiff(cfg, oc.Seed, sub, len(sub)/2) != ""
			}
			if msg := runIncrementalDiff(cfg, oc.Seed, pts, len(pts)/2); msg != "" {
				minimal := oracle.ShrinkSlice(pts, fails)
				t.Fatalf("incremental model diverged: %s\nminimal reproducer (%d pts):\n%s",
					msg, len(minimal), oracle.Format(minimal))
			}
		})
	}
}

// TestWarmupRescaleZeroAlloc pins the warm-up rescale fast path: when only
// the effective window count drifts (no sample change), a maintained model
// rescales in place — same model pointer, which CachedModel also reports,
// and zero allocations per refresh.
func TestWarmupRescaleZeroAlloc(t *testing.T) {
	cfg := Config{
		WindowCap:      100000,
		SampleSize:     50,
		Eps:            0.2,
		SampleFraction: 0.5,
		Dim:            2,
		RebuildEvery:   1,
	}
	e := NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), stats.NewRand(11))
	rng := stats.NewRand(12)
	for i := 0; i < 300; i++ {
		e.Observe(window.Point{rng.Float64(), rng.Float64()})
	}
	m := e.Model()
	if m == nil {
		t.Fatal("no model after 300 arrivals")
	}
	allocs := testing.AllocsPerRun(100, func() {
		// Well inside warm-up (300 of 100000 arrivals), every arrival moves
		// the effective window count; advance it without touching the
		// sample, exactly like an arrival the chain sample skips.
		e.arrivals++
		if e.Model() != m {
			t.Fatal("wcount-only rescale replaced the maintained model")
		}
		if e.CachedModel() != m {
			t.Fatal("CachedModel disagrees with Model after a rescale")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm-up rescale allocates %v times per refresh, want 0", allocs)
	}
}

// TestIncrementalSteadyStateBuildCounts is the guardrail on the full-
// rebuild counter: a long steady-state run must build the kernel model
// from scratch exactly once, with every later refresh a patch.
func TestIncrementalSteadyStateBuildCounts(t *testing.T) {
	cfg := testConfig(2)
	e := NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), stats.NewRand(21))
	rng := stats.NewRand(22)
	steps := 10000
	if testing.Short() {
		steps = 2500
	}
	var first *kernel.Estimator
	for i := 0; i < steps; i++ {
		e.Observe(window.Point{rng.Float64(), rng.Float64()})
		m := e.Model()
		if first == nil {
			first = m
		} else if m != first {
			t.Fatalf("step %d: model pointer changed — maintained model was rebuilt", i)
		}
	}
	full, patch := e.ModelBuildStats()
	if full != 1 {
		t.Fatalf("fullBuilds = %d over %d arrivals, want exactly 1", full, steps)
	}
	if patch == 0 {
		t.Fatal("patchBuilds = 0: refreshes never took the patch path")
	}
	// The full build is the model's first maintenance cycle.
	st := first.MaintainStats()
	if st.Patches != full+patch {
		t.Fatalf("kernel maintenance cycles %d != estimator builds %d full + %d patch", st.Patches, full, patch)
	}
}
