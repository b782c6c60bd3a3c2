// Micro-benchmarks for the complexity theorems and ablations for the
// design choices DESIGN.md calls out. The per-figure benchmarks (one per
// paper artifact) and the evaluation-harness speedup suite live in
// internal/experiments, which drives whole deployments and so imports
// this package.
//
//	go test -bench=. -benchmem . ./internal/experiments/
package odds

import (
	"fmt"
	"runtime"
	"testing"

	"odds/internal/distance"
	"odds/internal/kernel"
	"odds/internal/mdef"
	"odds/internal/sample"
	"odds/internal/stats"
	"odds/internal/stream"
	"odds/internal/varest"
	"odds/internal/window"
)

// --- Complexity-theorem micro-benchmarks --------------------------------

func bench1DModel(b *testing.B, n int) *kernel.Estimator {
	b.Helper()
	r := stats.NewRand(1)
	pts := make([]window.Point, n)
	for i := range pts {
		pts[i] = window.Point{r.Float64()}
	}
	e, err := kernel.New(pts, []float64{0.04}, 10000)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkRangeQuery1DFast measures the Theorem 2 fast path:
// O(log|R| + |R'|) per query.
func BenchmarkRangeQuery1DFast(b *testing.B) {
	e := bench1DModel(b, 500)
	p := window.Point{0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Count(p, 0.01)
	}
}

// BenchmarkRangeQuery2D measures the general O(d|R|) query.
func BenchmarkRangeQuery2D(b *testing.B) {
	r := stats.NewRand(2)
	pts := make([]window.Point, 500)
	for i := range pts {
		pts[i] = window.Point{r.Float64(), r.Float64()}
	}
	e, err := kernel.New(pts, []float64{0.04, 0.04}, 10000)
	if err != nil {
		b.Fatal(err)
	}
	p := window.Point{0.5, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Count(p, 0.01)
	}
}

// BenchmarkMDEFEvaluate measures the Theorem 4 cost: O(d|R|/2αr) without
// the cell cache. It holds one Evaluator across the loop, as every real
// caller does, so the scratch set-up is not timed.
func BenchmarkMDEFEvaluate(b *testing.B) {
	e := bench1DModel(b, 500)
	prm := mdef.Params{R: 0.08, AlphaR: 0.01, KSigma: 3}
	p := window.Point{0.5}
	var ev mdef.Evaluator
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Evaluate(e, p, prm)
	}
}

// BenchmarkMDEFEvaluateCached measures the same query through the cell
// cache (the per-arrival cost in steady state).
func BenchmarkMDEFEvaluateCached(b *testing.B) {
	e := bench1DModel(b, 500)
	c := mdef.NewCachedCounter(e, 0.01)
	prm := mdef.Params{R: 0.08, AlphaR: 0.01, KSigma: 3}
	p := window.Point{0.5}
	var ev mdef.Evaluator
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Evaluate(c, p, prm)
	}
}

func BenchmarkChainSamplePush(b *testing.B) {
	c := sample.NewChain(500, 10000, 1, stats.NewRand(3))
	src := stream.NewMixture(stream.DefaultMixture(), 1, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Push(src.Next())
	}
}

func BenchmarkVarianceSketchPush(b *testing.B) {
	const wcap = 10000
	e := varest.New(wcap, 0.2)
	src := stream.NewMixture(stream.DefaultMixture(), 1, 5)
	// Steady state is what the server runs in: a full window, the bucket
	// list at its working length, expiry shifts under way.
	for i := 0; i < 3*wcap; i++ {
		e.Push(src.Next()[0])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Push(src.Next()[0])
	}
}

func BenchmarkKernelModelRebuild(b *testing.B) {
	r := stats.NewRand(6)
	pts := make([]window.Point, 500)
	for i := range pts {
		pts[i] = window.Point{r.Float64()}
	}
	sig := []float64{0.06}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kernel.FromSample(pts, sig, 10000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectorObserve(b *testing.B) {
	det, err := NewDetector(DefaultConfig(1), DistanceParams{Radius: 0.01, Threshold: 45}, 7)
	if err != nil {
		b.Fatal(err)
	}
	src := NewMixtureSource(1, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Observe(src.Next())
	}
}

func BenchmarkBruteForceDGroundTruth(b *testing.B) {
	src := stream.NewMixture(stream.DefaultMixture(), 1, 9)
	pts := stream.Take(src, 10000)
	prm := distance.Params{Radius: 0.01, Threshold: 45}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distance.BruteForce(pts, prm)
	}
}

// --- Parallel harness ------------------------------------------------------

// parallelWorkerCounts are the worker settings the speedup benchmarks
// sweep: the serial baseline and the machine's parallelism. On a
// single-core host the pool cannot beat serial, so the sweep measures
// the parallel path's overhead (workers=4 oversubscribed) instead —
// which is the number that must stay small for the harness to be safe
// to enable by default.
func parallelWorkerCounts() []int {
	if p := runtime.GOMAXPROCS(0); p > 1 {
		return []int{1, p}
	}
	return []int{1, 4}
}

// BenchmarkParallelDeployment measures Deployment.RunParallel against
// Run on a 32-sensor D3 hierarchy; reports and message stats stay
// bit-identical to the serial engine.
func BenchmarkParallelDeployment(b *testing.B) {
	mk := func() *Deployment {
		d, err := NewDeployment(DeploymentConfig{
			Algorithm: D3,
			Sources:   benchSources(32),
			Branching: 4,
			Core:      Config{WindowCap: 2000, SampleSize: 200, Eps: 0.2, SampleFraction: 0.5, Dim: 1, RebuildEvery: 1},
			Dist:      DistanceParams{Radius: 0.01, Threshold: 10},
			Seed:      17,
		})
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	for _, workers := range parallelWorkerCounts() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d := mk()
				if workers == 1 {
					d.Run(3000)
				} else {
					d.RunParallel(3000, workers)
				}
			}
		})
	}
}

func benchSources(n int) []Source {
	out := make([]Source, n)
	for i := range out {
		out[i] = NewMixtureSource(1, int64(300+i))
	}
	return out
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationQuery1DFastPath quantifies the Theorem 2 remark: the
// sorted 1-d path versus the naive full scan.
func BenchmarkAblationQuery1DFastPath(b *testing.B) {
	e := bench1DModel(b, 2000)
	lo, hi := []float64{0.49}, []float64{0.51}
	b.Run("fast", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.ProbBox(lo, hi)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e.ProbBoxNaive(lo, hi)
		}
	})
}

// BenchmarkAblationChainSample compares maintaining the sample online
// against rebuilding it from a full window on demand.
func BenchmarkAblationChainSample(b *testing.B) {
	src := stream.NewMixture(stream.DefaultMixture(), 1, 10)
	b.Run("chain", func(b *testing.B) {
		c := sample.NewChain(500, 10000, 1, stats.NewRand(11))
		for i := 0; i < b.N; i++ {
			c.Push(src.Next())
		}
	})
	b.Run("resample-window", func(b *testing.B) {
		w := window.New(10000, 1)
		rng := stats.NewRand(12)
		for i := 0; i < 10000; i++ {
			w.Push(src.Next())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Push(src.Next())
			// Draw a fresh 500-point sample from the window.
			out := make([]window.Point, 500)
			for j := range out {
				out[j] = w.At(rng.Intn(w.Len()))
			}
		}
	})
}

// BenchmarkAblationVarianceSketch compares the EH sketch against exact
// recomputation over a full window per arrival.
func BenchmarkAblationVarianceSketch(b *testing.B) {
	src := stream.NewMixture(stream.DefaultMixture(), 1, 13)
	b.Run("sketch", func(b *testing.B) {
		e := varest.New(10000, 0.2)
		for i := 0; i < b.N; i++ {
			e.Push(src.Next()[0])
		}
	})
	b.Run("exact-window", func(b *testing.B) {
		w := window.New(10000, 1)
		for i := 0; i < 10000; i++ {
			w.Push(src.Next())
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Push(src.Next())
			var m stats.Moments
			w.Do(func(p window.Point) { m.Add(p[0]) })
			_ = m.StdDev()
		}
	})
}

// BenchmarkAblationJSGatedUpdates measures the Section 8.1 optimization:
// global-model messages with and without the JS gate on a drifting
// workload.
func BenchmarkAblationJSGatedUpdates(b *testing.B) {
	run := func(gate float64) float64 {
		srcs := make([]Source, 4)
		for i := range srcs {
			srcs[i] = NewShiftingSource([]float64{0.3, 0.5}, 0.05, 800, int64(20+i))
		}
		cfg := Config{WindowCap: 2000, SampleSize: 200, Eps: 0.2, SampleFraction: 0.5, Dim: 1, RebuildEvery: 1}
		dep, err := NewDeployment(DeploymentConfig{
			Algorithm: MGDD,
			Sources:   srcs,
			Branching: 2,
			Core:      cfg,
			MDEF:      MDEFParams{R: 0.08, AlphaR: 0.01, KSigma: 1},
			JSGate:    gate,
			Seed:      21,
		})
		if err != nil {
			b.Fatal(err)
		}
		dep.Run(3000)
		return float64(dep.Messages().ByKind["global"])
	}
	for i := 0; i < b.N; i++ {
		open := run(0)
		gated := run(0.05)
		b.ReportMetric(open, "global-open")
		b.ReportMetric(gated, "global-gated")
	}
}
