package kernel

import (
	"fmt"
	"testing"

	"odds/internal/stats"
	"odds/internal/window"
)

// benchModel builds a d-dimensional model over n uniform centers with a
// fixed 0.05 bandwidth per dimension — wide enough that a centered
// selective box touches ~12% of the centers, so the pruned path has real
// work to skip.
func benchModel(b *testing.B, d, n int) *Estimator {
	b.Helper()
	r := stats.NewRand(int64(100*d + n))
	pts := make([]window.Point, n)
	for i := range pts {
		p := make(window.Point, d)
		for j := range p {
			p[j] = r.Float64()
		}
		pts[i] = p
	}
	bw := make([]float64, d)
	for i := range bw {
		bw[i] = 0.05
	}
	e, err := New(pts, bw, 10000)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// benchBoxes returns the selective (tight box around the domain center)
// and non-selective (nearly the whole domain) query boxes for dimension d.
func benchBoxes(d int) (selLo, selHi, allLo, allHi []float64) {
	selLo, selHi = make([]float64, d), make([]float64, d)
	allLo, allHi = make([]float64, d), make([]float64, d)
	for i := 0; i < d; i++ {
		selLo[i], selHi[i] = 0.49, 0.51
		allLo[i], allHi[i] = 0.02, 0.98
	}
	return
}

// BenchmarkKernelQuery is the query-engine suite whose numbers land in
// BENCH_KERNEL.json: box-probability queries across dimensionality and
// sample size, for a selective box (pruning pays) and a non-selective box
// (the fallback full scan must not regress).
func BenchmarkKernelQuery(b *testing.B) {
	for _, d := range []int{1, 2, 3} {
		for _, n := range []int{50, 500} {
			e := benchModel(b, d, n)
			selLo, selHi, allLo, allHi := benchBoxes(d)
			b.Run(fmt.Sprintf("d=%d/R=%d/selective", d, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e.ProbBox(selLo, selHi)
				}
			})
			b.Run(fmt.Sprintf("d=%d/R=%d/non-selective", d, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e.ProbBox(allLo, allHi)
				}
			})
		}
	}
}

// BenchmarkKernelProb measures the centered-box entry point most detector
// hot loops use (Count = Prob·|W|), including its allocation behavior.
func BenchmarkKernelProb(b *testing.B) {
	for _, d := range []int{1, 2, 3} {
		e := benchModel(b, d, 500)
		p := make(window.Point, d)
		for i := range p {
			p[i] = 0.5
		}
		b.Run(fmt.Sprintf("d=%d/R=500", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e.Prob(p, 0.01)
			}
		})
	}
}

// BenchmarkMaintainCycle measures one incremental maintenance cycle —
// BeginMaintain, `changed` slot replacements, FinishMaintain with fresh
// bandwidths — on a steady-state maintained estimator. These numbers land
// in BENCH_REBUILD.json next to the from-scratch rebuild they replace.
func BenchmarkMaintainCycle(b *testing.B) {
	const d = 2
	for _, n := range []int{50, 500} {
		for _, changed := range []int{1, 4} {
			b.Run(fmt.Sprintf("R=%d/changed=%d", n, changed), func(b *testing.B) {
				r := stats.NewRand(int64(10*n + changed))
				pts := make([]window.Point, n)
				slots := make([]int, n)
				for i := range pts {
					p := make(window.Point, d)
					for j := range p {
						p[j] = r.Float64()
					}
					pts[i] = p
					slots[i] = i
				}
				bw := []float64{0.05, 0.05}
				m, err := NewMaintained(pts, slots, n, bw, 10000)
				if err != nil {
					b.Fatal(err)
				}
				pool := make([]window.Point, 1024)
				for i := range pool {
					pool[i] = window.Point{r.Float64(), r.Float64()}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.BeginMaintain()
					for j := 0; j < changed; j++ {
						m.SetSlot((i*changed+j)*2654435761%n, pool[(i*changed+j)%len(pool)])
					}
					if err := m.FinishMaintain(bw, 10000); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFromScratchRebuild is the cost BenchmarkMaintainCycle avoids:
// a full New over the same sample, once per refresh. New lays out an empty
// model in one patch cycle, so this is also a model's first-refresh cost.
func BenchmarkFromScratchRebuild(b *testing.B) {
	const d = 2
	for _, n := range []int{50, 500} {
		b.Run(fmt.Sprintf("R=%d", n), func(b *testing.B) {
			r := stats.NewRand(int64(n))
			pts := make([]window.Point, n)
			for i := range pts {
				p := make(window.Point, d)
				for j := range p {
					p[j] = r.Float64()
				}
				pts[i] = p
			}
			bw := []float64{0.05, 0.05}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := New(pts, bw, 10000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
