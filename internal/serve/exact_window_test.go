package serve

import (
	"math"
	"math/rand"
	"testing"

	"odds/internal/distance"
	"odds/internal/mdef"
	"odds/internal/window"
)

// TestExactWindowQuantisedStream is the regression test for equal window
// points corrupting the exact index: on a stream rounded to a 0.005 grid
// (so a |W| = 200 window is full of duplicates) every Exact verdict must
// equal a naive recount over the true window, and the index must hold
// exactly the window's points after every ingest — across a
// snapshot/restore and a shrinkWindow. With by-reference buckets Remove
// could drop the wrong one of two equal slots, leaving a reference to a
// slot about to be overwritten and the index growing without bound.
func TestExactWindowQuantisedStream(t *testing.T) {
	const wcap = 200
	for _, tc := range []struct {
		kind  DetectorKind
		steps int // the mdef recount is a BruteForce over the window
	}{{DetectDistance, 20000}, {DetectMDEF, 3000}} {
		t.Run(string(tc.kind), func(t *testing.T) {
			pcfg := testPipelineConfig(tc.kind, 1, wcap, 7)
			p, err := NewPipeline(pcfg)
			if err != nil {
				t.Fatal(err)
			}
			naive := func(win []window.Point) bool {
				if tc.kind == DetectMDEF {
					return mdef.BruteForce(win, pcfg.MDEF)[len(win)-1]
				}
				n := distance.CountNaive(win, win[len(win)-1], pcfg.Distance.Radius)
				return float64(n) < pcfg.Distance.Threshold
			}
			indexed := func() int {
				if tc.kind == DetectMDEF {
					return p.truth.Len()
				}
				return p.dyn.Len()
			}
			rng := rand.New(rand.NewSource(3))
			var win []window.Point
			mismatches := 0
			for i := 1; i <= tc.steps; i++ {
				x := 0.5 + 0.08*rng.NormFloat64()
				if rng.Intn(20) == 0 {
					x = rng.Float64()
				}
				v := window.Point{math.Round(x/0.005) * 0.005}
				if win = append(win, v); len(win) > wcap {
					win = win[1:]
				}
				if got, want := p.Ingest(v).Exact, naive(win); got != want {
					if mismatches++; mismatches <= 3 {
						t.Errorf("reading %d (%v): Exact = %v, naive recount %v", i, v, got, want)
					}
				}
				if indexed() != p.count || p.count != len(win) {
					t.Fatalf("reading %d: index holds %d points, pipeline counts %d, window has %d",
						i, indexed(), p.count, len(win))
				}
				switch i {
				case tc.steps / 3:
					blob, err := p.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if p, err = RestorePipeline(pcfg, blob); err != nil {
						t.Fatal(err)
					}
				case 2 * tc.steps / 3:
					p.shrinkWindow(wcap / 4)
					win = win[len(win)-wcap/4:]
				}
			}
			if mismatches > 0 {
				t.Errorf("%d of %d Exact verdicts differ from the naive recount", mismatches, tc.steps)
			}
		})
	}
}
