package mdef

import (
	"testing"

	"odds/internal/stats"
	"odds/internal/window"
)

func TestDynTruthMatchesBruteForce(t *testing.T) {
	pts := bruteData(41, 1500, 0.45, 0.47)
	d := NewDynTruth(testParams, 1)
	for _, p := range pts {
		d.Add(p)
	}
	want := naiveBruteForce(pts, testParams)
	for i, p := range pts {
		if got := d.IsOutlier(p); got != want[i] {
			t.Fatalf("point %d (%v): dyn %v, naive %v", i, p, got, want[i])
		}
	}
}

func TestDynTruthSlidingMatchesBruteForce(t *testing.T) {
	r := stats.NewRand(43)
	const wcap = 400
	d := NewDynTruth(testParams, 1)
	var win []window.Point
	for i := 0; i < 3000; i++ {
		var p window.Point
		if r.Float64() < 0.01 {
			p = window.Point{0.45 + r.Float64()*0.05}
		} else {
			p = window.Point{0.2 + r.Float64()*0.2}
		}
		win = append(win, p)
		d.Add(p)
		if len(win) > wcap {
			if !d.Remove(win[0]) {
				t.Fatal("eviction failed")
			}
			win = win[1:]
		}
		if i%211 == 0 && len(win) == wcap {
			flags := naiveBruteForce(win, testParams)
			for j, q := range win {
				if got := d.IsOutlier(q); got != flags[j] {
					t.Fatalf("arrival %d point %d: dyn %v, naive %v", i, j, got, flags[j])
				}
			}
		}
	}
}

func TestDynTruthRemoveMissing(t *testing.T) {
	d := NewDynTruth(testParams, 1)
	d.Add(window.Point{0.3})
	if d.Remove(window.Point{0.4}) {
		t.Error("removed absent point")
	}
	if !d.Remove(window.Point{0.3}) {
		t.Error("failed to remove present point")
	}
	if d.Len() != 0 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestDynTruthEmptyEvaluate(t *testing.T) {
	d := NewDynTruth(testParams, 1)
	res := d.Evaluate(window.Point{0.5})
	if res.Outlier || res.MDEF != 0 {
		t.Errorf("empty truth evaluation: %+v", res)
	}
}

func TestDynTruthPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad params did not panic")
			}
		}()
		NewDynTruth(Params{}, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad dim did not panic")
			}
		}()
		NewDynTruth(testParams, 0)
	}()
}

func TestDynTruth2D(t *testing.T) {
	pts := holeData2D(47, 2500)
	prm := Params{R: 0.08, AlphaR: 0.02, KSigma: 3}
	d := NewDynTruth(prm, 2)
	for _, p := range pts {
		d.Add(p)
	}
	want := naiveBruteForce(pts, prm)
	for i, p := range pts {
		if got := d.IsOutlier(p); got != want[i] {
			t.Fatalf("2-d point %d: dyn %v, naive %v", i, got, want[i])
		}
	}
}

// TestDynTruthSteadyStateAllocs pins the exact MDEF slide (evict oldest +
// insert newest + the verdict, plus the full Evaluate) at zero allocations
// once every cell the input cycle touches has been seen: the occupancy
// map, the neighborhood index and the cell walk all run on scratch held by
// the DynTruth.
func TestDynTruthSteadyStateAllocs(t *testing.T) {
	for dim := 1; dim <= 3; dim++ {
		const wcap = 128
		r := stats.NewRand(int64(11 + dim))
		cycle := make([]window.Point, 512)
		for i := range cycle {
			p := make(window.Point, dim)
			for j := range p {
				p[j] = r.Float64()
			}
			cycle[i] = p
		}
		d := NewDynTruth(testParams, dim)
		pos := 0
		step := func() {
			if pos >= wcap && !d.Remove(cycle[(pos-wcap)%len(cycle)]) {
				panic("mdef: slide harness out of sync")
			}
			p := cycle[pos%len(cycle)]
			d.Add(p)
			pos++
			_ = d.IsOutlier(p)
			_ = d.Evaluate(p)
		}
		for i := 0; i < 4*len(cycle); i++ {
			step()
		}
		if avg := testing.AllocsPerRun(200, step); avg != 0 {
			t.Errorf("dim %d: steady-state slide allocates %v per op, want 0", dim, avg)
		}
	}
}
