package distance

import (
	"fmt"
	"testing"
	"testing/quick"

	"odds/internal/stats"
	"odds/internal/stream"
	"odds/internal/window"
)

func TestDynIndexAddRemoveCount(t *testing.T) {
	d := NewDynIndex(0.05, 1)
	pts := randPts(1, 200, 1)
	for _, p := range pts {
		d.Add(p)
	}
	if d.Len() != 200 {
		t.Fatalf("Len = %d", d.Len())
	}
	for _, p := range pts[:40] {
		want := CountNaive(pts, p, 0.05)
		if got := d.Count(p, 0.05); got != want {
			t.Fatalf("Count = %d, naive %d", got, want)
		}
	}
	// Remove half and re-verify.
	for _, p := range pts[:100] {
		if !d.Remove(p) {
			t.Fatalf("Remove(%v) failed", p)
		}
	}
	rest := pts[100:]
	if d.Len() != 100 {
		t.Fatalf("Len after removals = %d", d.Len())
	}
	for _, p := range rest[:30] {
		want := CountNaive(rest, p, 0.05)
		if got := d.Count(p, 0.05); got != want {
			t.Fatalf("post-removal Count = %d, naive %d", got, want)
		}
	}
}

func TestDynIndexRemoveMissing(t *testing.T) {
	d := NewDynIndex(0.05, 1)
	d.Add(window.Point{0.5})
	if d.Remove(window.Point{0.6}) {
		t.Error("removed a point that was never added")
	}
	if !d.Remove(window.Point{0.5}) {
		t.Error("failed to remove present point")
	}
	if d.Remove(window.Point{0.5}) {
		t.Error("double remove succeeded")
	}
	if d.Len() != 0 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestDynIndexDuplicates(t *testing.T) {
	d := NewDynIndex(0.05, 1)
	p := window.Point{0.5}
	d.Add(p)
	d.Add(p.Clone())
	if got := d.Count(p, 0.05); got != 2 {
		t.Errorf("duplicate count = %d, want 2", got)
	}
	d.Remove(p)
	if got := d.Count(p, 0.05); got != 1 {
		t.Errorf("after one removal count = %d, want 1", got)
	}
}

func TestDynIndexSlidingWindowEquivalence(t *testing.T) {
	// Sliding a window over a stream must keep the dynamic index equal to
	// a fresh index over the same window.
	r := stats.NewRand(9)
	const wcap = 64
	d := NewDynIndex(0.05, 1)
	var win []window.Point
	for i := 0; i < 800; i++ {
		p := window.Point{r.Float64()}
		win = append(win, p)
		d.Add(p)
		if len(win) > wcap {
			d.Remove(win[0])
			win = win[1:]
		}
		if i%97 == 0 && len(win) > 0 {
			q := win[r.Intn(len(win))]
			want := CountNaive(win, q, 0.05)
			if got := d.Count(q, 0.05); got != want {
				t.Fatalf("at arrival %d: Count = %d, naive %d", i, got, want)
			}
		}
	}
}

func TestDynIndexIsOutlier(t *testing.T) {
	d := NewDynIndex(0.01, 1)
	for i := 0; i < 50; i++ {
		d.Add(window.Point{0.3})
	}
	d.Add(window.Point{0.9})
	prm := Params{Radius: 0.01, Threshold: 45}
	if d.IsOutlier(window.Point{0.3}, prm) {
		t.Error("dense point flagged")
	}
	if !d.IsOutlier(window.Point{0.9}, prm) {
		t.Error("isolated point not flagged")
	}
}

func TestDynIndexPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad cell":   func() { NewDynIndex(0, 1) },
		"bad dim":    func() { NewDynIndex(0.1, 0) },
		"add dim":    func() { NewDynIndex(0.1, 1).Add(window.Point{1, 2}) },
		"remove dim": func() { NewDynIndex(0.1, 1).Remove(window.Point{1, 2}) },
		"big radius": func() { NewDynIndex(0.1, 1).Count(window.Point{0.5}, 0.2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// dynSlideHarness returns a step function performing one steady-state
// window slide (evict oldest + insert newest + the two decision queries)
// over a repeating point cycle, pre-warmed so every grid cell the cycle
// touches already has its bucket and every bucket its peak capacity.
func dynSlideHarness(dim int) func() {
	const wcap = 128
	r := stats.NewRand(11)
	ring := make([]window.Point, 512)
	for i := range ring {
		p := make(window.Point, dim)
		for j := range p {
			p[j] = r.Float64()
		}
		ring[i] = p
	}
	d := NewDynIndex(0.05, dim)
	buf := make([]window.Point, wcap)
	pos, filled := 0, 0
	step := func() {
		p := ring[pos%len(ring)]
		if filled == wcap {
			if !d.Remove(buf[pos%wcap]) {
				panic("distance: slide harness out of sync")
			}
		} else {
			filled++
		}
		buf[pos%wcap] = p
		d.Add(p)
		pos++
		_ = d.Count(p, 0.05)
		_ = d.CountUpTo(p, 0.05, 10)
	}
	// One full cycle plus a window warms every cell the cycle will ever
	// touch, so measured iterations only clear-and-refill existing buckets.
	for i := 0; i < len(ring)+wcap; i++ {
		step()
	}
	return step
}

func TestDynIndexSteadyStateAllocs(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		step := dynSlideHarness(dim)
		if avg := testing.AllocsPerRun(200, step); avg != 0 {
			t.Errorf("dim %d: steady-state slide allocates %v per op, want 0", dim, avg)
		}
	}
}

// servingSlideHarness is the slide the serving pipeline performs per
// reading at the paper's defaults: |W| = 10⁴ over the synthetic mixture,
// r = 0.01, D = 45 (Remove + Add + IsOutlier). The mixture's mass sits in
// a few dozen cells of a few hundred points each, which the |W| = 128
// uniform harness (about six points a cell) never shows.
func servingSlideHarness() func() {
	const wcap = 10000
	prm := Params{Radius: 0.01, Threshold: 45}
	src := stream.NewMixture(stream.DefaultMixture(), 1, 11)
	cycle := make([]window.Point, 1<<16)
	for i := range cycle {
		cycle[i] = src.Next()
	}
	d := NewDynIndex(prm.Radius, 1)
	pos := 0
	step := func() {
		if pos >= wcap && !d.Remove(cycle[(pos-wcap)%len(cycle)]) {
			panic("distance: slide harness out of sync")
		}
		p := cycle[pos%len(cycle)]
		d.Add(p)
		pos++
		_ = d.IsOutlier(p, prm)
	}
	for i := 0; i < len(cycle)+wcap; i++ {
		step()
	}
	return step
}

// BenchmarkDynIndexSlide measures one steady-state window slide, at the
// small uniform shape and at the serving shape; its allocs/op column
// guards the persistent-bucket refill reuse.
func BenchmarkDynIndexSlide(b *testing.B) {
	run := func(name string, step func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
	for _, dim := range []int{1, 2} {
		run(fmt.Sprintf("dim=%d", dim), dynSlideHarness(dim))
	}
	run("serving/W=10000", servingSlideHarness())
}

func TestDynIndexMatchesStaticProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		pts := randPts(seed, n, 2)
		d := NewDynIndex(0.07, 2)
		for _, p := range pts {
			d.Add(p)
		}
		idx := NewIndex(pts, 0.07)
		for _, p := range pts {
			if d.Count(p, 0.07) != idx.Count(p, 0.07) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
