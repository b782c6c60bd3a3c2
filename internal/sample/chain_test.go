package sample

import (
	"math"
	"testing"
	"testing/quick"

	"odds/internal/stats"
	"odds/internal/window"
)

func pt(x float64) window.Point { return window.Point{x} }

func TestNewChainPanics(t *testing.T) {
	rng := stats.NewRand(1)
	cases := []struct {
		name string
		fn   func()
	}{
		{"k=0", func() { NewChain(0, 10, 1, rng) }},
		{"wcap=0", func() { NewChain(1, 0, 1, rng) }},
		{"dim=0", func() { NewChain(1, 10, 0, rng) }},
		{"nil rng", func() { NewChain(1, 10, 1, nil) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.fn()
		}()
	}
}

func TestChainDimMismatchPanics(t *testing.T) {
	c := NewChain(2, 10, 2, stats.NewRand(1))
	defer func() {
		if recover() == nil {
			t.Error("dim mismatch did not panic")
		}
	}()
	c.Push(pt(1))
}

func TestChainFirstArrivalAlwaysIncluded(t *testing.T) {
	c := NewChain(4, 100, 1, stats.NewRand(2))
	if !c.Push(pt(0.5)) {
		t.Error("first arrival must be included (prob 1/1)")
	}
	pts := c.Points()
	if len(pts) != 4 {
		t.Fatalf("Points len = %d, want 4", len(pts))
	}
	for _, p := range pts {
		if p[0] != 0.5 {
			t.Errorf("slot holds %v, want 0.5", p[0])
		}
	}
}

// Every slot's sample must always lie inside the current window.
func TestChainSampleAlwaysInWindow(t *testing.T) {
	const wcap = 50
	c := NewChain(8, wcap, 1, stats.NewRand(3))
	for i := 1; i <= 2000; i++ {
		c.Push(pt(float64(i)))
		lo := float64(i - wcap + 1)
		for _, p := range c.Points() {
			if p[0] < lo || p[0] > float64(i) {
				t.Fatalf("at arrival %d sample %v outside window [%v,%v]", i, p[0], lo, float64(i))
			}
		}
	}
}

// The sample should be (approximately) uniform over the window: feed a
// long stream, snapshot the sampled positions repeatedly, and check the
// age distribution of sampled items is not biased toward either end.
func TestChainUniformity(t *testing.T) {
	// A single chain's sample persists for many arrivals, so consecutive
	// observations are heavily autocorrelated; many slots and a long run
	// are needed for a tight bound on the stationary age distribution.
	const (
		wcap  = 200
		k     = 64
		iters = 40000
	)
	c := NewChain(k, wcap, 1, stats.NewRand(4))
	var ages stats.Moments
	arrival := 0
	for i := 0; i < iters; i++ {
		arrival++
		c.Push(pt(float64(arrival)))
		if arrival > 2*wcap {
			for _, p := range c.Points() {
				ages.Add(float64(arrival) - p[0]) // age in [0, wcap)
			}
		}
	}
	// Uniform over [0,199] has mean 99.5 and sd ~57.7.
	if math.Abs(ages.Mean()-99.5) > 4 {
		t.Errorf("mean sampled age = %v, want ~99.5", ages.Mean())
	}
	if math.Abs(ages.StdDev()-57.7) > 4 {
		t.Errorf("sd of sampled age = %v, want ~57.7", ages.StdDev())
	}
}

// Chi-squared style check across window deciles for multi-slot samples.
func TestChainUniformityDeciles(t *testing.T) {
	const wcap = 100
	c := NewChain(16, wcap, 1, stats.NewRand(5))
	counts := make([]int, 10)
	total := 0
	arrival := 0
	for i := 0; i < 5000; i++ {
		arrival++
		c.Push(pt(float64(arrival)))
		if arrival <= wcap {
			continue
		}
		for _, p := range c.Points() {
			age := arrival - int(p[0])
			counts[age*10/wcap]++
			total++
		}
	}
	exp := float64(total) / 10
	for d, n := range counts {
		if math.Abs(float64(n)-exp) > 0.25*exp {
			t.Errorf("decile %d count %d deviates from expected %.0f by >25%%", d, n, exp)
		}
	}
}

func TestChainStoredPointsBounded(t *testing.T) {
	const k = 32
	c := NewChain(k, 500, 1, stats.NewRand(6))
	maxStored := 0
	for i := 0; i < 20000; i++ {
		c.Push(pt(float64(i)))
		if s := c.StoredPoints(); s > maxStored {
			maxStored = s
		}
	}
	// Expected chain length is O(1) per slot; allow a generous constant.
	if maxStored > 8*k {
		t.Errorf("max stored points %d exceeds 8k=%d — chains not bounded", maxStored, 8*k)
	}
	if c.MemoryBytes() != c.StoredPoints()*2 {
		t.Errorf("MemoryBytes = %d, want %d", c.MemoryBytes(), c.StoredPoints()*2)
	}
}

func TestChainPushClonesOnce(t *testing.T) {
	c := NewChain(4, 10, 2, stats.NewRand(7))
	p := window.Point{0.1, 0.2}
	c.Push(p)
	p[0] = 9
	for _, q := range c.Points() {
		if q[0] != 0.1 {
			t.Fatal("sample aliases caller's slice")
		}
	}
}

func TestChainAccessors(t *testing.T) {
	c := NewChain(3, 20, 2, stats.NewRand(8))
	if c.Size() != 3 || c.WindowCap() != 20 || c.Dim() != 2 {
		t.Errorf("accessors wrong: %d %d %d", c.Size(), c.WindowCap(), c.Dim())
	}
	c.Push(window.Point{1, 2})
	if c.Seen() != 1 {
		t.Errorf("Seen = %d, want 1", c.Seen())
	}
}

// Property: Points() never returns more than Size() entries and never a
// point that was not pushed.
func TestChainPointsValidProperty(t *testing.T) {
	f := func(vals []float64, seed int64) bool {
		if len(vals) == 0 {
			return true
		}
		pushed := map[float64]bool{}
		c := NewChain(4, 8, 1, stats.NewRand(seed))
		for _, v := range vals {
			pushed[v] = true
			c.Push(pt(v))
		}
		pts := c.Points()
		if len(pts) > c.Size() {
			return false
		}
		for _, p := range pts {
			if !pushed[p[0]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
