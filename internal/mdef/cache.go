package mdef

import (
	"math"
)

// CachedCounter memoizes grid-cell count queries against an immutable
// density model. MDEF evaluation issues the same domain-aligned cell
// queries for every arrival in a region (Figure 3), and the underlying
// kernel model only changes when the sample is rebuilt, so consecutive
// arrivals hit the cache and the per-arrival cost drops from
// O(d|R|/(2αr)) to a handful of map lookups. Build a fresh CachedCounter
// whenever the model instance changes. The cache mutates on reads and is
// single-goroutine-owned.
type CachedCounter struct {
	m      Counter
	alphaR float64
	w      float64
	gen    uint64
	memo   map[uint64]float64
}

// Generational is the optional staleness extension of Counter: models
// that mutate in place (the kernel's maintained estimators) advance a
// generation counter on every mutation, since their pointer no longer
// signals change. RefreshCachedCounter consults it.
type Generational interface {
	Gen() uint64
}

// NewCachedCounter wraps a model for MDEF queries with counting radius
// alphaR. It panics on a non-positive radius.
func NewCachedCounter(m Counter, alphaR float64) *CachedCounter {
	if alphaR <= 0 || math.IsNaN(alphaR) {
		panic("mdef: cached counter needs positive alphaR")
	}
	c := &CachedCounter{m: m, alphaR: alphaR, w: 2 * alphaR, memo: make(map[uint64]float64)}
	if g, ok := m.(Generational); ok {
		c.gen = g.Gen()
	}
	return c
}

// RefreshCachedCounter returns a cache that is valid for model m: the
// existing cache c when it already wraps m at the current generation, c
// with its memo dropped when m is the same in-place-maintained model at a
// newer generation, and a fresh cache otherwise (including c == nil).
// Every per-arrival evaluation site should route its cache through this —
// comparing model pointers alone silently serves stale counts once models
// mutate in place.
func RefreshCachedCounter(c *CachedCounter, m Counter, alphaR float64) *CachedCounter {
	if c == nil || c.m != m || c.alphaR != alphaR {
		return NewCachedCounter(m, alphaR)
	}
	if g, ok := m.(Generational); ok {
		if cur := g.Gen(); cur != c.gen {
			clear(c.memo)
			c.gen = cur
		}
	}
	return c
}

// Dim returns the wrapped model's dimensionality.
func (c *CachedCounter) Dim() int { return c.m.Dim() }

// cellKeyOf returns a compact key when [lo,hi] is exactly one grid cell of
// width 2αr, and ok=false otherwise.
func (c *CachedCounter) cellKeyOf(lo, hi []float64) (uint64, bool) {
	const tol = 1e-9
	key := uint64(0)
	for i := range lo {
		k := math.Round(lo[i] / c.w)
		if math.Abs(lo[i]-float64(k*c.w)) > tol || math.Abs(hi[i]-float64((k+1)*c.w)) > tol {
			return 0, false
		}
		// Signed 20-bit window per dimension supports |k| < 2^19, far wider
		// than the unit domain needs.
		u := uint64(int64(k)+1<<19) & (1<<20 - 1)
		key = key<<20 | u
	}
	return key, true
}

// CountBox answers the range query, caching aligned-cell results.
func (c *CachedCounter) CountBox(lo, hi []float64) float64 {
	key, ok := c.cellKeyOf(lo, hi)
	if !ok {
		return c.m.CountBox(lo, hi)
	}
	if v, hit := c.memo[key]; hit {
		return v
	}
	v := c.m.CountBox(lo, hi)
	c.memo[key] = v
	return v
}

// CacheSize returns the number of memoized cells.
func (c *CachedCounter) CacheSize() int { return len(c.memo) }
