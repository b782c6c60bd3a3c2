package mdef

import (
	"math"

	"odds/internal/distance"
	"odds/internal/window"
)

// DynTruth maintains the exact structures BruteForce-M needs —
// domain-aligned cell occupancies (cells of side 2αr) and an exact
// αr-neighborhood index — incrementally, so the evaluation harness can
// compute the exact MDEF verdict for every arrival against the current
// window without re-scanning it.
type DynTruth struct {
	prm Params
	idx *distance.DynIndex
	// occ counts the points per cell. Like the index's buckets, a cell
	// emptied by eviction keeps its entry (at zero) so a refill inserts
	// nothing.
	occ map[string]*float64
	n   int

	// Per-call scratch, which makes the steady-state slide
	// allocation-free and a DynTruth single-goroutine-owned.
	coords, firsts, lasts []int
	counts                []float64
	keyBuf                []byte
}

// NewDynTruth returns empty ground-truth state for dim-dimensional data.
func NewDynTruth(prm Params, dim int) *DynTruth {
	if err := prm.Validate(); err != nil {
		panic(err)
	}
	if dim <= 0 {
		panic("mdef: dim must be positive")
	}
	return &DynTruth{
		prm:    prm,
		idx:    distance.NewDynIndex(prm.AlphaR, dim),
		occ:    make(map[string]*float64),
		coords: make([]int, dim),
		firsts: make([]int, dim),
		lasts:  make([]int, dim),
		keyBuf: make([]byte, 0, dim*5),
	}
}

// Len returns the number of tracked points.
func (d *DynTruth) Len() int { return d.n }

// cell returns the occupancy of the cell at d.coords, nil if the cell was
// never occupied; the key (BruteForce's encoding) is left in d.keyBuf.
func (d *DynTruth) cell() *float64 {
	b := d.keyBuf[:0]
	for _, c := range d.coords {
		u := uint32(c<<1) ^ uint32(c>>31)
		b = append(b, byte(u), byte(u>>8), byte(u>>16), byte(u>>24), ',')
	}
	d.keyBuf = b
	return d.occ[string(b)] // string conversion: no alloc on lookup
}

// cellOf returns the occupancy of the cell containing p.
func (d *DynTruth) cellOf(p window.Point) *float64 {
	w := 2 * d.prm.AlphaR
	for i, x := range p {
		d.coords[i] = int(math.Floor(x / w))
	}
	return d.cell()
}

// Add tracks a copy of p (a window arrival).
func (d *DynTruth) Add(p window.Point) {
	d.idx.Add(p) // panics on a dim mismatch before coords is indexed
	c := d.cellOf(p)
	if c == nil {
		c = new(float64)
		d.occ[string(d.keyBuf)] = c
	}
	*c++
	d.n++
}

// Remove un-tracks one point equal to p (a window eviction). It returns
// false when the point was not tracked.
func (d *DynTruth) Remove(p window.Point) bool {
	if !d.idx.Remove(p) {
		return false
	}
	*d.cellOf(p)--
	d.n--
	return true
}

// cellStats aggregates the occupied cells of side 2αr intersecting the
// sampling neighborhood [p-r, p+r], walked in lexicographic order.
func (d *DynTruth) cellStats(p window.Point) (avg, sigma float64) {
	for i := range p {
		d.firsts[i], d.lasts[i] = cellRange(p[i]-d.prm.R, p[i]+d.prm.R, d.prm.AlphaR)
	}
	copy(d.coords, d.firsts)
	d.counts = d.counts[:0]
	for more := true; more; more = nextCell(d.coords, d.firsts, d.lasts) {
		if c := d.cell(); c != nil && *c > 0 {
			d.counts = append(d.counts, *c)
		}
	}
	return cellStats(d.counts)
}

// Evaluate returns the exact MDEF verdict for p against the tracked set —
// the per-arrival BruteForce-M decision.
func (d *DynTruth) Evaluate(p window.Point) Result {
	np := float64(d.idx.Count(p, d.prm.AlphaR))
	avg, sig := d.cellStats(p)
	res := Result{Count: np, AvgN: avg}
	if avg <= 0 {
		return res
	}
	res.MDEF = 1 - np/avg
	res.SigMDEF = sig / avg
	res.Outlier = res.MDEF > d.prm.KSigma*res.SigMDEF
	return res
}

// IsOutlier returns the exact flag decision for p. It avoids the full
// neighborhood count: the criterion MDEF > k_σ·σ_MDEF rearranges to
// n(p,αr) < n̂ − k_σ·σ_n̂, so an early-exit count against that bound
// suffices.
func (d *DynTruth) IsOutlier(p window.Point) bool {
	avg, sig := d.cellStats(p)
	if avg <= 0 {
		return false
	}
	bound := avg - d.prm.KSigma*sig
	if bound <= 0 {
		return false // even n(p,αr)=0 cannot satisfy the criterion
	}
	limit := int(math.Ceil(bound))
	np := float64(d.idx.CountUpTo(p, d.prm.AlphaR, limit))
	return np < bound
}
