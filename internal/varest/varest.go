// Package varest maintains a running estimate of the variance (and hence
// standard deviation) of the values in a count-based sliding window, using
// the exponential-histogram technique of Babcock, Datar, Motwani and
// O'Callaghan [5], which the paper adopts for its variance estimator
// component (Section 5). The estimate drives the kernel bandwidth
// B_i = sqrt(5)·sigma_i·|R|^(-1/(d+4)).
//
// The sketch stores O((1/eps^2)·log|W|) buckets, each summarizing a
// contiguous run of arrivals with (count, mean, V) where V is the sum of
// squared deviations from the bucket mean. Buckets merge with the
// parallel-axis rule
//
//	V = V1 + V2 + n1·n2/(n1+n2)·(mu1-mu2)^2
//
// and a merge is permitted only while the combined bucket's internal
// variance stays small relative to the variance of all newer elements
// (3·V_merged ≤ eps·V_newer). Only the partially-expired oldest bucket
// contributes estimation error, and its share of the window variance is
// bounded by the merge condition, keeping the relative error within eps
// while the bucket sizes grow geometrically (O(log|W|/log(1+eps/3))
// buckets). Because buckets cover
// contiguous arrival-index ranges, the number of expired elements in the
// oldest bucket is known exactly; only their values are approximated (by
// the bucket mean), exactly as in [5].
//
// Push expires whole buckets off the old end, appends a singleton, and
// runs the O(buckets) merge pass (compress) on every e.every-th arrival
// only — every 16th from |W| = 8192 up, which makes it amortized O(1)
// there. Reads need no compaction and do not mutate: merging is lossless,
// so the buckets sum to the same moments however finely the list is
// split. The schedule is a function of the arrival counter and |W|, which
// the encoding carries, so a restored sketch compacts on the same
// arrivals as its original, bit for bit.
//
// Theorem 1 of the paper charges O((d/eps^2)·log|W|) memory for this
// component; MemoryNumbers and BoundNumbers let the Section 10.3 memory
// experiment compare actual usage against that bound.
//
// A product that feeds a sum is written float64(x*y), a rounding the Go
// spec forbids the compiler to fuse into a multiply-add, so every
// architecture computes what amd64 does, bit for bit (DESIGN.md §7).
package varest

import (
	"fmt"
	"math"
)

// bucket summarizes the contiguous arrival range [first, last].
type bucket struct {
	first, last uint64 // arrival indices, inclusive
	mean        float64
	v           float64 // sum of squared deviations from mean
}

func (b *bucket) n() uint64 { return b.last - b.first + 1 }

// merge combines two adjacent buckets (a older, c newer).
func merge(a, c bucket) bucket {
	// The counts are read from the fields, not through n(): the sketch's
	// hot loops inline merge, and it must stay within the inliner's budget.
	na, nc := float64(a.last-a.first+1), float64(c.last-c.first+1)
	d := a.mean - c.mean
	return bucket{
		first: a.first,
		last:  c.last,
		mean:  (float64(na*a.mean) + float64(nc*c.mean)) / (na + nc),
		v:     a.v + c.v + float64(na*nc/(na+nc)*d*d),
	}
}

// maxEvery is the longest a sketch goes between merge passes, in arrivals.
const maxEvery = 16

// Estimator sketches the variance of one dimension of a stream over a
// sliding window of capacity |W|. Construct with New.
type Estimator struct {
	w       uint64
	eps     float64
	now     uint64   // arrivals so far
	every   uint64   // arrivals between merge passes
	buckets []bucket // oldest first
	hardCap int

	scratch []bucket // reused by compress to avoid per-push allocation
	cums    []bucket // reused suffix aggregates
}

// New returns an estimator for windows of capacity wcap with target
// relative error eps (the paper's default in its memory discussion is
// eps = 0.2). It panics on non-positive wcap or eps outside (0,1].
func New(wcap int, eps float64) *Estimator {
	if wcap <= 0 {
		panic(fmt.Sprintf("varest: window capacity %d must be positive", wcap))
	}
	if !(eps > 0 && eps <= 1) {
		panic(fmt.Sprintf("varest: eps %v must be in (0,1]", eps))
	}
	// At most |W|/512 arrivals, never maxEvery or more, ride unmerged: a
	// small fixed share of the window. A sketch of a few hundred arrivals —
	// tens of buckets, where 15 singletons would be a quarter of the §10.3
	// footprint — keeps the pass on every arrival; from |W| = 8192 up it
	// runs on every 16th.
	e := &Estimator{w: uint64(wcap), eps: eps, every: uint64(min(max(wcap>>9, 1), maxEvery))}
	// Hard backstop on bucket count, 9/eps^2 size classes deep; the
	// invariant-driven merging keeps usage well below this in practice,
	// which is exactly the slack the Section 10.3 experiment measures.
	logW := int(math.Ceil(math.Log2(float64(wcap)))) + 2
	e.hardCap = int(math.Ceil(9/(eps*eps))) + 9*logW
	return e
}

// WindowCap returns |W|.
func (e *Estimator) WindowCap() int { return int(e.w) }

// Eps returns the configured error target.
func (e *Estimator) Eps() float64 { return e.eps }

// Seen returns the number of arrivals pushed.
func (e *Estimator) Seen() uint64 { return e.now }

// Push folds the next stream value into the sketch.
func (e *Estimator) Push(x float64) {
	e.now++
	// Expire buckets that lie entirely outside the window [now-W+1, now].
	start, drop := e.windowStart(), 0
	for drop < len(e.buckets) && e.buckets[drop].last < start {
		drop++
	}
	if drop > 0 {
		// Shift in place rather than reslicing forward: e.buckets[1:] would
		// strand capacity at the front of the backing array and force a
		// reallocation once the stranded prefix has eaten it all.
		e.buckets = append(e.buckets[:0], e.buckets[drop:]...)
	}
	e.buckets = append(e.buckets, bucket{first: e.now, last: e.now, mean: x})
	if e.now%e.every == 0 || len(e.buckets) > e.hardCap {
		e.compress()
	}
}

// compress restores the merge invariant with one newest-to-oldest pass.
// Buckets are pushed onto a stack (newest first); each incoming older
// bucket cascadingly merges with the stack top while the merged bucket's
// internal variance stays within 3·V ≤ eps·V_newer (zero-variance merges
// are always safe — constant runs compress fully). The pass visits every
// bucket however few merges it makes, so Push runs it once per e.every
// arrivals. Finally the hard cap is enforced by merging the oldest pairs.
func (e *Estimator) compress() {
	n := len(e.buckets)
	if n < 2 {
		return
	}
	// out holds processed buckets newest-first; cum[i] is the aggregate of
	// out[0..i] (only its v field is consulted).
	out := e.scratch[:0]
	cum := e.cums[:0]
	for i := n - 1; i >= 0; i-- {
		b := e.buckets[i]
		for len(out) > 0 {
			top := out[len(out)-1] // b's newer neighbour
			cand := merge(b, top)
			newerV := 0.0
			if len(out) >= 2 {
				newerV = cum[len(out)-2].v
			}
			if cand.v == 0 || (len(out) >= 2 && 3*cand.v <= e.eps*newerV) {
				b = cand
				out = out[:len(out)-1]
				cum = cum[:len(cum)-1]
				continue
			}
			break
		}
		out = append(out, b)
		if len(cum) == 0 {
			cum = append(cum, b)
		} else {
			cum = append(cum, merge(b, cum[len(cum)-1]))
		}
	}
	// Reverse back to oldest-first ordering.
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	e.buckets, e.scratch = out, e.buckets[:0]
	e.cums = cum[:0]
	for len(e.buckets) > e.hardCap {
		e.buckets[0] = merge(e.buckets[0], e.buckets[1])
		e.buckets = append(e.buckets[:1], e.buckets[2:]...)
	}
}

// windowStart returns the first unexpired arrival index.
func (e *Estimator) windowStart() uint64 {
	if e.now <= e.w {
		return 1
	}
	return e.now - e.w + 1
}

// aggregate combines all buckets, scaling the oldest by its unexpired
// fraction. It returns combined (n, mean, V); n is exact.
func (e *Estimator) aggregate() (float64, float64, float64) {
	start := e.windowStart()
	var acc bucket
	have := false
	for i := len(e.buckets) - 1; i >= 0; i-- {
		b := e.buckets[i]
		if b.last < start {
			break // fully expired (shouldn't occur after Push's trimming)
		}
		if b.first < start {
			// Partially expired oldest bucket: keep the unexpired share of
			// the count, attribute the bucket mean to it, and scale V.
			live := float64(b.last - start + 1)
			frac := live / float64(b.n())
			b = bucket{first: start, last: b.last, mean: b.mean, v: b.v * frac}
		}
		if !have {
			acc, have = b, true
		} else {
			acc = merge(b, acc)
		}
	}
	if !have {
		return 0, math.NaN(), math.NaN()
	}
	return float64(acc.n()), acc.mean, acc.v
}

// Count returns the exact number of unexpired elements.
func (e *Estimator) Count() int {
	if e.now < e.w {
		return int(e.now)
	}
	return int(e.w)
}

// Mean returns the estimated mean of the window, NaN when empty.
func (e *Estimator) Mean() float64 {
	_, mu, _ := e.aggregate()
	return mu
}

// Variance returns the estimated population variance of the window, NaN
// when empty.
func (e *Estimator) Variance() float64 {
	n, _, v := e.aggregate()
	if n == 0 {
		return math.NaN()
	}
	return v / n
}

// StdDev returns the estimated standard deviation of the window.
func (e *Estimator) StdDev() float64 {
	v := e.Variance()
	if math.IsNaN(v) || v < 0 {
		return math.NaN()
	}
	return math.Sqrt(v)
}

// Buckets returns the current number of buckets.
func (e *Estimator) Buckets() int { return len(e.buckets) }

// MemoryNumbers returns the number of stored scalars (each bucket keeps
// first, last, mean, V — four numbers).
func (e *Estimator) MemoryNumbers() int { return 4 * len(e.buckets) }

// MemoryBytes returns the footprint in bytes under the paper's 16-bit
// architecture assumption (2 bytes per number).
func (e *Estimator) MemoryBytes() int { return 2 * e.MemoryNumbers() }

// BoundNumbers returns the theoretical memory bound of Theorem 1 for one
// dimension, in stored scalars: (1/(2·eps'))·log|W| with the paper's
// accounting, realized here as 4·(9/eps^2 + 9·log2|W|) scalars — the hard
// cap the sketch never exceeds.
func (e *Estimator) BoundNumbers() int { return 4 * e.hardCap }

// Multi maintains one Estimator per dimension, matching the paper's
// O((d/eps^2)·log|W|) accounting for d-dimensional streams. A Multi is
// single-goroutine-owned, like the sliding window it summarizes.
type Multi struct {
	dims []*Estimator
}

// NewMulti returns a d-dimensional variance sketch.
func NewMulti(d, wcap int, eps float64) *Multi {
	if d <= 0 {
		panic(fmt.Sprintf("varest: dim %d must be positive", d))
	}
	m := &Multi{dims: make([]*Estimator, d)}
	for i := range m.dims {
		m.dims[i] = New(wcap, eps)
	}
	return m
}

// NewMultiFrom assembles a multi-dimensional sketch from restored
// per-dimension estimators (leader handoff).
func NewMultiFrom(dims []*Estimator) *Multi {
	if len(dims) == 0 {
		panic("varest: NewMultiFrom needs at least one sketch")
	}
	for _, d := range dims {
		if d == nil {
			panic("varest: nil sketch")
		}
	}
	return &Multi{dims: append([]*Estimator(nil), dims...)}
}

// Dimension returns the sketch of dimension i.
func (m *Multi) Dimension(i int) *Estimator { return m.dims[i] }

// Dim returns the dimensionality.
func (m *Multi) Dim() int { return len(m.dims) }

// Push folds a d-dimensional point into the per-dimension sketches.
func (m *Multi) Push(p []float64) {
	if len(p) != len(m.dims) {
		panic(fmt.Sprintf("varest: point dim %d, sketch dim %d", len(p), len(m.dims)))
	}
	for i, x := range p {
		m.dims[i].Push(x)
	}
}

// StdDevs returns the per-dimension standard deviation estimates.
func (m *Multi) StdDevs() []float64 {
	return m.StdDevsInto(nil)
}

// StdDevsInto is StdDevs writing into dst (grown as needed), so the
// detector's frequent model refreshes read sigmas without allocating.
func (m *Multi) StdDevsInto(dst []float64) []float64 {
	if cap(dst) < len(m.dims) {
		dst = make([]float64, len(m.dims))
	}
	dst = dst[:len(m.dims)]
	for i, e := range m.dims {
		dst[i] = e.StdDev()
	}
	return dst
}

// Means returns the per-dimension mean estimates.
func (m *Multi) Means() []float64 {
	out := make([]float64, len(m.dims))
	for i, e := range m.dims {
		out[i] = e.Mean()
	}
	return out
}

// MemoryNumbers returns total stored scalars across dimensions.
func (m *Multi) MemoryNumbers() int {
	n := 0
	for _, e := range m.dims {
		n += e.MemoryNumbers()
	}
	return n
}

// MemoryBytes returns the total footprint in bytes (2 bytes per number).
func (m *Multi) MemoryBytes() int { return 2 * m.MemoryNumbers() }

// BoundNumbers returns the summed theoretical bound across dimensions.
func (m *Multi) BoundNumbers() int {
	n := 0
	for _, e := range m.dims {
		n += e.BoundNumbers()
	}
	return n
}
