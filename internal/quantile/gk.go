// Package quantile implements the Greenwald-Khanna ε-approximate quantile
// summary. The paper's related work (Section 11) discusses order
// statistics in sensor networks (Greenwald & Khanna [19], Shrivastava et
// al. [41]) as the alternative lens on distribution approximation; this
// package supplies that substrate, and the experiments use it to build a
// fully-online equi-depth histogram — putting the paper's conjecture that
// "any similar online technique will perform at most as good" as the
// offline histogram baseline to an actual test.
//
// A summary maintains tuples (v, g, Δ) with Σg = n such that any φ-quantile
// query is answered within ±ε·n rank error, using O((1/ε)·log(ε·n)) space.
//
// Inserts are buffered and folded in by flush — at batch pending
// values, and ahead of every query. A flush is one pass: the pending
// values are sorted (an insertion loop up to insertionCutoff of them,
// sort.Float64s past it), and each element of their merge with the tuples
// goes through the compress rule as it is written, so a backend that
// queries on every arrival (qn) pays one walk of the summary per flush.
package quantile

import (
	"fmt"
	"math"
	"sort"
)

// tuple is one summary entry: value v covers g ranks, with Δ uncertainty.
type tuple struct {
	v float64
	g int
	d int
}

// GK is a Greenwald-Khanna summary. The zero value is not usable;
// construct with New.
type GK struct {
	eps     float64
	batch   int // pending length that triggers a flush: 1/(2ε), at least 16
	tuples  []tuple
	n       int
	pending []float64 // buffered inserts, merged in batches for speed
	scratch []tuple   // reused by flush so steady-state merges do not allocate
}

// New returns a summary with rank-error bound eps·n. It panics for eps
// outside (0, 0.5].
func New(eps float64) *GK {
	if !(eps > 0 && eps <= 0.5) {
		panic(fmt.Sprintf("quantile: eps %v outside (0, 0.5]", eps))
	}
	return &GK{eps: eps, batch: max(int(1/(2*eps)), 16)}
}

// Eps returns the configured error bound.
func (s *GK) Eps() float64 { return s.eps }

// N returns the number of inserted observations.
func (s *GK) N() int { return s.n + len(s.pending) }

// Insert adds one observation.
func (s *GK) Insert(x float64) {
	if math.IsNaN(x) {
		panic("quantile: NaN observation")
	}
	s.pending = append(s.pending, x)
	if len(s.pending) >= s.batch {
		s.flush()
	}
}

// insertionCutoff is the pending length up to which flush sorts with a
// plain insertion loop: an Insert-driven flush holds batch values (25
// at the qn backend's ε = 0.02) and a Query-driven one fewer, where the
// loop beats sort.Float64s. Longer buffers — a small ε, or a restored
// blob, which may carry any pending count — take the library sort.
const insertionCutoff = 32

// sortPending orders the pending buffer ascending. Up to insertionCutoff
// values the sort is stable — values that compare equal, which for floats
// means −0 and +0, keep their arrival order; past it sort.Float64s may
// order them either way. Tuple ranks never depend on that order, only
// which sign of zero a tuple's v carries.
func sortPending(p []float64) {
	if len(p) > insertionCutoff {
		sort.Float64s(p)
		return
	}
	for i := 1; i < len(p); i++ {
		x := p[i]
		j := i
		for ; j > 0 && x < p[j-1]; j-- {
			p[j] = p[j-1]
		}
		p[j] = x
	}
}

// flush folds the pending buffer into the summary in one pass: each
// element of the merged order (a tuple before a pending value it ties
// with) goes straight through compress's rule into scratch, so the
// result is what a merge followed by compress would leave.
func (s *GK) flush() {
	if len(s.pending) == 0 {
		return
	}
	sortPending(s.pending)
	m := len(s.tuples) + len(s.pending)
	s.n += len(s.pending)
	budget := int(2 * s.eps * float64(s.n))
	out := s.scratch[:0]
	i, j := 0, 0
	for k := 0; k < m; k++ {
		var t tuple
		if j >= len(s.pending) || (i < len(s.tuples) && s.tuples[i].v <= s.pending[j]) {
			t = s.tuples[i]
			i++
		} else {
			// New observation: g = 1; Δ is the allowed uncertainty at its
			// position (0 at the extremes).
			t = tuple{v: s.pending[j], g: 1}
			if i > 0 && i < len(s.tuples) {
				t.d = max(budget-1, 0)
			}
			j++
		}
		// compress's rule: nothing merges into the minimum (out[0]) and
		// the maximum (k = m−1) is never merged away.
		if last := len(out) - 1; last >= 1 && k < m-1 && out[last].g+t.g+t.d <= budget {
			t.g += out[last].g
			out[last] = t
			continue
		}
		out = append(out, t)
	}
	s.pending = s.pending[:0]
	s.tuples, s.scratch = out, s.tuples[:0]
}

// compress merges adjacent tuples while g_i + g_{i+1} + Δ_{i+1} stays
// within the 2εn budget, keeping the summary at O((1/ε)·log(εn)) entries.
// Merge runs it over two summaries' union; flush applies the same rule
// as it goes.
func (s *GK) compress() {
	if len(s.tuples) < 3 {
		return
	}
	budget := int(2 * s.eps * float64(s.n))
	out := s.tuples[:1] // never merge away the minimum
	for i := 1; i < len(s.tuples); i++ {
		t := s.tuples[i]
		last := &out[len(out)-1]
		if len(out) > 1 && i < len(s.tuples)-1 && last.g+t.g+t.d <= budget {
			t.g += last.g
			out[len(out)-1] = t
			continue
		}
		out = append(out, t)
	}
	s.tuples = out
}

// Query returns an approximation of the phi-quantile (0 ≤ phi ≤ 1) with
// rank error at most eps·n. It returns NaN on an empty summary or phi
// outside [0,1].
func (s *GK) Query(phi float64) float64 {
	if phi < 0 || phi > 1 || math.IsNaN(phi) {
		return math.NaN()
	}
	s.flush()
	if s.n == 0 {
		return math.NaN()
	}
	// The first and last tuples always hold the exact extremes.
	if phi == 0 {
		return s.tuples[0].v
	}
	if phi == 1 {
		return s.tuples[len(s.tuples)-1].v
	}
	rank := int(math.Ceil(phi * float64(s.n)))
	if rank < 1 {
		rank = 1
	}
	margin := int(math.Ceil(s.eps * float64(s.n)))
	// Standard GK lookup: the last tuple whose maximum possible rank stays
	// within rank+margin.
	rmin := 0
	best := s.tuples[0].v
	for _, t := range s.tuples {
		rmin += t.g
		if rmin+t.d > rank+margin {
			break
		}
		best = t.v
	}
	return best
}

// Tuples returns the current summary size (for memory accounting).
func (s *GK) Tuples() int {
	s.flush()
	return len(s.tuples)
}

// MemoryNumbers returns stored scalars (three per tuple).
func (s *GK) MemoryNumbers() int { return 3 * s.Tuples() }

// Quantiles returns the values at the given cumulative fractions — the
// bucket boundaries of an equi-depth histogram with len(phis)-1 buckets.
func (s *GK) Quantiles(phis []float64) []float64 {
	out := make([]float64, len(phis))
	for i, p := range phis {
		out[i] = s.Query(p)
	}
	return out
}

// Merge combines two summaries into a new one covering both streams —
// the aggregation step that lets leaders in a sensor hierarchy maintain
// order statistics over their subtree from their children's summaries
// (Greenwald & Khanna's power-conserving computation, [19] in the paper).
// The merged summary answers queries within (eps_a + eps_b)·n rank error;
// its Eps reflects that.
func Merge(a, b *GK) *GK {
	a.flush()
	b.flush()
	eps := a.eps + b.eps
	if eps > 0.5 {
		eps = 0.5
	}
	out := New(eps)
	out.n = a.n + b.n
	merged := make([]tuple, 0, len(a.tuples)+len(b.tuples))
	i, j := 0, 0
	for i < len(a.tuples) || j < len(b.tuples) {
		if j >= len(b.tuples) || (i < len(a.tuples) && a.tuples[i].v <= b.tuples[j].v) {
			merged = append(merged, a.tuples[i])
			i++
		} else {
			merged = append(merged, b.tuples[j])
			j++
		}
	}
	out.tuples = merged
	out.compress()
	return out
}
