package window

import (
	"errors"
	"math"
	"slices"

	"odds/internal/binfmt"
)

// Sorted is a sliding window of scalars kept twice: the last Cap values
// in arrival order, beside a sorted copy of the same values. A rank query
// is a binary search on the sorted copy and a slide is one memmove in it,
// so a rank-based statistic (the drift bank's KS and Mann–Kendall tests,
// the qn backend's median and pairwise-difference counts) updates in
// O(log W) comparisons rather than an O(W) scan. Storage is allocated at
// construction; Pop and Push allocate nothing. The zero value is an empty
// window of capacity 0; construct with NewSorted.
type Sorted struct {
	ring   []float64 // arrival order; ring[head] is the oldest resident
	sorted []float64 // the residents, ascending
	head   int
	count  int
}

// NewSorted returns an empty window of capacity w.
func NewSorted(w int) Sorted {
	return Sorted{ring: make([]float64, w), sorted: make([]float64, 0, w)}
}

// Len returns the number of residents.
func (s *Sorted) Len() int { return s.count }

// Full reports whether the window holds its full length.
func (s *Sorted) Full() bool { return s.count == len(s.ring) }

// Values returns the residents in ascending order. The slice aliases the
// window and is valid until the next Pop, Push, Reset or Load.
func (s *Sorted) Values() []float64 { return s.sorted }

// Pop evicts and returns the oldest value when the window is full, with
// the index it held in Values — now the first index of a value at least
// as large; while there is room it moves nothing and reports ok == false.
func (s *Sorted) Pop() (old float64, at int, ok bool) {
	if !s.Full() {
		return 0, 0, false
	}
	old = s.ring[s.head]
	if s.head++; s.head == len(s.ring) {
		s.head = 0
	}
	s.count--
	i := LowerBound(s.sorted, old) // present: Push inserted it
	copy(s.sorted[i:], s.sorted[i+1:])
	s.sorted = s.sorted[:len(s.sorted)-1]
	return old, i, true
}

// Push admits x as the newest value and returns its index in Values, the
// first at which a value at least x sits. The window must not be full.
func (s *Sorted) Push(x float64) int {
	j := s.head + s.count
	if j >= len(s.ring) {
		j -= len(s.ring)
	}
	s.ring[j] = x
	s.count++
	i := LowerBound(s.sorted, x)
	s.sorted = append(s.sorted, 0)
	copy(s.sorted[i+1:], s.sorted[i:])
	s.sorted[i] = x
	return i
}

// Reset empties the window.
func (s *Sorted) Reset() {
	s.sorted = s.sorted[:0]
	s.head, s.count = 0, 0
}

// AppendArrivals appends the residents to dst, oldest first.
func (s *Sorted) AppendArrivals(dst []float64) []float64 {
	end := s.head + s.count
	if end <= len(s.ring) {
		return append(dst, s.ring[s.head:end]...)
	}
	dst = append(dst, s.ring[s.head:]...)
	return append(dst, s.ring[:end-len(s.ring)]...)
}

// Append writes the window as Load reads it: a u32 count, then the
// values oldest first.
func (s *Sorted) Append(w *binfmt.Writer) {
	w.U32(uint32(s.count))
	w.F64s(s.AppendArrivals(nil))
}

// Load replaces the window's contents with what Append wrote, placing the
// oldest value at head 0: the ring origin is not observable, since
// eviction depends only on arrival order. A count above the window length
// or a non-finite value fails r.
func (s *Sorted) Load(r *binfmt.Reader) {
	n := r.Count(8, len(s.ring))
	r.F64s(s.ring[:n])
	s.head, s.count = 0, n
	s.sorted = append(s.sorted[:0], s.ring[:n]...)
	slices.Sort(s.sorted)
	if slices.ContainsFunc(s.sorted, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }) {
		r.Fail(errors.New("non-finite window value"))
	}
}

// LowerBound returns the first index i with s[i] >= x. Every search runs
// ⌈log2 len(s)⌉ halving steps whatever x is; a step only decides whether
// base moves.
func LowerBound(s []float64, x float64) int {
	if len(s) == 0 {
		return 0
	}
	base, n := 0, len(s)
	for n > 1 {
		half := n >> 1
		if s[base+half] < x {
			base += half
		}
		n -= half
	}
	if s[base] < x {
		base++
	}
	return base
}

// UpperBound returns the first index i with s[i] > x.
func UpperBound(s []float64, x float64) int {
	if len(s) == 0 {
		return 0
	}
	base, n := 0, len(s)
	for n > 1 {
		half := n >> 1
		if s[base+half] <= x {
			base += half
		}
		n -= half
	}
	if s[base] <= x {
		base++
	}
	return base
}
