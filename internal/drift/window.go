package drift

import (
	"errors"
	"slices"

	"odds/internal/binfmt"
)

// sortedWindow is the sliding window both rank tests run on: the last
// len(ring) values in arrival order, beside a sorted copy of the same
// values. A rank query is a binary search on the sorted copy and a slide
// is one memmove in it, so an observation costs O(log W) comparisons
// rather than an O(W) scan. Storage is allocated at construction; pop and
// push allocate nothing.
type sortedWindow struct {
	ring   []float64 // arrival order; ring[head] is the oldest resident
	sorted []float64 // the residents, ascending
	head   int
	count  int
}

func newSortedWindow(w int) sortedWindow {
	return sortedWindow{ring: make([]float64, w), sorted: make([]float64, 0, w)}
}

// full reports whether the window holds its full length.
func (s *sortedWindow) full() bool { return s.count == len(s.ring) }

// pop evicts and returns the oldest value when the window is full; while
// there is room it moves nothing and reports ok == false.
func (s *sortedWindow) pop() (old float64, ok bool) {
	if !s.full() {
		return 0, false
	}
	old = s.ring[s.head]
	if s.head++; s.head == len(s.ring) {
		s.head = 0
	}
	s.count--
	i := lowerBound(s.sorted, old) // present: push inserted it
	copy(s.sorted[i:], s.sorted[i+1:])
	s.sorted = s.sorted[:len(s.sorted)-1]
	return old, true
}

// push admits x as the newest value. The window must not be full.
func (s *sortedWindow) push(x float64) {
	j := s.head + s.count
	if j >= len(s.ring) {
		j -= len(s.ring)
	}
	s.ring[j] = x
	s.count++
	i := lowerBound(s.sorted, x)
	s.sorted = append(s.sorted, 0)
	copy(s.sorted[i+1:], s.sorted[i:])
	s.sorted[i] = x
}

// concordance returns Σ_residents sign(v − e) = #less − #greater; v's own
// tie group contributes zero either way.
func (s *sortedWindow) concordance(v float64) int64 {
	return int64(lowerBound(s.sorted, v) - (len(s.sorted) - upperBound(s.sorted, v)))
}

// reset empties the window.
func (s *sortedWindow) reset() {
	s.sorted = s.sorted[:0]
	s.head, s.count = 0, 0
}

// appendArrivals appends the residents to dst, oldest first.
func (s *sortedWindow) appendArrivals(dst []float64) []float64 {
	end := s.head + s.count
	if end <= len(s.ring) {
		return append(dst, s.ring[s.head:end]...)
	}
	dst = append(dst, s.ring[s.head:]...)
	return append(dst, s.ring[:end-len(s.ring)]...)
}

// appendWindow writes a window as load reads it: a u32 count, then the
// values oldest first.
func appendWindow(w *binfmt.Writer, s *sortedWindow) {
	w.U32(uint32(s.count))
	w.F64s(s.appendArrivals(nil))
}

// load replaces the window's contents with what appendWindow wrote,
// placing the oldest value at head 0: the ring origin is not observable,
// since eviction depends only on arrival order. A count above the window
// length or a non-finite value fails r.
func (s *sortedWindow) load(r *binfmt.Reader) {
	n := r.Count(8, len(s.ring))
	r.F64s(s.ring[:n])
	s.head, s.count = 0, n
	s.sorted = append(s.sorted[:0], s.ring[:n]...)
	slices.Sort(s.sorted)
	if slices.ContainsFunc(s.sorted, func(x float64) bool { return !finite(x) }) {
		r.Fail(errors.New("non-finite window value"))
	}
}

// lowerBound returns the first index i with s[i] >= x.
func lowerBound(s []float64, x float64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index i with s[i] > x.
func upperBound(s []float64, x float64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
