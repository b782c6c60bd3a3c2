// Package window implements the sliding-window primitives the paper's
// detectors operate over. A window holds the last |W| d-dimensional values
// of a stream (Section 3); detectors never see the stream directly, only
// the window and summaries of it.
package window

import "fmt"

// Point is one d-dimensional sensor reading, normalized to [0,1]^d as the
// kernel framework requires (Section 4).
type Point []float64

// Clone returns a copy of p. Windows and samples store clones so callers
// may reuse their input slices.
func (p Point) Clone() Point {
	c := make(Point, len(p))
	copy(c, p)
	return c
}

// Equal reports whether p and q have identical coordinates.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// InUnitCube reports whether every coordinate of p lies in [0,1].
func (p Point) InUnitCube() bool {
	for _, x := range p {
		if x < 0 || x > 1 {
			return false
		}
	}
	return true
}

// Sliding is a fixed-capacity sliding window over Points, implemented as a
// ring buffer. The zero value is not usable; construct with New.
//
// Concurrency: a Sliding is single-goroutine-owned. Points handed out
// (At, Oldest, Snapshot) remain valid after later Pushes — eviction
// reassigns the ring slot to a new Point rather than mutating the old
// one — which is what lets the parallel evaluation harness capture the
// evicted point in one phase and process it in another.
type Sliding struct {
	buf   []Point
	dim   int
	head  int // index of the oldest element
	size  int
	seen  uint64 // total arrivals, including evicted
	onOut func(Point)
}

// New returns a sliding window holding at most capacity points of the given
// dimensionality. It panics if capacity or dim is not positive, because a
// zero-size window or zero-dimensional stream indicates a programming error
// in the caller, not a runtime condition.
func New(capacity, dim int) *Sliding {
	if capacity <= 0 {
		panic(fmt.Sprintf("window: capacity %d must be positive", capacity))
	}
	if dim <= 0 {
		panic(fmt.Sprintf("window: dim %d must be positive", dim))
	}
	return &Sliding{buf: make([]Point, 0, capacity), dim: dim}
}

// OnEvict registers a callback invoked with each point as it leaves the
// window. Summaries that must track expirations (e.g. exact window variance
// used as ground truth) hook in here.
func (w *Sliding) OnEvict(fn func(Point)) { w.onOut = fn }

// Dim returns the dimensionality of the window's points.
func (w *Sliding) Dim() int { return w.dim }

// Len returns the number of points currently held (≤ |W|).
func (w *Sliding) Len() int { return w.size }

// Seen returns the total number of arrivals, including evicted points.
func (w *Sliding) Seen() uint64 { return w.seen }

// Full reports whether the window has reached capacity.
func (w *Sliding) Full() bool { return w.size == cap(w.buf) }

// Push appends a point, evicting the oldest when full. It panics when the
// point's dimensionality does not match the window's. The point is cloned.
func (w *Sliding) Push(p Point) {
	if len(p) != w.dim {
		panic(fmt.Sprintf("window: point dim %d, window dim %d", len(p), w.dim))
	}
	w.seen++
	c := p.Clone()
	if w.size < cap(w.buf) {
		w.buf = append(w.buf, c)
		w.size++
		return
	}
	old := w.buf[w.head]
	w.buf[w.head] = c
	w.head = (w.head + 1) % cap(w.buf)
	if w.onOut != nil {
		w.onOut(old)
	}
}

// At returns the i-th point in arrival order, 0 being the oldest currently
// held. It panics on out-of-range access.
func (w *Sliding) At(i int) Point {
	if i < 0 || i >= w.size {
		panic(fmt.Sprintf("window: index %d out of range [0,%d)", i, w.size))
	}
	return w.buf[(w.head+i)%cap(w.buf)]
}

// Newest returns the most recently pushed point, or nil when empty.
func (w *Sliding) Newest() Point {
	if w.size == 0 {
		return nil
	}
	return w.At(w.size - 1)
}

// Oldest returns the oldest point still held, or nil when empty.
func (w *Sliding) Oldest() Point {
	if w.size == 0 {
		return nil
	}
	return w.At(0)
}

// Do calls fn for every point in arrival order. It is the allocation-free
// iteration primitive the brute-force baselines use.
func (w *Sliding) Do(fn func(Point)) {
	for i := 0; i < w.size; i++ {
		fn(w.buf[(w.head+i)%cap(w.buf)])
	}
}

// Snapshot returns the window contents in arrival order as a fresh slice.
// The returned points are the window's own (not cloned); callers must not
// mutate them.
func (w *Sliding) Snapshot() []Point {
	out := make([]Point, 0, w.size)
	w.Do(func(p Point) { out = append(out, p) })
	return out
}

// Column extracts coordinate k of every point in arrival order. The
// histogram baseline and per-dimension statistics use it.
func (w *Sliding) Column(k int) []float64 {
	if k < 0 || k >= w.dim {
		panic(fmt.Sprintf("window: column %d out of range [0,%d)", k, w.dim))
	}
	out := make([]float64, 0, w.size)
	w.Do(func(p Point) { out = append(out, p[k]) })
	return out
}

// Union concatenates the contents of several windows in the order given.
// Parent-node ground truth in the hierarchy is computed over the union of
// the children's windows (Theorem 3).
func Union(ws ...*Sliding) []Point {
	n := 0
	for _, w := range ws {
		n += w.Len()
	}
	out := make([]Point, 0, n)
	for _, w := range ws {
		out = append(out, w.Snapshot()...)
	}
	return out
}
