package distance

import (
	"fmt"
	"math"

	"odds/internal/window"
)

// DynIndex is a cell grid over a point multiset enabling exact L∞ neighbor
// counts in time proportional to the occupancy of the 3^d cells adjacent
// to the query. Points can be added and removed as sliding windows
// advance, so the serving pipeline and the evaluation harness maintain
// exact per-arrival ground truth (the BruteForce-D decision for every new
// value against the current window) in amortized constant time instead of
// rebuilding an index per window instance; BruteForce builds one over a
// whole point set.
//
// The index owns copies of its points: a grid cell is a bucket holding
// its members' coordinates inline, oldest first, so callers may reuse or
// overwrite a point's storage the moment Add returns, and equal points
// are simply stored twice (the index is a multiset). A window slides in
// FIFO order, which makes the point a slide evicts the oldest member of
// its cell: Remove searches oldest-first, hits on the first compare and
// pops the bucket's head. Buckets are persistent — a cell emptied by
// eviction keeps its bucket and the bucket its capacity — and all
// per-query scratch (cell coordinates, the encoded key) lives on the
// index, making steady-state Add/Remove/Count allocation-free.
//
// Concurrency: a DynIndex is single-goroutine-owned — every method,
// including the read-only queries, mutates the shared scratch. In the
// parallel evaluation harness, leaf-level indexes are per-sensor state
// (touched in the concurrent phase) while parent-level indexes are shared
// and live strictly in the ordered aggregation phase.
type DynIndex struct {
	cell  float64
	dim   int
	cells map[string]*bucket
	n     int

	coords  []int
	base    []int
	offsets []int
	keyBuf  []byte
}

// bucket is one grid cell's points, stored inline behind a stable
// pointer: xs holds dim-strided coordinates in arrival order and the live
// points are xs[head:]. Popping the oldest point advances head; the dead
// prefix it leaves is reclaimed in bulk when the slice fills (see push),
// never one slot at a time.
type bucket struct {
	xs   []float64
	head int
}

// push appends a copy of p as the bucket's newest point. A full slice is
// compacted in place when its dead prefix is more than half of it and
// doubled otherwise. Either way only the live points are copied, and at
// least as many pushes precede a copy as it moves points, so push is
// amortized O(1) and capacity never exceeds four times the bucket's peak
// live count.
func (b *bucket) push(p window.Point) {
	if len(b.xs)+len(p) > cap(b.xs) {
		dst := b.xs[:0]
		if 2*b.head <= len(b.xs) {
			dst = make([]float64, 0, max(2*cap(b.xs), 4*len(p)))
		}
		b.xs, b.head = append(dst, b.xs[b.head:]...), 0
	}
	b.xs = append(b.xs, p...)
}

// remove deletes the oldest point equal to p, reporting whether there was
// one. The oldest point of the bucket pops in O(1); any other closes the
// gap, keeping arrival order.
func (b *bucket) remove(p window.Point) bool {
	dim := len(p)
	for i := b.head; i < len(b.xs); i += dim {
		if !p.Equal(b.xs[i : i+dim]) {
			continue
		}
		if i == b.head {
			b.head += dim
			if b.head == len(b.xs) {
				b.xs, b.head = b.xs[:0], 0
			}
		} else {
			b.xs = append(b.xs[:i], b.xs[i+dim:]...)
		}
		return true
	}
	return false
}

// NewDynIndex returns an empty incremental index for dim-dimensional
// points with cell side r.
func NewDynIndex(r float64, dim int) *DynIndex {
	if r <= 0 || math.IsNaN(r) {
		panic(fmt.Sprintf("distance: cell size %v must be positive", r))
	}
	if dim <= 0 {
		panic(fmt.Sprintf("distance: dim %d must be positive", dim))
	}
	return &DynIndex{
		cell:    r,
		dim:     dim,
		cells:   make(map[string]*bucket),
		coords:  make([]int, dim),
		base:    make([]int, dim),
		offsets: make([]int, dim),
		keyBuf:  make([]byte, 0, dim*5),
	}
}

// Len returns the number of indexed points.
func (d *DynIndex) Len() int { return d.n }

// encodeKey writes the cell key of coords into the reusable key buffer.
func (d *DynIndex) encodeKey(coords []int) {
	d.keyBuf = AppendCellKey(d.keyBuf[:0], coords)
}

// keyFor encodes the cell key of p into the key buffer.
func (d *DynIndex) keyFor(p window.Point) {
	for i, x := range p {
		d.coords[i] = int(math.Floor(x / d.cell))
	}
	d.encodeKey(d.coords)
}

// Add indexes a copy of p; the caller keeps ownership of p's storage.
func (d *DynIndex) Add(p window.Point) {
	if len(p) != d.dim {
		panic(fmt.Sprintf("distance: point dim %d, index dim %d", len(p), d.dim))
	}
	d.keyFor(p)
	b := d.cells[string(d.keyBuf)] // string conversion: no alloc on lookup
	if b == nil {
		// First time this cell is touched: one map insert, then the
		// bucket persists for the index's lifetime.
		b = &bucket{}
		d.cells[string(d.keyBuf)] = b
	}
	b.push(p)
	d.n++
}

// Remove un-indexes one point with coordinates equal to p — the oldest
// such point, though equal points are indistinguishable, so removal is
// exact multiset removal. It returns false when no such point is present
// (a window bookkeeping bug in the caller). The search runs oldest-first:
// evicting a window's oldest point costs one compare, an arbitrary-order
// removal up to the cell's occupancy. Emptied cells keep their bucket so
// later refills reuse it.
func (d *DynIndex) Remove(p window.Point) bool {
	if len(p) != d.dim {
		panic(fmt.Sprintf("distance: point dim %d, index dim %d", len(p), d.dim))
	}
	d.keyFor(p)
	b := d.cells[string(d.keyBuf)]
	if b == nil || !b.remove(p) {
		return false
	}
	d.n--
	return true
}

// scanOrder is one dimension's cell offsets in visiting order.
var scanOrder = [3]int{0, -1, 1}

// scan counts points within L∞ radius r of p across the 3^d adjacent
// cells, stopping early once limit is reached (limit <= 0 scans fully).
// The offset walk is an iterative odometer over scanOrder^dim, so the
// query's own cell, which holds most of its neighbours, comes first and an
// early exit usually stops there. d.offsets holds indexes into scanOrder.
func (d *DynIndex) scan(p window.Point, r float64, limit int) int {
	d.validate(p, r)
	if d.n == 0 {
		return 0
	}
	for i, x := range p {
		d.base[i] = int(math.Floor(x / d.cell))
	}
	for i := range d.offsets {
		d.offsets[i] = 0
	}
	count := 0
	for {
		for i := range d.coords {
			d.coords[i] = d.base[i] + scanOrder[d.offsets[i]]
		}
		d.encodeKey(d.coords)
		if b := d.cells[string(d.keyBuf)]; b != nil {
			for i := b.head; i < len(b.xs); i += d.dim {
				if within(p, b.xs[i:i+d.dim], r) {
					count++
					if limit > 0 && count >= limit {
						return count
					}
				}
			}
		}
		k := d.dim - 1
		for k >= 0 {
			d.offsets[k]++
			if d.offsets[k] < len(scanOrder) {
				break
			}
			d.offsets[k] = 0
			k--
		}
		if k < 0 {
			return count
		}
	}
}

// validate rejects malformed queries by panic: a radius beyond the cell
// size (the 3^d scan would miss neighbors) or a point of the wrong
// dimensionality.
func (d *DynIndex) validate(p window.Point, r float64) {
	if r > d.cell+1e-15 {
		panic(fmt.Sprintf("distance: query radius %v exceeds index cell %v", r, d.cell))
	}
	if len(p) != d.dim {
		panic(fmt.Sprintf("distance: query dim %d, index dim %d", len(p), d.dim))
	}
}

// Count returns the exact number of indexed points within L∞ radius r of
// p, for r up to the cell size.
func (d *DynIndex) Count(p window.Point, r float64) int {
	return d.scan(p, r, 0)
}

// CountUpTo counts points within L∞ radius r of p but stops as soon as the
// count reaches limit, returning limit. Outlier decisions only need to
// know whether the count clears the threshold, and dense neighborhoods —
// the overwhelmingly common case — exit after ~limit point checks instead
// of scanning thousands, which is what makes exact per-arrival ground
// truth affordable at the paper's window sizes.
func (d *DynIndex) CountUpTo(p window.Point, r float64, limit int) int {
	if limit <= 0 {
		// Still validate the query so misuse panics identically to Count.
		d.validate(p, r)
		return 0
	}
	return d.scan(p, r, limit)
}

// IsOutlier applies the (D,r) criterion for p against the indexed set,
// counting p itself only if it has been added.
func (d *DynIndex) IsOutlier(p window.Point, prm Params) bool {
	limit := int(math.Ceil(prm.Threshold))
	return float64(d.CountUpTo(p, prm.Radius, limit)) < prm.Threshold
}
