package distance

import (
	"testing"

	"odds/internal/stats"
	"odds/internal/window"
)

// FuzzDynIndex differential-tests the index against a plain slice in
// arrival order and CountNaive. Coordinates come from a half-cell grid
// (cell 0.05, step 0.025, both signs), so duplicates, points on cell
// boundaries and neighbors at exactly the query radius are the common
// case. Each op consumes one opcode byte and its operand bytes.
func FuzzDynIndex(f *testing.F) {
	f.Add(uint8(0), []byte{0, 3, 0, 3, 0, 4, 3, 3, 1, 3, 3, 2, 3, 2, 3})
	f.Add(uint8(1), []byte{0, 1, 2, 0, 1, 2, 0, 2, 2, 4, 1, 2, 1, 2, 1, 2, 1, 2, 9})
	f.Add(uint8(2), []byte{0, 5, 5, 5, 0, 5, 5, 6, 0, 5, 5, 5, 1, 0, 7, 7, 7, 3, 5, 5, 5, 2, 5, 5, 5})
	f.Fuzz(func(t *testing.T, dimSel uint8, ops []byte) {
		const cell = 0.05
		dim := int(dimSel)%3 + 1
		d := NewDynIndex(cell, dim)
		var model []window.Point // the indexed multiset, oldest first
		point := func() window.Point {
			p := make(window.Point, dim)
			for j := range p {
				if len(ops) > 0 {
					p[j] = float64(int(ops[0]%12)-3) * (cell / 2)
					ops = ops[1:]
				}
			}
			return p
		}
		remove := func(p window.Point) {
			at := -1
			for i, q := range model {
				if p.Equal(q) {
					at = i
					break
				}
			}
			if got := d.Remove(p); got != (at >= 0) {
				t.Fatalf("Remove(%v) = %v with the point at model[%d]", p, got, at)
			}
			if at >= 0 {
				model = append(model[:at], model[at+1:]...)
			}
		}
		for len(ops) > 0 {
			op := ops[0] % 5
			ops = ops[1:]
			switch op {
			case 0:
				p := point()
				d.Add(p)
				model = append(model, p.Clone())
				p[0] = 99 // the index must hold a copy
			case 1: // the FIFO slide's eviction
				if len(model) > 0 {
					remove(model[0])
				}
			case 2: // any point, present or not
				remove(point())
			case 3:
				p := point()
				if got, want := d.Count(p, cell), CountNaive(model, p, cell); got != want {
					t.Fatalf("Count(%v) = %d, naive %d", p, got, want)
				}
			case 4:
				p := point()
				limit := 0
				if len(ops) > 0 {
					limit, ops = int(ops[0]%8)-1, ops[1:]
				}
				want := min(CountNaive(model, p, cell), max(limit, 0))
				if got := d.CountUpTo(p, cell, limit); got != want {
					t.Fatalf("CountUpTo(%v, %d) = %d, want %d", p, limit, got, want)
				}
			}
			if d.Len() != len(model) {
				t.Fatalf("Len = %d, model holds %d", d.Len(), len(model))
			}
		}
		for len(model) > 0 {
			remove(model[len(model)/2])
		}
	})
}

// TestDynIndexCountUpToIsOrderFree pins that the early exit does not make
// the answer depend on the order cells are visited in: for every limit,
// CountUpTo is Count clipped at limit.
func TestDynIndexCountUpToIsOrderFree(t *testing.T) {
	for dim := 1; dim <= 3; dim++ {
		pts := randPts(int64(40+dim), 600, dim)
		for _, p := range pts {
			for j := range p {
				p[j] = 0.4 + 0.2*p[j] // a dense neighborhood in every adjacent cell
			}
		}
		d := NewDynIndex(0.05, dim)
		for _, p := range pts {
			d.Add(p)
		}
		for _, p := range pts[:60] {
			full := d.Count(p, 0.05)
			for _, limit := range []int{1, 2, 5, full - 1, full, full + 1, 2 * full} {
				if got, want := d.CountUpTo(p, 0.05, limit), min(full, max(limit, 0)); got != want {
					t.Fatalf("dim %d: CountUpTo(%v, %d) = %d, Count = %d", dim, p, limit, got, full)
				}
			}
		}
	}
}

// TestDynIndexBucketCapacityBounded slides FIFO windows of changing size
// over a handful of cells for many window lengths and checks the two
// halves of the compaction rule after every single Add and Remove: a
// bucket's capacity never exceeds four times its peak live count (dead
// prefixes are reclaimed rather than grown past), and live points are
// relocated in bulk — fewer moves in total than points added — rather than
// shifted down on every pop. A relocation shows as the newest point's
// storage changing address across an op that did not touch it.
func TestDynIndexBucketCapacityBounded(t *testing.T) {
	for dim := 1; dim <= 3; dim++ {
		r := stats.NewRand(int64(70 + dim))
		d := NewDynIndex(0.25, dim) // ≤ 4 cells a dimension over [0,1)
		peak := map[*bucket]int{}
		adds, moves := 0, 0
		live := func(b *bucket) int { return (len(b.xs) - b.head) / dim }
		// op applies one Add or Remove of p and audits p's bucket.
		op := func(p window.Point, add bool) {
			d.keyFor(p)
			b := d.cells[string(d.keyBuf)]
			var newest *float64
			if b != nil && live(b) > 0 {
				newest = &b.xs[len(b.xs)-dim]
			}
			at := dim // where the untouched newest point sits after a Remove
			if add {
				d.Add(p)
				adds++
				b, at = d.cells[string(d.keyBuf)], 2*dim
			} else if !d.Remove(p) {
				t.Fatalf("dim %d: lost %v", dim, p)
			}
			if n := live(b); newest != nil && n*dim >= at && &b.xs[len(b.xs)-at] != newest {
				moves += n
			}
			peak[b] = max(peak[b], live(b))
			if cap(b.xs) > 4*dim*peak[b] {
				t.Fatalf("dim %d: bucket capacity %d points, peak live count %d", dim, cap(b.xs)/dim, peak[b])
			}
		}
		var win []window.Point
		for _, wcap := range []int{300, 40, 1, 300, 7, 120} {
			for i := 0; i < 20*300; i++ {
				p := make(window.Point, dim)
				for j := range p {
					p[j] = r.Float64() * r.Float64() // skewed: one crowded cell, some sparse
				}
				op(p, true)
				for win = append(win, p); len(win) > wcap; win = win[1:] {
					op(win[0], false)
				}
			}
		}
		if moves == 0 || moves > adds {
			t.Errorf("dim %d: %d point moves over %d adds; want some, and fewer than adds", dim, moves, adds)
		}
		if d.Len() != len(win) {
			t.Fatalf("dim %d: Len = %d, window holds %d", dim, d.Len(), len(win))
		}
	}
}
