package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"odds/internal/binfmt"
	"odds/internal/window"
)

// refLayout is the reference scan order of a from-scratch build, written
// independently of the maintenance code: the ascending-slot input stably
// sorted by the prune coordinate, or left in slot order when no dimension
// prunes. It returns the input indices in scan order.
func refLayout(pts []window.Point, pruneDim int) []int {
	perm := make([]int, len(pts))
	for i := range perm {
		perm[i] = i
	}
	if pruneDim >= 0 {
		sort.SliceStable(perm, func(a, b int) bool {
			return pts[perm[a]][pruneDim] < pts[perm[b]][pruneDim]
		})
	}
	return perm
}

// marshaledSlots reads the slot key of every physical entry from m's
// MarshalBinary blob, failing on a tombstone: a fresh layout has none.
func marshaledSlots(t *testing.T, m *Estimator) []int {
	t.Helper()
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	r := binfmt.NewReader(blob)
	r.U32() // magic
	dim := int(r.U32())
	r.U32() // slot capacity
	slots := make([]int, r.U32())
	r.U32()                        // prune dimension
	r.F64s(make([]float64, 1+dim)) // window count, bandwidths
	for j := range slots {
		slots[j] = int(r.U32())
		if r.U8() != 0 {
			t.Fatalf("entry %d is a tombstone in a fresh layout", j)
		}
		r.F64s(make([]float64, dim))
	}
	if err := r.Done(); err != nil {
		t.Fatalf("blob: %v", err)
	}
	return slots
}

// TestLayoutMatchesStableSortReference pins a fresh model's scan order —
// New over slots 0..n−1 and NewMaintained over sparse slots — to
// refLayout, through both Centers and the slot keys MarshalBinary writes.
// Coordinates sit on a coarse grid so the prune column is full of ties,
// which only the slot tie-break orders.
func TestLayoutMatchesStableSortReference(t *testing.T) {
	for _, tc := range []struct {
		bw        []float64
		wantPrune int
	}{
		{[]float64{0.01}, 0},
		{[]float64{2}, -1},
		{[]float64{0.5, 0.01}, 1},
		{[]float64{2, 2}, -1},
		{[]float64{0.3, 0.01, 0.2}, 1},
		{[]float64{0.01, 0.3, 0.2}, 0},
		{[]float64{2, 2, 2}, -1},
	} {
		dim := len(tc.bw)
		for _, n := range []int{1, 2, 9, 40} {
			for _, sparse := range []bool{false, true} {
				name := fmt.Sprintf("d=%d/prune=%d/n=%d/sparse=%v", dim, tc.wantPrune, n, sparse)
				rng := rand.New(rand.NewSource(int64(100*dim + n)))
				pts := make([]window.Point, n)
				for i := range pts {
					pts[i] = make(window.Point, dim)
					for d := range pts[i] {
						pts[i][d] = float64(rng.Intn(5)) / 4
					}
				}
				// Pin the spread so the prune decision is the case's.
				if n > 1 {
					for d := 0; d < dim; d++ {
						pts[0][d], pts[1][d] = 1, 0
					}
				}
				slots := make([]int, n)
				maxSlots := n
				for i := range slots {
					slots[i] = i
				}
				var m *Estimator
				var err error
				if sparse {
					maxSlots = 3 * n
					next := 0
					for i := range slots {
						next += 1 + rng.Intn(3)
						slots[i] = next - 1
					}
					m, err = NewMaintained(pts, slots, maxSlots, tc.bw, 100)
				} else {
					m, err = New(pts, tc.bw, 100)
				}
				if err != nil {
					t.Fatalf("%s: build: %v", name, err)
				}
				want := tc.wantPrune
				if n == 1 {
					want = -1 // no spread, nothing to prune by
				}
				if m.PruneDim() != want {
					t.Fatalf("%s: prune dim %d, want %d", name, m.PruneDim(), want)
				}
				perm := refLayout(pts, want)
				got := m.Centers()
				gotSlots := marshaledSlots(t, m)
				if len(got) != n || len(gotSlots) != n {
					t.Fatalf("%s: %d centers, %d entries, want %d", name, len(got), len(gotSlots), n)
				}
				for j, src := range perm {
					if gotSlots[j] != slots[src] {
						t.Fatalf("%s: entry %d holds slot %d, want %d", name, j, gotSlots[j], slots[src])
					}
					for d, c := range pts[src] {
						if math.Float64bits(got[j][d]) != math.Float64bits(c) {
							t.Fatalf("%s: center %d = %v, want %v", name, j, got[j], pts[src])
						}
					}
				}
			}
		}
	}
}
