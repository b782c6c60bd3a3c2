package quantile

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"odds/internal/stats"
)

func TestNewPanics(t *testing.T) {
	for _, eps := range []float64{0, -0.1, 0.6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("eps=%v: no panic", eps)
				}
			}()
			New(eps)
		}()
	}
}

func TestEmptySummary(t *testing.T) {
	s := New(0.01)
	if !math.IsNaN(s.Query(0.5)) {
		t.Error("empty query should be NaN")
	}
	if s.N() != 0 {
		t.Error("empty N wrong")
	}
}

func TestInsertNaNPanics(t *testing.T) {
	s := New(0.01)
	defer func() {
		if recover() == nil {
			t.Error("NaN insert did not panic")
		}
	}()
	s.Insert(math.NaN())
}

func TestQueryBadPhi(t *testing.T) {
	s := New(0.01)
	s.Insert(1)
	if !math.IsNaN(s.Query(-0.1)) || !math.IsNaN(s.Query(1.1)) || !math.IsNaN(s.Query(math.NaN())) {
		t.Error("bad phi should be NaN")
	}
}

// rankOf returns the true rank of v in sorted xs (1-based count ≤ v).
func rankOf(sorted []float64, v float64) int {
	return sort.SearchFloat64s(sorted, math.Nextafter(v, math.Inf(1)))
}

func checkErrorBound(t *testing.T, xs []float64, eps float64, phis []float64) {
	t.Helper()
	s := New(eps)
	for _, x := range xs {
		s.Insert(x)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(xs))
	for _, phi := range phis {
		got := s.Query(phi)
		gotRank := float64(rankOf(sorted, got))
		wantRank := math.Ceil(phi * n)
		if math.Abs(gotRank-wantRank) > 2*eps*n+1 {
			t.Errorf("phi=%v: rank %v, want %v ± %v", phi, gotRank, wantRank, 2*eps*n+1)
		}
	}
}

func TestRankErrorUniform(t *testing.T) {
	r := stats.NewRand(1)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	checkErrorBound(t, xs, 0.01, []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1})
}

func TestRankErrorSkewed(t *testing.T) {
	r := stats.NewRand(2)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = math.Exp(r.NormFloat64())
	}
	checkErrorBound(t, xs, 0.02, []float64{0.05, 0.5, 0.95})
}

func TestRankErrorSortedInput(t *testing.T) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i)
	}
	checkErrorBound(t, xs, 0.01, []float64{0.1, 0.5, 0.9})
}

func TestRankErrorReverseSorted(t *testing.T) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(len(xs) - i)
	}
	checkErrorBound(t, xs, 0.01, []float64{0.1, 0.5, 0.9})
}

func TestDuplicateHeavy(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = float64(i % 3)
	}
	s := New(0.01)
	for _, x := range xs {
		s.Insert(x)
	}
	med := s.Query(0.5)
	if med != 1 {
		t.Errorf("median of {0,1,2}-repeats = %v, want 1", med)
	}
}

func TestSpaceSublinear(t *testing.T) {
	s := New(0.01)
	r := stats.NewRand(3)
	for i := 0; i < 100000; i++ {
		s.Insert(r.Float64())
	}
	if tuples := s.Tuples(); tuples > 2000 {
		t.Errorf("summary holds %d tuples for n=100000, eps=0.01 — not sublinear", tuples)
	}
	if s.MemoryNumbers() != 3*s.Tuples() {
		t.Error("memory accounting wrong")
	}
	if s.N() != 100000 {
		t.Errorf("N = %d", s.N())
	}
}

func TestQuantilesMonotone(t *testing.T) {
	s := New(0.02)
	r := stats.NewRand(4)
	for i := 0; i < 10000; i++ {
		s.Insert(r.NormFloat64())
	}
	var qs []float64
	for _, phi := range []float64{0, 0.25, 0.5, 0.75, 1} {
		qs = append(qs, s.Query(phi))
	}
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			t.Fatalf("quantiles not monotone: %v", qs)
		}
	}
}

func TestMedianMatchesExactProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw[:0]
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) < 10 {
			return true
		}
		s := New(0.05)
		for _, x := range xs {
			s.Insert(x)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		got := s.Query(0.5)
		gotRank := float64(rankOf(sorted, got))
		want := math.Ceil(0.5 * float64(len(xs)))
		return math.Abs(gotRank-want) <= 2*0.05*float64(len(xs))+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeAcrossStreams(t *testing.T) {
	// Two sensors observe disjoint halves of [0,1]; the merged summary
	// must answer quantiles over the union.
	r := stats.NewRand(7)
	a, b := New(0.01), New(0.01)
	var all []float64
	for i := 0; i < 8000; i++ {
		x := r.Float64() / 2
		a.Insert(x)
		all = append(all, x)
	}
	for i := 0; i < 8000; i++ {
		x := 0.5 + r.Float64()/2
		b.Insert(x)
		all = append(all, x)
	}
	m := Merge(a, b)
	if m.N() != 16000 {
		t.Fatalf("merged N = %d", m.N())
	}
	if m.Eps() <= 0.01 {
		t.Error("merged eps must widen")
	}
	sorted := append([]float64(nil), all...)
	sort.Float64s(sorted)
	for _, phi := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
		got := m.Query(phi)
		gotRank := float64(rankOf(sorted, got))
		want := math.Ceil(phi * 16000)
		if math.Abs(gotRank-want) > 2*m.Eps()*16000+1 {
			t.Errorf("phi=%v: rank %v, want %v", phi, gotRank, want)
		}
	}
	// The median of the union must sit near the seam.
	if med := m.Query(0.5); math.Abs(med-0.5) > 0.03 {
		t.Errorf("merged median = %v, want ≈0.5", med)
	}
}

func TestMergeHierarchy(t *testing.T) {
	// Three-level aggregation: 4 leaves → 2 mid → 1 root.
	r := stats.NewRand(8)
	leaves := make([]*GK, 4)
	var all []float64
	for i := range leaves {
		leaves[i] = New(0.01)
		for j := 0; j < 4000; j++ {
			x := r.NormFloat64()
			leaves[i].Insert(x)
			all = append(all, x)
		}
	}
	root := Merge(Merge(leaves[0], leaves[1]), Merge(leaves[2], leaves[3]))
	sorted := append([]float64(nil), all...)
	sort.Float64s(sorted)
	got := root.Query(0.5)
	gotRank := float64(rankOf(sorted, got))
	want := math.Ceil(0.5 * float64(len(all)))
	if math.Abs(gotRank-want) > 2*root.Eps()*float64(len(all))+1 {
		t.Errorf("hierarchical median rank %v, want %v ± %v", gotRank, want, 2*root.Eps()*float64(len(all)))
	}
}

func TestExtremesExact(t *testing.T) {
	s := New(0.05)
	for _, x := range []float64{5, 1, 9, 3, 7} {
		s.Insert(x)
	}
	if got := s.Query(0); got != 1 {
		t.Errorf("min = %v, want 1", got)
	}
	if got := s.Query(1); got != 9 {
		t.Errorf("max = %v, want 9", got)
	}
}

// refFlush is the two-pass flush the fused GK.flush replaced, kept as the
// reference the tests and FuzzGK compare against: sort.Float64s, a merge
// into scratch, then a second full walk in compress.
func refFlush(s *GK) {
	if len(s.pending) == 0 {
		return
	}
	sort.Float64s(s.pending)
	maxD := int(2 * s.eps * float64(s.n+len(s.pending)))
	merged := s.scratch[:0]
	i, j := 0, 0
	for i < len(s.tuples) || j < len(s.pending) {
		if j >= len(s.pending) || (i < len(s.tuples) && s.tuples[i].v <= s.pending[j]) {
			merged = append(merged, s.tuples[i])
			i++
			continue
		}
		d := 0
		if i > 0 && i < len(s.tuples) {
			d = maxD - 1
			if d < 0 {
				d = 0
			}
		}
		merged = append(merged, tuple{v: s.pending[j], g: 1, d: d})
		j++
	}
	s.n += len(s.pending)
	s.pending = s.pending[:0]
	s.tuples, s.scratch = merged, s.tuples[:0]
	s.compress()
}

// refInsert is Insert with refFlush at the batch boundary.
func refInsert(s *GK, x float64) {
	s.pending = append(s.pending, x)
	if len(s.pending) >= s.batch {
		refFlush(s)
	}
}

// sameBits is float equality by bit pattern: −0 and +0 differ.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameSummary fails unless got and ref hold the same n, the same pending
// values and the same tuples, values compared with sameV.
func sameSummary(t *testing.T, got, ref *GK, sameV func(a, b float64) bool, at string) {
	t.Helper()
	if got.n != ref.n || len(got.pending) != len(ref.pending) || len(got.tuples) != len(ref.tuples) {
		t.Fatalf("%s: n %d pending %d tuples %d, reference n %d pending %d tuples %d",
			at, got.n, len(got.pending), len(got.tuples), ref.n, len(ref.pending), len(ref.tuples))
	}
	for i, x := range got.pending {
		if !sameV(x, ref.pending[i]) {
			t.Fatalf("%s: pending[%d] = %v, reference %v", at, i, x, ref.pending[i])
		}
	}
	for i, g := range got.tuples {
		r := ref.tuples[i]
		if !sameV(g.v, r.v) || g.g != r.g || g.d != r.d {
			t.Fatalf("%s: tuple %d = %+v, reference %+v", at, i, g, r)
		}
	}
}

// flushLengths is every pending length from 1 past the insertion-sort
// cutoff, then strides up to 3×batch.
func flushLengths(batch int) []int {
	var ls []int
	for l := 1; l <= insertionCutoff+16; l++ {
		ls = append(ls, l)
	}
	for l := insertionCutoff + 17; l < 3*batch; l += 1 + batch/8 {
		ls = append(ls, l)
	}
	return append(ls, 3*batch)
}

// TestFusedFlushMatchesTwoPass pins the one-pass flush against the
// two-pass flush it replaced: over five ε, five input shapes and pending
// lengths on both sides of the insertion-sort cutoff, every flush leaves
// bit-identical tuples, n and pending.
func TestFusedFlushMatchesTwoPass(t *testing.T) {
	shapes := []struct {
		name string
		next func(r *rand.Rand, i int) float64
	}{
		{"uniform", func(r *rand.Rand, i int) float64 { return r.Float64() }},
		{"sorted", func(r *rand.Rand, i int) float64 { return float64(i) }},
		{"reverse", func(r *rand.Rand, i int) float64 { return -float64(i) }},
		{"duplicates", func(r *rand.Rand, i int) float64 { return float64(r.Intn(7)) }},
		{"infinities", func(r *rand.Rand, i int) float64 {
			switch r.Intn(10) {
			case 0:
				return math.Inf(1)
			case 1:
				return math.Inf(-1)
			}
			return r.NormFloat64()
		}},
	}
	for _, eps := range []float64{0.5, 0.1, 0.02, 0.01, 0.001} {
		for _, sh := range shapes {
			got, ref := New(eps), New(eps)
			r := stats.NewRand(int64(1000 * eps))
			i := 0
			for _, l := range flushLengths(got.batch) {
				for k := 0; k < l; k++ {
					x := sh.next(r, i)
					i++
					got.pending = append(got.pending, x)
					ref.pending = append(ref.pending, x)
				}
				got.flush()
				refFlush(ref)
				sameSummary(t, got, ref, sameBits, fmt.Sprintf("eps %v %s after %d values (flush of %d)", eps, sh.name, i, l))
			}
		}
	}
}

// TestFlushSignedZeroOrder documents the one place two correct sorts may
// disagree: −0 and +0 compare equal. Ranks (g, Δ) never depend on their
// order, so the fused flush equals the reference up to the sign of zero;
// what the code does with the sign is: a tuple stays ahead of a pending
// value it ties with, and up to insertionCutoff pending values ties keep
// arrival order (past it sort.Float64s decides).
func TestFlushSignedZeroOrder(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// ε = 0.001 leaves a zero merge budget at these sizes, so the tuples
	// are the sorted values themselves.
	got, ref := New(0.001), New(0.001)
	var arrival []bool
	step := func(xs ...float64) {
		t.Helper()
		for _, x := range xs {
			arrival = append(arrival, math.Signbit(x))
		}
		got.pending = append(got.pending, xs...)
		ref.pending = append(ref.pending, xs...)
		got.flush()
		refFlush(ref)
		sameSummary(t, got, ref, func(a, b float64) bool { return a == b }, fmt.Sprintf("after %d zeros", len(arrival)))
	}
	step(negZero)
	// 20 pending values: past the 12 below which sort.Float64s is itself
	// an insertion sort, inside the cutoff.
	var mixed []float64
	for i := 0; i < 20; i++ {
		x := 0.0
		if i%3 == 1 {
			x = negZero
		}
		mixed = append(mixed, x)
	}
	step(mixed...)
	step(0, negZero)
	// Each flush's zeros landed after the tuples already there, in
	// arrival order: the signs read back as they were inserted.
	if len(got.tuples) != len(arrival) {
		t.Fatalf("%d tuples for %d zeros", len(got.tuples), len(arrival))
	}
	for i, tp := range got.tuples {
		if math.Signbit(tp.v) != arrival[i] {
			t.Fatalf("tuple %d has sign bit %t, arrival order had %t", i, math.Signbit(tp.v), arrival[i])
		}
	}
}

// BenchmarkGKFlush prices a flush in the shapes the qn backend drives, on
// a ≈ 40-tuple summary at its ε = 0.02: "diffs" is one arrival's 32
// lagged differences (an Insert-driven flush of 25, then the next
// arrival's Query flushing the other 7), "vals" one value and the Query
// that flushes it.
func BenchmarkGKFlush(b *testing.B) {
	for _, bc := range []struct {
		name    string
		inserts int
	}{{"diffs-25+7", 32}, {"vals-1", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(0.02)
			s.Grow(512)
			r := stats.NewRand(5)
			for i := 0; i < 100000; i++ {
				s.Insert(r.Float64())
			}
			s.flush()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < bc.inserts; k++ {
					s.Insert(r.Float64())
				}
				s.flush()
			}
			b.ReportMetric(float64(len(s.tuples)), "tuples")
		})
	}
}
