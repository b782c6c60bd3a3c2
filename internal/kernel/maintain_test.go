package kernel

import (
	"math"
	"math/rand"
	"testing"

	"odds/internal/window"
)

// slotSim mirrors the live slot contents a maintained estimator should
// reflect, and can build the from-scratch reference estimator for them.
type slotSim struct {
	maxSlots int
	dim      int
	pts      []window.Point // by slot; nil = empty
}

func newSlotSim(maxSlots, dim int) *slotSim {
	return &slotSim{maxSlots: maxSlots, dim: dim, pts: make([]window.Point, maxSlots)}
}

func (s *slotSim) occupied() int {
	n := 0
	for _, p := range s.pts {
		if p != nil {
			n++
		}
	}
	return n
}

// reference builds the from-scratch estimator over the live slots in
// ascending slot order — exactly what the detector's plain path does.
func (s *slotSim) reference(t *testing.T, bw []float64, wc float64) *Estimator {
	t.Helper()
	var pts []window.Point
	for _, p := range s.pts {
		if p != nil {
			pts = append(pts, p)
		}
	}
	ref, err := New(pts, bw, wc)
	if err != nil {
		t.Fatalf("reference New: %v", err)
	}
	return ref
}

func (s *slotSim) liveSlots() ([]window.Point, []int) {
	var pts []window.Point
	var slots []int
	for i, p := range s.pts {
		if p != nil {
			pts = append(pts, p)
			slots = append(slots, i)
		}
	}
	return pts, slots
}

func randPoint(rng *rand.Rand, dim int) window.Point {
	p := make(window.Point, dim)
	for i := range p {
		p[i] = rng.Float64()
	}
	return p
}

func randBandwidths(rng *rand.Rand, dim int) []float64 {
	bw := make([]float64, dim)
	for i := range bw {
		bw[i] = 0.001 + 0.2*rng.Float64()
	}
	return bw
}

// checkBitIdentical asserts that got answers a battery of queries with
// exactly the bits of want: point densities at centers and random points,
// pruned and naive box probabilities, and box counts.
func checkBitIdentical(t *testing.T, got, want *Estimator, rng *rand.Rand, tag string) {
	t.Helper()
	if got.SampleSize() != want.SampleSize() {
		t.Fatalf("%s: sample size %d, want %d", tag, got.SampleSize(), want.SampleSize())
	}
	if got.Dim() != want.Dim() {
		t.Fatalf("%s: dim %d, want %d", tag, got.Dim(), want.Dim())
	}
	dim := want.Dim()
	eq := func(a, b float64, what string) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %s = %v (%#x), want %v (%#x)", tag, what, a, math.Float64bits(a), b, math.Float64bits(b))
		}
	}
	queries := want.Centers()
	for k := 0; k < 8; k++ {
		queries = append(queries, randPoint(rng, dim))
	}
	lo := make([]float64, dim)
	hi := make([]float64, dim)
	for _, q := range queries {
		eq(got.Density(q), want.Density(q), "Density")
		for i := range lo {
			w := 0.3 * rng.Float64()
			lo[i], hi[i] = q[i]-w, q[i]+w
		}
		eq(got.ProbBox(lo, hi), want.ProbBox(lo, hi), "ProbBox")
		eq(got.ProbBoxNaive(lo, hi), want.ProbBoxNaive(lo, hi), "ProbBoxNaive")
		eq(got.CountBox(lo, hi), want.CountBox(lo, hi), "CountBox")
	}
}

// TestNewMaintainedMatchesNew checks the constructor alone: a maintained
// estimator over ascending-slot input answers exactly like New.
func TestNewMaintainedMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 2, 3, 5} {
		for _, n := range []int{1, 2, 7, 40} {
			sim := newSlotSim(n+5, dim)
			for i := 0; i < n; i++ {
				sim.pts[rng.Intn(sim.maxSlots)] = randPoint(rng, dim)
			}
			if sim.occupied() == 0 {
				sim.pts[0] = randPoint(rng, dim)
			}
			bw := randBandwidths(rng, dim)
			wc := 1 + 1000*rng.Float64()
			pts, slots := sim.liveSlots()
			m, err := NewMaintained(pts, slots, sim.maxSlots, bw, wc)
			if err != nil {
				t.Fatalf("NewMaintained: %v", err)
			}
			checkBitIdentical(t, m, sim.reference(t, bw, wc), rng, "ctor")
		}
	}
}

// applyRandomCycle mutates sim and patches m to match: a handful of slot
// changes (insert, replace, clear) plus fresh bandwidths and window count.
func applyRandomCycle(t *testing.T, m *Estimator, sim *slotSim, rng *rand.Rand) ([]float64, float64) {
	t.Helper()
	m.BeginMaintain()
	ops := 1 + rng.Intn(6)
	touched := map[int]bool{}
	for i := 0; i < ops; i++ {
		s := rng.Intn(sim.maxSlots)
		if touched[s] {
			continue
		}
		touched[s] = true
		var p window.Point
		switch {
		case rng.Float64() < 0.25 && sim.occupied() > 1:
			p = nil // slot goes empty
		default:
			p = randPoint(rng, sim.dim)
		}
		// Never empty the whole sample: FinishMaintain requires live > 0.
		if p == nil && sim.pts[s] != nil && sim.occupied() == 1 {
			p = randPoint(rng, sim.dim)
		}
		sim.pts[s] = p
		m.SetSlot(s, p)
	}
	bw := randBandwidths(rng, sim.dim)
	wc := 1 + 1000*rng.Float64()
	if err := m.FinishMaintain(bw, wc); err != nil {
		t.Fatalf("FinishMaintain: %v", err)
	}
	return bw, wc
}

// TestMaintainedDifferential drives long random maintenance histories and
// demands bit-identical query answers against a from-scratch build at
// every step — the incremental scheme's core contract.
func TestMaintainedDifferential(t *testing.T) {
	cycles := 60
	if testing.Short() {
		cycles = 15
	}
	for _, tc := range []struct {
		dim, maxSlots int
		seed          int64
	}{
		{1, 8, 1},
		{2, 16, 2},
		{3, 12, 3},
		{2, 64, 4},
		{5, 10, 5},
	} {
		rng := rand.New(rand.NewSource(tc.seed))
		sim := newSlotSim(tc.maxSlots, tc.dim)
		n := 1 + rng.Intn(tc.maxSlots)
		for len(func() []int { _, s := sim.liveSlots(); return s }()) < n {
			sim.pts[rng.Intn(tc.maxSlots)] = randPoint(rng, tc.dim)
		}
		bw := randBandwidths(rng, tc.dim)
		wc := 1 + 1000*rng.Float64()
		pts, slots := sim.liveSlots()
		m, err := NewMaintained(pts, slots, tc.maxSlots, bw, wc)
		if err != nil {
			t.Fatalf("NewMaintained: %v", err)
		}
		for c := 0; c < cycles; c++ {
			bw, wc = applyRandomCycle(t, m, sim, rng)
			checkBitIdentical(t, m, sim.reference(t, bw, wc), rng, "cycle")
		}
		st := m.MaintainStats()
		if st.Patches != uint64(cycles) {
			t.Fatalf("patches %d, want %d", st.Patches, cycles)
		}
	}
}

// TestMaintainedMarshalRoundTrip checks that a maintained model survives a
// wire round trip with byte-identical re-encoding (the serving layer's
// snapshot determinism contract) and bit-identical queries, and that
// maintenance can continue on the restored model.
func TestMaintainedMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sim := newSlotSim(20, 2)
	for i := 0; i < 12; i++ {
		sim.pts[rng.Intn(sim.maxSlots)] = randPoint(rng, 2)
	}
	pts, slots := sim.liveSlots()
	bw := randBandwidths(rng, 2)
	m, err := NewMaintained(pts, slots, sim.maxSlots, bw, 500)
	if err != nil {
		t.Fatalf("NewMaintained: %v", err)
	}
	wc := 500.0
	for c := 0; c < 10; c++ {
		bw, wc = applyRandomCycle(t, m, sim, rng)
	}

	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if len(blob) != m.MarshaledSize() {
		t.Fatalf("blob %d bytes, MarshaledSize %d", len(blob), m.MarshaledSize())
	}
	back, err := UnmarshalEstimator(blob, m.MaxSlots())
	if err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !back.IsMaintained() {
		t.Fatalf("restored model lost maintained state")
	}
	blob2, err := back.MarshalBinary()
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if string(blob) != string(blob2) {
		t.Fatalf("re-marshal not byte-identical")
	}
	checkBitIdentical(t, back, sim.reference(t, bw, wc), rng, "restored")

	// Maintenance continues identically on both instances.
	simCopy := newSlotSim(sim.maxSlots, sim.dim)
	copy(simCopy.pts, sim.pts)
	r2 := rand.New(rand.NewSource(99))
	bw, wc = applyRandomCycle(t, m, sim, r2)
	r3 := rand.New(rand.NewSource(99))
	if b2, w2 := applyRandomCycle(t, back, simCopy, r3); b2[0] != bw[0] || w2 != wc {
		t.Fatalf("divergent cycle replay")
	}
	checkBitIdentical(t, back, m, rng, "restored+patched")
	checkBitIdentical(t, m, sim.reference(t, bw, wc), rng, "original+patched")
}

// TestMarshalDuringCycleFails pins the marshal guard: the physical layout
// mid-cycle is not a consistent model.
func TestMarshalDuringCycleFails(t *testing.T) {
	m, err := NewMaintained(pts1(0.1, 0.5), []int{0, 1}, 4, []float64{0.1}, 10)
	if err != nil {
		t.Fatalf("NewMaintained: %v", err)
	}
	m.BeginMaintain()
	if _, err := m.MarshalBinary(); err == nil {
		t.Fatalf("marshal mid-cycle succeeded")
	}
	if err := m.FinishMaintain([]float64{0.1}, 10); err != nil {
		t.Fatalf("FinishMaintain: %v", err)
	}
	if _, err := m.MarshalBinary(); err != nil {
		t.Fatalf("marshal after cycle: %v", err)
	}
}

// TestSetWindowCountInPlace pins the warm-up rescale contract: the model
// pointer and centers stay put, only the scale and generation move.
func TestSetWindowCountInPlace(t *testing.T) {
	m, err := NewMaintained(pts1(0.1, 0.5, 0.9), []int{0, 2, 5}, 8, []float64{0.1}, 10)
	if err != nil {
		t.Fatalf("NewMaintained: %v", err)
	}
	ref, err := New(pts1(0.1, 0.5, 0.9), []float64{0.1}, 20)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g0 := m.Gen()
	m.SetWindowCount(20)
	if m.Gen() != g0+1 {
		t.Fatalf("gen %d, want %d", m.Gen(), g0+1)
	}
	m.SetWindowCount(20) // no-op keeps the generation
	if m.Gen() != g0+1 {
		t.Fatalf("no-op rescale bumped gen to %d", m.Gen())
	}
	rng := rand.New(rand.NewSource(3))
	checkBitIdentical(t, m, ref, rng, "rescaled")

	imm, err := New(pts1(0.5), []float64{0.1}, 10)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("SetWindowCount on immutable did not panic")
			}
		}()
		imm.SetWindowCount(20)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("WithWindowCount on maintained did not panic")
			}
		}()
		m.WithWindowCount(30)
	}()
}

// TestMaintainedGuardrails pins the amortization contract on a
// steady-state sliding workload: tombstones stay under the density limit
// and relayouts stay rare relative to patches.
func TestMaintainedGuardrails(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const maxSlots = 64
	sim := newSlotSim(maxSlots, 2)
	for s := 0; s < maxSlots; s++ {
		sim.pts[s] = randPoint(rng, 2)
	}
	pts, slots := sim.liveSlots()
	bw := []float64{0.05, 0.05}
	m, err := NewMaintained(pts, slots, maxSlots, bw, 1000)
	if err != nil {
		t.Fatalf("NewMaintained: %v", err)
	}
	const cycles = 500
	for c := 0; c < cycles; c++ {
		// Steady state: every cycle replaces a couple of slots, like a
		// window slide swapping a few chain-sample entries.
		m.BeginMaintain()
		for i := 0; i < 2; i++ {
			s := rng.Intn(maxSlots)
			sim.pts[s] = randPoint(rng, 2)
			m.SetSlot(s, sim.pts[s])
		}
		if err := m.FinishMaintain(bw, 1000); err != nil {
			t.Fatalf("FinishMaintain: %v", err)
		}
		if tl := m.MaintainStats().Tombstones; tl >= m.TombstoneLimit() {
			t.Fatalf("cycle %d: %d tombstones at/over limit %d", c, tl, m.TombstoneLimit())
		}
	}
	st := m.MaintainStats()
	if st.Patches != cycles {
		t.Fatalf("patches %d, want %d", st.Patches, cycles)
	}
	// Stable bandwidths on a stationary stream: the prune decision should
	// essentially never flip, so relayouts stay a tiny fraction of patches.
	if st.Relayouts > cycles/10 {
		t.Fatalf("%d relayouts over %d patches — amortization broken", st.Relayouts, st.Patches)
	}
	rngq := rand.New(rand.NewSource(1))
	checkBitIdentical(t, m, sim.reference(t, bw, 1000), rngq, "steady")
}
