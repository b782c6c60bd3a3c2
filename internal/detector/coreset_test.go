package detector

import (
	"math"
	"testing"

	"odds/internal/kernel"
	"odds/internal/oracle"
	"odds/internal/window"
)

// warmCoreset returns a coreset over oc's stream, fed until its reservoir
// is full and its model built.
func warmCoreset(t *testing.T, oc oracle.Config) *Coreset {
	t.Helper()
	det, err := New(testConfig(KindCoreset, oc.Dim, oc.Seed))
	if err != nil {
		t.Fatal(err)
	}
	c := det.(*Coreset)
	s := oc.NewStream()
	for i := 0; i < oc.Steps; i++ {
		c.Ingest(s.Next())
	}
	if c.model == nil || c.filled != len(c.pts) {
		t.Fatalf("coreset not warm after %d readings: filled %d of %d", oc.Steps, c.filled, len(c.pts))
	}
	return c
}

// TestCoresetKeepsOnlyFiniteReadings: a reading with a non-finite
// coordinate arriving while the reservoir fills is counted and judged but
// never kept, so every kept point stays finite.
func TestCoresetKeepsOnlyFiniteReadings(t *testing.T) {
	cfg := testConfig(KindCoreset, 2, 5)
	det, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := det.(*Coreset)
	s := oracle.Config{Dim: 2, WindowCap: 60, Steps: 200, Seed: 5}.NewStream()
	poison := [][]float64{{math.NaN(), 0.5}, {0.5, math.Inf(1)}, {math.Inf(-1), math.NaN()}}
	for i := 0; i < 200; i++ {
		v := s.Next()
		if i%7 == 3 {
			v = poison[i%len(poison)]
		}
		c.Ingest(v)
	}
	if c.n != 200 {
		t.Fatalf("%d arrivals counted, want 200", c.n)
	}
	for i, p := range c.pts[:c.filled] {
		for d, x := range p {
			if !finite(x) {
				t.Fatalf("kept point %d coordinate %d is %v", i, d, x)
			}
		}
	}
}

// TestCoresetRebuildZeroAllocs: a rebuild after one reservoir slot
// changed patches the model in place without allocating.
func TestCoresetRebuildZeroAllocs(t *testing.T) {
	c := warmCoreset(t, oracle.Config{Dim: 2, WindowCap: 60, Steps: 200, Seed: 9})
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		c.pts[i%c.filled][0] = float64(i%97) / 97
		c.dirty = true
		c.rebuild()
	})
	if allocs != 0 {
		t.Fatalf("coreset rebuild allocates %v per run, want 0", allocs)
	}
}

// TestCoresetModelMatchesFromSample is the differential check behind the
// patched model: over the oracle configs, with snapshot→restore swaps
// mid-stream, the model after every rebuild answers with exactly the bits
// of kernel.FromSample over the reservoir.
func TestCoresetModelMatchesFromSample(t *testing.T) {
	for _, oc := range oracle.Configs(30, 0xbac0de) {
		history := oracleHistory(oc)
		cfg := oracleBackendConfigs(oc)[2]
		if cfg.Kind != KindCoreset {
			t.Fatalf("oracle config %s is not the coreset's", cfg.Kind)
		}
		det, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := det.(*Coreset)
		swapEvery := len(history) / 8
		rebuilds := 0
		for i, v := range history {
			c.Ingest(v)
			if c.model != nil && c.sinceBuild == 0 {
				rebuilds++
				wc := c.modelInputs()
				want, err := kernel.FromSample(c.pts[:c.filled], c.sigmaBuf, wc)
				if err != nil {
					t.Fatal(err)
				}
				if msg := sameModel(c.model, want); msg != "" {
					t.Fatalf("%s step %d: patched model differs from FromSample: %s", oc.Name(), i, msg)
				}
			}
			if i%(2*swapEvery) == swapEvery {
				blob, err := c.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				fresh := newCoreset(cfg.withDefaults(), c.fp)
				if err := fresh.Restore(blob); err != nil {
					t.Fatalf("%s step %d: restore: %v", oc.Name(), i, err)
				}
				c = fresh
			}
		}
		if rebuilds < 2 {
			t.Fatalf("%s: only %d rebuilds; the check never saw a patch", oc.Name(), rebuilds)
		}
	}
}

// sameModel compares two models' bandwidths, window counts, sizes and
// counts over a probe grid bit for bit, returning the first difference.
func sameModel(got, want *kernel.Estimator) string {
	bits := math.Float64bits
	if got.Dim() != want.Dim() || got.SampleSize() != want.SampleSize() {
		return "dimension or sample size"
	}
	for i := 0; i < want.Dim(); i++ {
		if bits(got.Bandwidth(i)) != bits(want.Bandwidth(i)) {
			return "bandwidth"
		}
	}
	if bits(got.WindowCount()) != bits(want.WindowCount()) {
		return "window count"
	}
	const steps = 12
	p := make(window.Point, want.Dim())
	for cell := 0; ; cell++ {
		rest := cell
		for d := range p {
			p[d] = -0.1 + 1.2*float64(rest%steps)/(steps-1)
			rest /= steps
		}
		if rest > 0 {
			return ""
		}
		for _, r := range []float64{0.01, 0.05, 0.2} {
			if bits(got.Count(p, r)) != bits(want.Count(p, r)) {
				return "count"
			}
		}
	}
}

// TestRestoreRefusesForgedCoreset feeds Restore coreset snapshots whose
// reservoir or model a rebuild could not patch from: a non-finite kept
// point, a model with another slot count or dimensionality, and a model
// holding a slot the reservoir has not filled. Each must be refused, and
// the refusals leave the victim usable.
func TestRestoreRefusesForgedCoreset(t *testing.T) {
	oc := oracle.Config{Dim: 2, WindowCap: 60, Steps: 20, Seed: 13}
	cfg := testConfig(KindCoreset, oc.Dim, oc.Seed)
	det, _ := New(cfg)
	feedStream(t, det, oc, oc.Steps)
	c := det.(*Coreset)
	if c.model == nil || c.filled >= len(c.pts) {
		t.Fatalf("want a model over a part-filled reservoir: model %v, filled %d of %d", c.model != nil, c.filled, len(c.pts))
	}
	blob, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	encode := func(centers []window.Point, slots []int, maxSlots int) []byte {
		t.Helper()
		bw := make([]float64, len(centers[0]))
		for i := range bw {
			bw[i] = 0.05
		}
		m, err := kernel.NewMaintained(centers, slots, maxSlots, bw, c.model.WindowCount())
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	pts := append([]window.Point(nil), c.pts[:c.filled]...)
	slots := make([]int, len(pts))
	for i := range slots {
		slots[i] = i
	}
	flat := make([]window.Point, len(pts))
	for i, p := range pts {
		flat[i] = window.Point{p[0]}
	}
	beyond := append([]int(nil), slots...)
	beyond[len(beyond)-1] = len(c.pts) - 1
	forged := map[string][]byte{
		"model slots != reservoir size": spliceCoresetModel(t, c, blob, encode(pts, slots, len(c.pts)-1)),
		"model dim != config dim":       spliceCoresetModel(t, c, blob, encode(flat, slots, len(c.pts))),
		"model slot beyond the filled":  spliceCoresetModel(t, c, blob, encode(pts, beyond, len(c.pts))),
	}
	saved := c.pts[0][1]
	c.pts[0][1] = math.Inf(1)
	if forged["non-finite kept point"], err = c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	c.pts[0][1] = saved

	victim, _ := New(cfg)
	for name, b := range forged {
		if err := victim.Restore(b); err == nil {
			t.Errorf("%s: coreset restore accepted the forgery", name)
		}
	}
	if err := victim.Restore(blob); err != nil {
		t.Fatalf("valid restore after refusals: %v", err)
	}
	s := oc.NewStream()
	for i := 0; i < 80; i++ {
		victim.Ingest(s.Next())
	}
}
