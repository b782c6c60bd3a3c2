package core

import (
	"math"
	"testing"

	"odds/internal/distance"
	"odds/internal/mdef"
	"odds/internal/network"
	"odds/internal/stats"
	"odds/internal/stream"
	"odds/internal/tagsim"
	"odds/internal/window"
)

func testConfig(dim int) Config {
	return Config{
		WindowCap:      2000,
		SampleSize:     200,
		Eps:            0.2,
		SampleFraction: 0.5,
		Dim:            dim,
		RebuildEvery:   1,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(1).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	bad := []Config{
		{WindowCap: 0, SampleSize: 1, Eps: 0.2, Dim: 1, RebuildEvery: 1},
		{WindowCap: 10, SampleSize: 0, Eps: 0.2, Dim: 1, RebuildEvery: 1},
		{WindowCap: 10, SampleSize: 11, Eps: 0.2, Dim: 1, RebuildEvery: 1},
		{WindowCap: 10, SampleSize: 5, Eps: 0, Dim: 1, RebuildEvery: 1},
		{WindowCap: 10, SampleSize: 5, Eps: 0.2, SampleFraction: 1.5, Dim: 1, RebuildEvery: 1},
		{WindowCap: 10, SampleSize: 5, Eps: 0.2, Dim: 0, RebuildEvery: 1},
		{WindowCap: 10, SampleSize: 5, Eps: 0.2, Dim: 1, RebuildEvery: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestEstimatorModelLifecycle(t *testing.T) {
	cfg := testConfig(1)
	rng := stats.NewRand(1)
	e := NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), rng)
	if e.Model() != nil {
		t.Error("empty estimator should have no model")
	}
	src := stream.NewMixture(stream.DefaultMixture(), 1, 2)
	for i := 0; i < 3000; i++ {
		e.Observe(src.Next())
	}
	m := e.Model()
	if m == nil {
		t.Fatal("model missing after observations")
	}
	if m.SampleSize() == 0 || m.SampleSize() > cfg.SampleSize {
		t.Errorf("model sample size = %d", m.SampleSize())
	}
	// Full window: count over entire domain ≈ window cap.
	total := m.CountBox([]float64{0}, []float64{1})
	if math.Abs(total-float64(cfg.WindowCap)) > 1 {
		t.Errorf("total count = %v, want %d", total, cfg.WindowCap)
	}
	if e.Arrivals() != 3000 {
		t.Errorf("Arrivals = %d", e.Arrivals())
	}
}

func TestEstimatorWarmupScaling(t *testing.T) {
	cfg := testConfig(1)
	e := NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), stats.NewRand(3))
	src := stream.NewMixture(stream.DefaultMixture(), 1, 4)
	for i := 0; i < 500; i++ { // quarter of the window
		e.Observe(src.Next())
	}
	total := e.Model().CountBox([]float64{0}, []float64{1})
	if math.Abs(total-500) > 1 {
		t.Errorf("warmup total count = %v, want ≈500", total)
	}
}

func TestEstimatorModelCaching(t *testing.T) {
	cfg := testConfig(1)
	cfg.RebuildEvery = 1000000 // never rebuild after first build
	e := NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), stats.NewRand(5))
	src := stream.NewMixture(stream.DefaultMixture(), 1, 6)
	e.Observe(src.Next())
	m1 := e.Model()
	for i := 0; i < 100; i++ {
		e.Observe(src.Next())
	}
	m2 := e.Model()
	// During warm-up the cached model is rescaled in place to the drifting
	// effective |W| — not refreshed: one full build, no patches, and the
	// same model pointer.
	if full, patch := e.ModelBuildStats(); full != 1 || patch != 0 {
		t.Errorf("builds = %d full, %d patch; want 1, 0 despite RebuildEvery", full, patch)
	}
	if m2 != m1 {
		t.Error("model pointer changed across a rescale")
	}
	if got, want := m2.WindowCount(), e.EffectiveWindowCount(); got != want {
		t.Errorf("cached model |W| = %v, want effective %v", got, want)
	}
	// A forced patch moves the model's generation, never its pointer, and
	// CachedModel reports that same model without refreshing it.
	gen := m1.Gen()
	e.ForceRefresh()
	e.Observe(src.Next())
	if e.CachedModel() != m1 || m1.Gen() != gen {
		t.Error("CachedModel refreshed or replaced the model")
	}
	if m3 := e.Model(); m3 != m1 || m3.Gen() == gen {
		t.Errorf("forced patch: same pointer %v, gen %d -> %d", m3 == m1, gen, m3.Gen())
	}
	if full, patch := e.ModelBuildStats(); full != 1 || patch != 1 {
		t.Errorf("builds after forced patch = %d full, %d patch; want 1, 1", full, patch)
	}
}

// TestEstimatorModelTracksWarmupWindowCount walks an estimator through its
// warm-up and checks that the cached model's |W| scaling follows the
// effective window count on every arrival, even when the sample itself is
// unchanged. Before the rescale fix, a cached model kept the filled
// fraction of its build epoch, undercounting neighbors for values that
// arrived between sample inclusions.
func TestEstimatorModelTracksWarmupWindowCount(t *testing.T) {
	cfg := testConfig(1)
	cfg.RebuildEvery = 1000000
	e := NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), stats.NewRand(9))
	src := stream.NewMixture(stream.DefaultMixture(), 1, 10)
	for i := 0; i < cfg.WindowCap+cfg.WindowCap/4; i++ {
		e.Observe(src.Next())
		m := e.Model()
		if m == nil {
			t.Fatalf("no model after %d arrivals", i+1)
		}
		if got, want := m.WindowCount(), e.EffectiveWindowCount(); got != want {
			t.Fatalf("arrival %d: model |W| = %v, effective = %v", i+1, got, want)
		}
	}
	// Past warm-up the effective count is the configured |W| and the
	// cached pointer must be stable call-to-call (no per-call copies).
	if e.Model() != e.Model() {
		t.Error("model pointer unstable after warm-up")
	}
	if got := e.Model().WindowCount(); got != float64(cfg.WindowCap) {
		t.Errorf("steady-state |W| = %v, want %v", got, cfg.WindowCap)
	}
}

func TestEstimatorMemoryAccounting(t *testing.T) {
	cfg := testConfig(2)
	e := NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), stats.NewRand(7))
	src := stream.NewMixture(stream.DefaultMixture(), 2, 8)
	for i := 0; i < 1000; i++ {
		e.Observe(src.Next())
	}
	if e.MemoryBytes() <= 0 {
		t.Error("MemoryBytes not positive")
	}
	if e.VarianceBoundNumbers() < e.VarianceMemoryNumbers() {
		t.Error("variance sketch exceeded its bound")
	}
	if e.SampleStoredPoints() < cfg.SampleSize/2 {
		t.Errorf("sample stored %d points, expected near %d", e.SampleStoredPoints(), cfg.SampleSize)
	}
}

func TestIsDistanceOutlierCriterion(t *testing.T) {
	cfg := testConfig(1)
	e := NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), stats.NewRand(9))
	src := stream.NewMixture(stream.MixtureConfig{
		Means: []float64{0.3}, Sigma: 0.02, NoiseFrac: 0, NoiseLo: 0.5, NoiseHi: 1,
	}, 1, 10)
	for i := 0; i < 4000; i++ {
		e.Observe(src.Next())
	}
	prm := distance.Params{Radius: 0.01, Threshold: 45}
	if e.IsDistanceOutlier(window.Point{0.3}, prm) {
		t.Error("cluster center flagged as distance outlier")
	}
	if !e.IsDistanceOutlier(window.Point{0.9}, prm) {
		t.Error("empty region not flagged as distance outlier")
	}
}

// buildD3 assembles a D3 deployment over a topology with one mixture
// stream per leaf.
func buildD3(topo *network.Topology, cfg Config, prm distance.Params, seed int64) (*tagsim.Simulator, []*D3Leaf, map[int][]*D3Parent) {
	sim := tagsim.New()
	master := stats.NewRand(seed)
	var leaves []*D3Leaf
	parents := make(map[int][]*D3Parent)
	for _, id := range topo.Leaves() {
		p, ok := topo.Parent(id)
		src := stream.NewMixture(stream.DefaultMixture(), cfg.Dim, master.Int63())
		leaf := NewD3Leaf(id, p, ok, src, cfg, prm, stats.SplitRand(master))
		leaves = append(leaves, leaf)
		sim.Add(leaf)
	}
	for lvl := 1; lvl < topo.Depth(); lvl++ {
		for _, id := range topo.Levels[lvl] {
			p, ok := topo.Parent(id)
			par := NewD3Parent(id, p, ok, len(topo.DescendantLeaves(id)), cfg, prm, stats.SplitRand(master))
			parents[lvl] = append(parents[lvl], par)
			sim.Add(par)
		}
	}
	return sim, leaves, parents
}

func TestD3EndToEnd(t *testing.T) {
	topo := network.NewHierarchy(4, 2)
	cfg := testConfig(1)
	prm := distance.Params{Radius: 0.01, Threshold: 10}
	sim, leaves, parents := buildD3(topo, cfg, prm, 42)

	var leafFlags, rootFlags []window.Point
	for _, l := range leaves {
		l.Flagged = func(v window.Point, epoch int) { leafFlags = append(leafFlags, v) }
	}
	for _, lvl := range parents {
		for _, p := range lvl {
			p := p
			if _, hasUp := p.up.Get(); !hasUp {
				p.Flagged = func(v window.Point, epoch int) { rootFlags = append(rootFlags, v) }
			}
		}
	}
	sim.Run(3000)

	if len(leafFlags) == 0 {
		t.Fatal("no leaf outliers on noisy mixture data")
	}
	// Theorem 3: root outliers are a subset of values flagged below, so
	// there can be at most as many root flags as leaf flags.
	if len(rootFlags) > len(leafFlags) {
		t.Errorf("root flags %d exceed leaf flags %d", len(rootFlags), len(leafFlags))
	}
	// Sample propagation fed the parents.
	for _, lvl := range parents {
		for _, p := range lvl {
			if p.Estimator().Arrivals() == 0 {
				t.Errorf("parent %d received no samples", p.ID())
			}
		}
	}
	st := sim.Stats()
	if st.ByKind[KindSample] == 0 {
		t.Error("no sample messages recorded")
	}
	// Most flagged values should be in the noise range [0.5, 1].
	noisy := 0
	for _, v := range leafFlags {
		if v[0] >= 0.45 {
			noisy++
		}
	}
	if frac := float64(noisy) / float64(len(leafFlags)); frac < 0.5 {
		t.Errorf("only %.0f%% of leaf flags in the noise range", frac*100)
	}
}

func TestD3ParentChecksCandidates(t *testing.T) {
	topo := network.NewHierarchy(2, 2)
	cfg := testConfig(1)
	prm := distance.Params{Radius: 0.01, Threshold: 10}
	sim, _, parents := buildD3(topo, cfg, prm, 7)
	var candidates, confirmed int
	parents[1][0].OnCandidate = func(v window.Point, epoch int, flagged bool) {
		candidates++
		if flagged {
			confirmed++
		}
	}
	sim.Run(2500)
	if candidates == 0 {
		t.Fatal("parent saw no candidates")
	}
	if confirmed > candidates {
		t.Fatal("confirmed exceeds candidates")
	}
}

func TestD3LeafPanicsOnMismatch(t *testing.T) {
	cfg := testConfig(1)
	src := stream.NewMixture(stream.DefaultMixture(), 2, 1) // dim mismatch
	defer func() {
		if recover() == nil {
			t.Error("dim mismatch did not panic")
		}
	}()
	NewD3Leaf(1, 0, false, src, cfg, distance.Params{Radius: 0.01, Threshold: 5}, stats.NewRand(1))
}

func TestD3SampleFractionControlsTraffic(t *testing.T) {
	count := func(f float64) int {
		topo := network.NewHierarchy(4, 2)
		cfg := testConfig(1)
		cfg.SampleFraction = f
		sim, _, _ := buildD3(topo, cfg, distance.Params{Radius: 0.01, Threshold: 10}, 11)
		sim.ExcludeKind(KindOutlier)
		sim.Run(1500)
		return sim.Stats().ByKind[KindSample]
	}
	lo, hi := count(0.25), count(1.0)
	if lo >= hi {
		t.Errorf("f=0.25 produced %d sample messages, f=1.0 %d; want increasing", lo, hi)
	}
}

func TestGlobalModelReplica(t *testing.T) {
	rng := stats.NewRand(13)
	g := NewGlobalModel(4, 1, 1000, rng)
	if g.Ready() {
		t.Error("empty replica ready")
	}
	if g.Model() != nil {
		t.Error("empty replica produced model")
	}
	for i := 0; i < 10; i++ {
		g.Update(window.Point{0.1 * float64(i)}, 0.05, i)
	}
	if g.Stamp() != 9 {
		t.Errorf("replica stamp = %d, want 9", g.Stamp())
	}
	if !g.Ready() || g.Fill() != 4 {
		t.Errorf("replica fill = %d, want 4", g.Fill())
	}
	m := g.Model()
	if m == nil || m.SampleSize() != 4 {
		t.Fatal("replica model wrong")
	}
	if m.WindowCount() != 1000 {
		t.Errorf("replica window count = %v", m.WindowCount())
	}
	// Model caches until next update; once maintained it refreshes in
	// place, so staleness shows up as a generation bump, not a new pointer.
	gen := m.Gen()
	if g.Model() != m || m.Gen() != gen {
		t.Error("model refreshed without update")
	}
	g.Update(window.Point{0.9}, 0.05, 10)
	if m2 := g.Model(); m2 != m {
		t.Error("maintained replica model was rebuilt instead of patched")
	} else if m2.Gen() == gen {
		t.Error("model generation did not advance after update")
	}
}

func TestGlobalModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad params did not panic")
		}
	}()
	NewGlobalModel(0, 1, 100, stats.NewRand(1))
}

// buildMGDD assembles an MGDD deployment.
func buildMGDD(topo *network.Topology, cfg Config, prm mdef.Params, seed int64, jsGate float64) (*tagsim.Simulator, []*MGDDLeaf, []*MGDDParent) {
	sim := tagsim.New()
	master := stats.NewRand(seed)
	total := len(topo.Leaves())
	var leaves []*MGDDLeaf
	var parents []*MGDDParent
	for _, id := range topo.Leaves() {
		p, ok := topo.Parent(id)
		src := stream.NewMixture(stream.DefaultMixture(), cfg.Dim, master.Int63())
		leaf := NewMGDDLeaf(id, p, ok, src, cfg, prm, total, stats.SplitRand(master))
		leaves = append(leaves, leaf)
		sim.Add(leaf)
	}
	for lvl := 1; lvl < topo.Depth(); lvl++ {
		for _, id := range topo.Levels[lvl] {
			p, ok := topo.Parent(id)
			par := NewMGDDParent(id, p, ok, topo.Children[id], len(topo.DescendantLeaves(id)), cfg, stats.SplitRand(master))
			par.JSGate = jsGate
			parents = append(parents, par)
			sim.Add(par)
		}
	}
	return sim, leaves, parents
}

func TestMGDDGlobalUpdatesReachLeaves(t *testing.T) {
	topo := network.NewHierarchy(4, 2)
	cfg := testConfig(1)
	prm := mdef.Params{R: 0.08, AlphaR: 0.01, KSigma: 3}
	sim, leaves, _ := buildMGDD(topo, cfg, prm, 17, 0)
	sim.Run(2000)
	for _, l := range leaves {
		if l.Global().Fill() == 0 {
			t.Errorf("leaf %d received no global updates", l.ID())
		}
	}
	st := sim.Stats()
	if st.ByKind[KindGlobal] == 0 {
		t.Error("no global messages recorded")
	}
	if st.ByKind[KindSample] == 0 {
		t.Error("no sample messages recorded")
	}
}

func TestMGDDDetectsWithGlobalModel(t *testing.T) {
	topo := network.NewHierarchy(2, 2)
	cfg := testConfig(1)
	// Uniform block sources make MDEF flags attainable (see mdef tests).
	prm := mdef.Params{R: 0.08, AlphaR: 0.01, KSigma: 3}
	sim := tagsim.New()
	master := stats.NewRand(19)
	var leaves []*MGDDLeaf
	for i, id := range topo.Leaves() {
		p, ok := topo.Parent(id)
		var src stream.Source
		if i == 0 {
			// This sensor occasionally reads outside the block.
			src = stream.NewMixture(stream.MixtureConfig{
				Means: []float64{0.3}, Sigma: 0.02, NoiseFrac: 0.01, NoiseLo: 0.42, NoiseHi: 0.46,
			}, 1, master.Int63())
		} else {
			src = stream.NewMixture(stream.MixtureConfig{
				Means: []float64{0.3}, Sigma: 0.02, NoiseFrac: 0, NoiseLo: 0, NoiseHi: 0,
			}, 1, master.Int63())
		}
		leaf := NewMGDDLeaf(id, p, ok, src, cfg, prm, 2, stats.SplitRand(master))
		leaves = append(leaves, leaf)
		sim.Add(leaf)
	}
	for lvl := 1; lvl < topo.Depth(); lvl++ {
		for _, id := range topo.Levels[lvl] {
			p, ok := topo.Parent(id)
			sim.Add(NewMGDDParent(id, p, ok, topo.Children[id], len(topo.DescendantLeaves(id)), cfg, stats.SplitRand(master)))
		}
	}
	flagged := 0
	deviant := 0
	leaves[0].OnArrival = func(v window.Point, epoch int, out bool) {
		if v[0] > 0.4 {
			deviant++
			if out {
				flagged++
			}
		}
	}
	sim.Run(4000)
	if deviant == 0 {
		t.Fatal("test stream produced no deviant readings")
	}
	if flagged == 0 {
		t.Errorf("none of %d deviant readings flagged by MGDD", deviant)
	}
}

func TestMGDDJSGateReducesGlobalTraffic(t *testing.T) {
	run := func(gate float64) int {
		topo := network.NewHierarchy(4, 2)
		cfg := testConfig(1)
		prm := mdef.Params{R: 0.08, AlphaR: 0.01, KSigma: 3}
		sim, _, _ := buildMGDD(topo, cfg, prm, 23, gate)
		sim.Run(2000)
		return sim.Stats().ByKind[KindGlobal]
	}
	// Pinned counts at seed 23. The gate must compare against a frozen copy
	// of the last broadcast model; holding the live, patched-in-place model
	// instead sends 6.
	open, gated := run(0), run(0.05)
	if open != 1566 || gated != 24 {
		t.Errorf("global updates: %d ungated, %d gated; want 1566, 24", open, gated)
	}
}

func TestCentralizedMessageCount(t *testing.T) {
	topo := network.NewHierarchy(4, 2) // depth 3: leaves at 2 hops from root
	sim := tagsim.New()
	master := stats.NewRand(29)
	for _, id := range topo.Leaves() {
		p, ok := topo.Parent(id)
		sim.Add(NewCentralLeaf(id, p, ok, stream.NewMixture(stream.DefaultMixture(), 1, master.Int63())))
	}
	var root *CentralRelay
	for lvl := 1; lvl < topo.Depth(); lvl++ {
		for _, id := range topo.Levels[lvl] {
			p, ok := topo.Parent(id)
			r := NewCentralRelay(id, p, ok)
			if !ok {
				r.CollectCap = 100
				root = r
			}
			sim.Add(r)
		}
	}
	const epochs = 50
	sim.Run(epochs)
	st := sim.Stats()
	// Every leaf reading travels exactly HopsToRoot links.
	want := 0
	for _, id := range topo.Leaves() {
		want += topo.HopsToRoot(id) * epochs
	}
	if st.ByKind[KindReading] != want {
		t.Errorf("reading messages = %d, want %d", st.ByKind[KindReading], want)
	}
	if root == nil || len(root.Collected) != 100 {
		t.Errorf("root collected %d readings, want cap 100", len(root.Collected))
	}
}

func TestD3CheaperThanCentralized(t *testing.T) {
	// The Figure 11 headline on a small deployment: D3's sample-propagation
	// traffic is far below shipping every reading.
	topo := network.NewHierarchy(8, 2)
	cfg := testConfig(1)
	cfg.SampleFraction = 0.25

	d3sim, _, _ := buildD3(topo, cfg, distance.Params{Radius: 0.01, Threshold: 10}, 31)
	d3sim.ExcludeKind(KindOutlier)
	d3sim.Run(2000)
	d3 := d3sim.Stats().Total

	csim := tagsim.New()
	master := stats.NewRand(31)
	for _, id := range topo.Leaves() {
		p, ok := topo.Parent(id)
		csim.Add(NewCentralLeaf(id, p, ok, stream.NewMixture(stream.DefaultMixture(), 1, master.Int63())))
	}
	for lvl := 1; lvl < topo.Depth(); lvl++ {
		for _, id := range topo.Levels[lvl] {
			p, ok := topo.Parent(id)
			csim.Add(NewCentralRelay(id, p, ok))
		}
	}
	csim.Run(2000)
	central := csim.Stats().Total

	if d3*10 > central {
		t.Errorf("D3 messages %d not well below centralized %d", d3, central)
	}
}
