package core

import (
	"testing"

	"odds/internal/drift"
	"odds/internal/mdef"
	"odds/internal/network"
	"odds/internal/stats"
	"odds/internal/stream"
	"odds/internal/tagsim"
)

// buildDriftMGDD wires a 4-leaf MGDD tree over drifting sources, arming
// the leaves' drift monitors when arm is true.
func buildDriftMGDD(t *testing.T, arm bool, kind stream.DriftKind) (*tagsim.Simulator, []*MGDDLeaf) {
	t.Helper()
	topo := network.NewHierarchy(4, 2)
	cfg := testConfig(1)
	prm := mdef.Params{R: 0.08, AlphaR: 0.01, KSigma: 3}
	sim := tagsim.New()
	master := stats.NewRand(31)
	var leaves []*MGDDLeaf
	for i, id := range topo.Leaves() {
		p, ok := topo.Parent(id)
		scfg := stream.DefaultDrifting(kind, 2500)
		src := stream.NewDrifting(scfg, 1, stats.ChildSeed(41, i))
		leaf := NewMGDDLeaf(id, p, ok, src, cfg, prm, len(topo.Leaves()), stats.SplitRand(master))
		if arm {
			mcfg := drift.Default()
			mon, err := drift.NewMonitor(1, mcfg)
			if err != nil {
				t.Fatal(err)
			}
			leaf.Drift = mon
		}
		leaves = append(leaves, leaf)
		sim.Add(leaf)
	}
	for lvl := 1; lvl < topo.Depth(); lvl++ {
		for _, id := range topo.Levels[lvl] {
			p, ok := topo.Parent(id)
			sim.Add(NewMGDDParent(id, p, ok, topo.Children[id], len(topo.DescendantLeaves(id)), cfg, stats.SplitRand(master)))
		}
	}
	return sim, leaves
}

// TestMGDDDriftForcesRefresh: leaves over an abruptly-drifting stream
// must detect the shift and force global-model catch-ups through the
// KindRefresh path, and the forced KindGlobal answers must reach the
// requesting replicas.
func TestMGDDDriftForcesRefresh(t *testing.T) {
	sim, leaves := buildDriftMGDD(t, true, stream.DriftAbrupt)
	sim.Run(5000)
	refreshes := uint64(0)
	for _, l := range leaves {
		refreshes += l.DriftRefreshRequests()
		if l.Drift.Stats().Detections == 0 {
			t.Errorf("leaf %d never detected the abrupt shift", l.ID())
		}
	}
	if refreshes == 0 {
		t.Fatal("no drift-triggered refresh requests were sent")
	}
	st := sim.Stats()
	if st.ByKind[KindRefresh] == 0 {
		t.Fatal("no KindRefresh messages recorded")
	}
	if st.ByKind[KindGlobal] == 0 {
		t.Fatal("no KindGlobal answers recorded")
	}
}

// TestMGDDDriftStationarySilent: on the stationary control stream the
// armed monitor must not fire at all — the drift layer leaves the
// fault-free, drift-free path untouched.
func TestMGDDDriftStationarySilent(t *testing.T) {
	sim, leaves := buildDriftMGDD(t, true, stream.DriftNone)
	sim.Run(5000)
	for _, l := range leaves {
		if n := l.Drift.Stats().Detections; n != 0 {
			t.Errorf("leaf %d fired %d times on a stationary stream", l.ID(), n)
		}
		if l.DriftRefreshRequests() != 0 {
			t.Errorf("leaf %d sent drift refreshes on a stationary stream", l.ID())
		}
	}
}

// TestForceRefreshReestimatesBandwidths: after ForceRefresh the next
// Model call must rebuild with current sigmas even though the rebuild
// cadence has not elapsed.
func TestForceRefreshReestimatesBandwidths(t *testing.T) {
	cfg := testConfig(1)
	cfg.RebuildEvery = 500
	est := NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), stats.NewRand(9))
	src := stream.NewDrifting(stream.DefaultDrifting(stream.DriftVariance, 1200), 1, 55)
	for i := 0; i < 1200; i++ {
		est.Observe(src.Next())
	}
	if est.Model() == nil {
		t.Fatal("no model after warm-up")
	}
	refreshes := func() uint64 {
		full, patch := est.ModelBuildStats()
		return full + patch
	}
	r0 := refreshes()
	// Inflated-variance regime arrives; cadence says no rebuild yet.
	for i := 0; i < 100; i++ {
		est.Observe(src.Next())
	}
	est.Model()
	if r := refreshes(); r != r0 {
		t.Fatalf("model refreshed without ForceRefresh (%d -> %d); cadence guard broken", r0, r)
	}
	est.ForceRefresh()
	est.Model()
	if r := refreshes(); r == r0 {
		t.Fatal("ForceRefresh did not trigger a refresh")
	}
}
