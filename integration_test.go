package odds

// Integration tests exercising invariants that span modules: estimator
// fidelity against exact window counts, replica fidelity of the MGDD
// global model, determinism of whole deployments, and dimensionalities
// beyond the paper's experiments (d = 3).

import (
	"math"
	"testing"

	"odds/internal/core"
	"odds/internal/distance"
	"odds/internal/divergence"
	"odds/internal/stats"
	"odds/internal/stream"
	"odds/internal/window"
)

// TestEstimatorCountsTrackExactWindow drives a full estimation pipeline
// (chain sample + variance sketch + kernel model) alongside an exact
// window and checks that range-query counts stay within a usable band of
// the truth across workloads. This is the substrate the entire detection
// stack rests on.
func TestEstimatorCountsTrackExactWindow(t *testing.T) {
	workloads := map[string]Source{
		"mixture-1d": NewMixtureSource(1, 3),
		"engine":     NewEngineSource(4),
	}
	for name, src := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := Config{WindowCap: 4000, SampleSize: 400, Eps: 0.2, SampleFraction: 0.5, Dim: 1, RebuildEvery: 1}
			est := core.NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), stats.NewRand(5))
			win := window.New(cfg.WindowCap, 1)
			idx := distance.NewDynIndex(0.05, 1)
			win.OnEvict(func(p window.Point) { idx.Remove(p) })
			for i := 0; i < 9000; i++ {
				v := src.Next()
				est.Observe(v)
				win.Push(v)
				idx.Add(v)
			}
			m := est.Model()
			if m == nil {
				t.Fatal("no model")
			}
			// Compare estimated and exact counts at decile probes with a
			// generous radius (well above kernel bandwidth).
			var relErrs []float64
			for q := 0.05; q <= 0.95; q += 0.1 {
				p := window.Point{stats.Quantile(win.Column(0), q)}
				exact := float64(idx.Count(p, 0.05))
				estd := m.Count(p, 0.05)
				if exact > 100 {
					relErrs = append(relErrs, math.Abs(estd-exact)/exact)
				}
			}
			if len(relErrs) == 0 {
				t.Fatal("no dense probes")
			}
			sum := 0.0
			for _, e := range relErrs {
				sum += e
			}
			if avg := sum / float64(len(relErrs)); avg > 0.25 {
				t.Errorf("average relative count error %.3f too large", avg)
			}
		})
	}
}

// TestMGDDReplicaFidelity checks that a leaf's replicated global model
// converges to the distribution of the union of the leaf windows: the JS
// distance between the replica and a direct estimator over all readings
// must become small.
func TestMGDDReplicaFidelity(t *testing.T) {
	cfg := Config{WindowCap: 2000, SampleSize: 200, Eps: 0.2, SampleFraction: 0.5, Dim: 1, RebuildEvery: 1}
	srcs := buildSources(4, 1)
	dep, err := NewDeployment(DeploymentConfig{
		Algorithm: MGDD,
		Sources:   srcs,
		Branching: 2,
		Core:      cfg,
		MDEF:      MDEFParams{R: 0.08, AlphaR: 0.01, KSigma: 1},
		Seed:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	dep.Run(6000)

	// Direct estimator over the same generating process.
	ref := core.NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), stats.NewRand(7))
	refSrcs := buildSources(4, 1)
	for i := 0; i < 6000; i++ {
		for _, s := range refSrcs {
			ref.Observe(s.Next())
		}
	}

	var replica *core.GlobalModel
	for _, n := range dep.nodes {
		if leaf, ok := n.(*core.MGDDLeaf); ok {
			replica = leaf.Global()
			break
		}
	}
	if replica == nil || !replica.Ready() {
		t.Fatal("no ready replica")
	}
	d := divergence.JS(replica.Model(), ref.Model(), 100)
	if d > 0.05 {
		t.Errorf("JS(replica, union distribution) = %v, want small", d)
	}
}

// TestDeploymentDeterministic verifies that identical seeds give
// identical reports on the deterministic engine.
func TestDeploymentDeterministic(t *testing.T) {
	build := func() *Deployment {
		d, err := NewDeployment(DeploymentConfig{
			Algorithm: D3,
			Sources:   buildSources(4, 1),
			Branching: 2,
			Core:      smallConfig(1),
			Dist:      DistanceParams{Radius: 0.01, Threshold: 10},
			Seed:      9,
		})
		if err != nil {
			t.Fatal(err)
		}
		d.Run(3500)
		return d
	}
	a, b := build().Reports(), build().Reports()
	if len(a) != len(b) {
		t.Fatalf("report counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Epoch != b[i].Epoch || !a[i].Value.Equal(b[i].Value) {
			t.Fatalf("report %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// threeDSource wraps the mixture in three dimensions.
func threeDSource(seed int64) Source {
	return stream.NewMixture(stream.DefaultMixture(), 3, seed)
}

// TestDetector3D exercises the whole stack beyond the paper's 1-d/2-d
// experiments: detection, kernels, sampling, and sketches are generic in
// dimensionality.
func TestDetector3D(t *testing.T) {
	cfg := Config{WindowCap: 3000, SampleSize: 300, Eps: 0.2, SampleFraction: 0.5, Dim: 3, RebuildEvery: 1}
	det, err := NewDetector(cfg, DistanceParams{Radius: 0.05, Threshold: 5}, 11)
	if err != nil {
		t.Fatal(err)
	}
	src := threeDSource(12)
	flagged, noisy := 0, 0
	for i := 0; i < 8000; i++ {
		v := src.Next()
		if det.Observe(v) {
			flagged++
			if v[0] > 0.5 {
				noisy++
			}
		}
	}
	if flagged == 0 {
		t.Fatal("3-d detector flagged nothing")
	}
	if float64(noisy)/float64(flagged) < 0.5 {
		t.Errorf("3-d flags mostly off-noise: %d/%d", noisy, flagged)
	}
	// Model mass still normalizes in 3-d.
	m := det.Model()
	total := m.ProbBox([]float64{0, 0, 0}, []float64{1, 1, 1})
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("3-d total mass = %v", total)
	}
}

// TestBruteForce3D checks the exact ground-truth machinery in 3-d.
func TestBruteForce3D(t *testing.T) {
	src := threeDSource(13)
	pts := stream.Take(src, 4000)
	flags := distance.BruteForce(pts, distance.Params{Radius: 0.05, Threshold: 5})
	nOut := 0
	for i, f := range flags {
		if f && pts[i][0] > 0.5 {
			nOut++
		}
	}
	if nOut == 0 {
		t.Error("3-d brute force found no noise outliers")
	}
	// Spot-check the flags against the naive scan.
	for i := 0; i < 40; i++ {
		want := float64(distance.CountNaive(pts, pts[i], 0.05)) < 5
		if flags[i] != want {
			t.Fatalf("3-d point %d: BruteForce flag %v, naive count says %v", i, flags[i], want)
		}
	}
}

// TestJSGateMessageEquivalence verifies the Section 8.1 optimization does
// not change which kinds of traffic flow, only the volume of global
// updates.
func TestJSGateMessageEquivalence(t *testing.T) {
	run := func(gate float64) (global, sample int) {
		dep, err := NewDeployment(DeploymentConfig{
			Algorithm: MGDD,
			Sources:   buildSources(4, 1),
			Branching: 2,
			Core:      smallConfig(1),
			MDEF:      MDEFParams{R: 0.08, AlphaR: 0.01, KSigma: 1},
			JSGate:    gate,
			Seed:      14,
		})
		if err != nil {
			t.Fatal(err)
		}
		dep.Run(4000)
		st := dep.Messages()
		return st.ByKind["global"], st.ByKind["sample"]
	}
	gOpen, sOpen := run(0)
	gGated, sGated := run(0.05)
	if gGated >= gOpen {
		t.Errorf("gating did not reduce global traffic: %d vs %d", gGated, gOpen)
	}
	if sGated == 0 || sOpen == 0 {
		t.Error("sample traffic missing")
	}
	if gGated == 0 {
		t.Error("gated run sent no updates at all")
	}
}

// TestWarmupSuppressionBoundary checks the exact warm-up boundary: no
// flags strictly before half the window, flags possible after.
func TestWarmupSuppressionBoundary(t *testing.T) {
	cfg := Config{WindowCap: 1000, SampleSize: 100, Eps: 0.2, SampleFraction: 0.5, Dim: 1, RebuildEvery: 1}
	det, err := NewDetector(cfg, DistanceParams{Radius: 0.001, Threshold: 1000}, 15)
	if err != nil {
		t.Fatal(err)
	}
	src := NewMixtureSource(1, 16)
	for i := 0; i < 2000; i++ {
		out := det.Observe(src.Next())
		if i < 499 && out {
			t.Fatalf("flag at arrival %d during warm-up", i)
		}
	}
}
