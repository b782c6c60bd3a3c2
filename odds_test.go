package odds

import (
	"strings"
	"testing"
)

func smallConfig(dim int) Config {
	return Config{
		WindowCap:      2000,
		SampleSize:     200,
		Eps:            0.2,
		SampleFraction: 0.5,
		Dim:            dim,
		RebuildEvery:   1,
	}
}

func TestNewDetectorValidation(t *testing.T) {
	if _, err := NewDetector(Config{}, DistanceParams{Radius: 0.01, Threshold: 10}, 1); err == nil {
		t.Error("bad config accepted")
	}
	if _, err := NewDetector(smallConfig(1), DistanceParams{}, 1); err == nil {
		t.Error("bad params accepted")
	}
	if _, err := NewDetector(smallConfig(1), DistanceParams{Radius: 0.01, Threshold: 10}, 1); err != nil {
		t.Errorf("valid detector rejected: %v", err)
	}
}

func TestDetectorFlagsNoise(t *testing.T) {
	det, err := NewDetector(smallConfig(1), DistanceParams{Radius: 0.01, Threshold: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := NewMixtureSource(1, 2)
	flagged, noisy := 0, 0
	for i := 0; i < 6000; i++ {
		v := src.Next()
		out := det.Observe(v)
		if i < 1000 && out {
			t.Fatal("flagged during warm-up")
		}
		if out {
			flagged++
			if v[0] > 0.5 {
				noisy++
			}
		}
	}
	if flagged == 0 {
		t.Fatal("nothing flagged on noisy stream")
	}
	if float64(noisy)/float64(flagged) < 0.5 {
		t.Errorf("only %d/%d flags in noise range", noisy, flagged)
	}
}

func TestDetectorCountAndModel(t *testing.T) {
	det, _ := NewDetector(smallConfig(1), DistanceParams{Radius: 0.01, Threshold: 10}, 3)
	if det.Model() != nil || det.Count(Point{0.5}, 0.01) != 0 {
		t.Error("empty detector should have no model and zero counts")
	}
	src := NewMixtureSource(1, 4)
	for i := 0; i < 3000; i++ {
		det.Observe(src.Next())
	}
	if det.Model() == nil {
		t.Fatal("model missing")
	}
	dense := det.Count(Point{0.35}, 0.05)
	sparse := det.Count(Point{0.9}, 0.05)
	if dense <= sparse {
		t.Errorf("counts: dense %v, sparse %v", dense, sparse)
	}
	if det.MemoryBytes() <= 0 {
		t.Error("memory not accounted")
	}
}

func TestMDEFDetector(t *testing.T) {
	if _, err := NewMDEFDetector(smallConfig(1), MDEFParams{}, 1); err == nil {
		t.Error("bad MDEF params accepted")
	}
	det, err := NewMDEFDetector(smallConfig(1), MDEFParams{R: 0.08, AlphaR: 0.01, KSigma: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := NewMixtureSource(1, 5)
	flagged := 0
	for i := 0; i < 6000; i++ {
		if det.Observe(src.Next()) {
			flagged++
		}
	}
	if flagged == 0 {
		t.Error("MDEF detector flagged nothing at k=1")
	}
	res := det.Evaluate(Point{0.35})
	if res.AvgN <= 0 {
		t.Errorf("Evaluate at cluster center: %+v", res)
	}
	if det.MemoryBytes() <= 0 {
		t.Error("memory not accounted")
	}
}

func TestDetectorHandoff(t *testing.T) {
	prm := DistanceParams{Radius: 0.01, Threshold: 10}
	det, err := NewDetector(smallConfig(1), prm, 41)
	if err != nil {
		t.Fatal(err)
	}
	src := NewMixtureSource(1, 42)
	for i := 0; i < 3000; i++ {
		det.Observe(src.Next())
	}
	data, err := det.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := RestoreDetector(data, prm, 43)
	if err != nil {
		t.Fatal(err)
	}
	// Counts at the handoff point agree (the incumbent's cached model may
	// have been built a few arrivals earlier with slightly older deviation
	// estimates, so equality is up to bandwidth drift, not exact).
	p := Point{0.35}
	a, b := det.Count(p, 0.05), back.Count(p, 0.05)
	if rel := (a - b) / a; rel > 0.05 || rel < -0.05 {
		t.Errorf("handoff counts differ: %v vs %v", a, b)
	}
	// Successor keeps detecting.
	flagged := 0
	for i := 0; i < 3000; i++ {
		if back.Observe(src.Next()) {
			flagged++
		}
	}
	if flagged == 0 {
		t.Error("restored detector detects nothing")
	}
	if _, err := RestoreDetector(data, DistanceParams{}, 1); err == nil {
		t.Error("bad params accepted on restore")
	}
	if _, err := RestoreDetector(nil, prm, 1); err == nil {
		t.Error("empty state accepted on restore")
	}
}

func TestSourcesExported(t *testing.T) {
	if NewMixtureSource(2, 1).Dim() != 2 {
		t.Error("mixture dim wrong")
	}
	if NewEngineSource(1).Dim() != 1 {
		t.Error("engine dim wrong")
	}
	if NewEnviroSource(1).Dim() != 2 {
		t.Error("enviro dim wrong")
	}
	s := NewShiftingSource([]float64{0.3, 0.5}, 0.05, 100, 1)
	if s.Dim() != 1 {
		t.Error("shifting dim wrong")
	}
	p := s.Next()
	if len(p) != 1 || !p.InUnitCube() {
		t.Error("shifting sample wrong")
	}
}

func TestDeploymentValidation(t *testing.T) {
	cfg := smallConfig(1)
	dist := DistanceParams{Radius: 0.01, Threshold: 10}
	cases := []struct {
		name string
		mut  func(*DeploymentConfig)
	}{
		{"no sources", func(c *DeploymentConfig) { c.Sources = nil }},
		{"nil source", func(c *DeploymentConfig) { c.Sources = []Source{nil} }},
		{"bad branching", func(c *DeploymentConfig) { c.Branching = 1 }},
		{"dim mismatch", func(c *DeploymentConfig) { c.Sources = []Source{NewMixtureSource(2, 1)} }},
		{"bad core", func(c *DeploymentConfig) { c.Core = Config{} }},
		{"bad dist", func(c *DeploymentConfig) { c.Dist = DistanceParams{} }},
		{"bad algorithm", func(c *DeploymentConfig) { c.Algorithm = Algorithm(99) }},
	}
	for _, tc := range cases {
		c := DeploymentConfig{
			Algorithm: D3,
			Sources:   []Source{NewMixtureSource(1, 1), NewMixtureSource(1, 2)},
			Core:      cfg,
			Dist:      dist,
		}
		tc.mut(&c)
		if _, err := NewDeployment(c); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func buildSources(n int, dim int) []Source {
	out := make([]Source, n)
	for i := range out {
		out[i] = NewMixtureSource(dim, int64(100+i))
	}
	return out
}

func TestDeploymentD3(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{
		Algorithm: D3,
		Sources:   buildSources(4, 1),
		Branching: 2,
		Core:      smallConfig(1),
		Dist:      DistanceParams{Radius: 0.01, Threshold: 10},
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Levels() != 3 || d.NodeCount() != 7 {
		t.Errorf("topology: levels=%d nodes=%d", d.Levels(), d.NodeCount())
	}
	d.Run(4000)
	reps := d.Reports()
	if len(reps) == 0 {
		t.Fatal("no outliers reported")
	}
	byLevel := make([]int, d.Levels())
	for _, r := range reps {
		byLevel[r.Level]++
	}
	if byLevel[0] == 0 {
		t.Error("no leaf-level reports")
	}
	// Theorem 3: a value reaches level L only by being flagged at every
	// level below, so per-level counts cannot increase upward.
	for l := 1; l < len(byLevel); l++ {
		if byLevel[l] > byLevel[l-1] {
			t.Errorf("level %d reports (%d) exceed level %d (%d)", l, byLevel[l], l-1, byLevel[l-1])
		}
	}
	if d.Messages().ByKind["sample"] == 0 {
		t.Error("no sample traffic")
	}
}

func TestDeploymentMGDD(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{
		Algorithm: MGDD,
		Sources:   buildSources(4, 1),
		Branching: 2,
		Core:      smallConfig(1),
		MDEF:      MDEFParams{R: 0.08, AlphaR: 0.01, KSigma: 1},
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(4000)
	if len(d.Reports()) == 0 {
		t.Error("MGDD reported nothing")
	}
	for _, r := range d.Reports() {
		if r.Level != 0 {
			t.Error("MGDD reported above leaf level")
		}
	}
	if d.Messages().ByKind["global"] == 0 {
		t.Error("no global-model traffic")
	}
}

func TestDeploymentCentralized(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{
		Algorithm: Centralized,
		Sources:   buildSources(4, 1),
		Branching: 2,
		Core:      smallConfig(1),
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Run(100)
	// 4 leaves × 2 hops × 100 epochs.
	if got := d.Messages().ByKind["reading"]; got != 800 {
		t.Errorf("reading messages = %d, want 800", got)
	}
}

func TestDeploymentSingleSensor(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{
		Algorithm: D3,
		Sources:   buildSources(1, 1),
		Core:      smallConfig(1),
		Dist:      DistanceParams{Radius: 0.01, Threshold: 10},
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Levels() != 1 {
		t.Errorf("single-sensor levels = %d", d.Levels())
	}
	d.Run(3000)
	if len(d.Reports()) == 0 {
		t.Error("single sensor reported nothing")
	}
}

func TestDeploymentGridTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("slow deployment run; run without -short for this coverage")
	}
	d, err := NewDeployment(DeploymentConfig{
		Algorithm: D3,
		Sources:   buildSources(16, 1),
		Core:      smallConfig(1),
		Dist:      DistanceParams{Radius: 0.01, Threshold: 10},
		UseGrid:   true,
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 1 quad-grid: 16 sensors → tiers 16/4/1.
	if d.Levels() != 3 || d.NodeCount() != 21 {
		t.Errorf("grid topology: levels=%d nodes=%d, want 3, 21", d.Levels(), d.NodeCount())
	}
	for i := 0; i < 16; i++ {
		x, y, ok := d.SensorPosition(i)
		if !ok || x <= 0 || x >= 1 || y <= 0 || y >= 1 {
			t.Fatalf("sensor %d position (%v,%v,%v)", i, x, y, ok)
		}
	}
	if _, _, ok := d.SensorPosition(99); ok {
		t.Error("out-of-range position lookup succeeded")
	}
	d.Run(3000)
	if len(d.Reports()) == 0 {
		t.Error("grid deployment reported nothing")
	}
}

func TestDeploymentGridRequiresSquareCount(t *testing.T) {
	_, err := NewDeployment(DeploymentConfig{
		Algorithm: D3,
		Sources:   buildSources(10, 1),
		Core:      smallConfig(1),
		Dist:      DistanceParams{Radius: 0.01, Threshold: 10},
		UseGrid:   true,
	})
	if err == nil {
		t.Error("non-square sensor count accepted for grid topology")
	}
}

func TestSensorPositionHierarchyAbsent(t *testing.T) {
	d, err := NewDeployment(DeploymentConfig{
		Algorithm: D3,
		Sources:   buildSources(4, 1),
		Branching: 2,
		Core:      smallConfig(1),
		Dist:      DistanceParams{Radius: 0.01, Threshold: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := d.SensorPosition(0); ok {
		t.Error("hierarchy deployment should not expose positions")
	}
}

func TestAlgorithmString(t *testing.T) {
	for a, want := range map[Algorithm]string{D3: "D3", MGDD: "MGDD", Centralized: "centralized"} {
		if a.String() != want {
			t.Errorf("%d.String() = %q", a, a.String())
		}
	}
	if !strings.HasPrefix(Algorithm(42).String(), "algorithm(") {
		t.Error("unknown algorithm string wrong")
	}
}

func TestDefaultConfigValid(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		if err := DefaultConfig(dim).Validate(); err != nil {
			t.Errorf("DefaultConfig(%d) invalid: %v", dim, err)
		}
	}
}

func TestCalibrateKSigmaExported(t *testing.T) {
	ref := TakeSource(NewMixtureSource(1, 51), 4000)
	prm := MDEFParams{R: 0.08, AlphaR: 0.01, KSigma: 3}
	k := CalibrateKSigma(ref, prm, 20, 200)
	if k <= 0 || k > 3 {
		t.Errorf("calibrated kSigma = %v", k)
	}
}
