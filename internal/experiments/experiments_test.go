package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestPRCounters(t *testing.T) {
	var pr PR
	pr.Observe(true, true)
	pr.Observe(true, false)
	pr.Observe(false, true)
	pr.Observe(false, false)
	if pr.TP != 1 || pr.FP != 1 || pr.FN != 1 {
		t.Fatalf("counters = %+v", pr)
	}
	if pr.Precision() != 0.5 || pr.Recall() != 0.5 {
		t.Errorf("P/R = %v/%v", pr.Precision(), pr.Recall())
	}
	if pr.Truths() != 2 {
		t.Errorf("Truths = %d", pr.Truths())
	}
	var empty PR
	if !math.IsNaN(empty.Precision()) || !math.IsNaN(empty.Recall()) {
		t.Error("empty PR should be NaN")
	}
	var a PR
	a.Add(pr)
	a.Add(pr)
	if a.TP != 2 || a.FP != 2 || a.FN != 2 {
		t.Errorf("Add wrong: %+v", a)
	}
}

func TestMeanPRSkipsNaN(t *testing.T) {
	runs := []PR{
		{TP: 1, FP: 0, FN: 0}, // P=1 R=1
		{TP: 0, FP: 0, FN: 1}, // P=NaN R=0
	}
	p, r := meanPR(runs)
	if p != 1 {
		t.Errorf("precision mean = %v, want 1 (NaN skipped)", p)
	}
	if r != 0.5 {
		t.Errorf("recall mean = %v, want 0.5", r)
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "demo", Columns: []string{"a", "bbbb"}}
	tbl.AddRow("x", 1)
	tbl.AddRow("yy", 2.5)
	tbl.Notes = append(tbl.Notes, "a note")
	var sb strings.Builder
	tbl.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== demo ==", "a", "bbbb", "x", "yy", "2.500", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	if FmtF(math.NaN(), 2) != "-" || FmtPct(math.NaN()) != "-" {
		t.Error("NaN formatting wrong")
	}
	if FmtF(1.23456, 2) != "1.23" {
		t.Error("FmtF wrong")
	}
	if FmtPct(0.5) != "50.0%" {
		t.Error("FmtPct wrong")
	}
}

func TestLevelsOf(t *testing.T) {
	got := levelsOf(32, 4)
	want := []int{32, 8, 2, 1}
	if len(got) != len(want) {
		t.Fatalf("levels = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("levels = %v, want %v", got, want)
		}
	}
	if ls := levelsOf(1, 4); len(ls) != 1 || ls[0] != 1 {
		t.Errorf("single leaf levels = %v", ls)
	}
}

func TestGridSide(t *testing.T) {
	if gridSide(125, 1) != 125 {
		t.Errorf("1-d side = %d", gridSide(125, 1))
	}
	if gridSide(125, 2) != 11 { // 11^2=121 ≤ 125 < 144
		t.Errorf("2-d side = %d", gridSide(125, 2))
	}
	if gridSide(1, 2) != 2 { // floor at 2
		t.Errorf("minimum side = %d", gridSide(1, 2))
	}
}

func quickSweep() SweepConfig {
	s := DefaultSweep(Synthetic1D).Quick()
	s.SampleFracs = []float64{0.05}
	return s
}

func TestRunD3QuickKernel(t *testing.T) {
	s := quickSweep()
	res := RunD3(s.prConfig(0.05, KindKernel, 0))
	if len(res.PerLevel) != len(levelsOf(s.Leaves, s.Branching)) {
		t.Fatalf("levels = %d", len(res.PerLevel))
	}
	l1 := res.PerLevel[0]
	if l1.TP+l1.FP == 0 {
		t.Fatal("leaf level predicted nothing")
	}
	if p := l1.Precision(); p < 0.6 {
		t.Errorf("leaf precision = %v, want reasonably high", p)
	}
	if r := l1.Recall(); r < 0.4 {
		t.Errorf("leaf recall = %v, want reasonable", r)
	}
	if res.TrueOutliers == 0 {
		t.Error("no true outliers on noisy workload")
	}
}

func TestRunD3QuickHistogram(t *testing.T) {
	if testing.Short() {
		t.Skip("slow figure driver; run without -short for this coverage")
	}
	s := quickSweep()
	cfg := s.prConfig(0.05, KindHistogram, 0)
	res := RunD3(cfg)
	l1 := res.PerLevel[0]
	if l1.TP == 0 {
		t.Fatal("histogram variant detected nothing")
	}
	if p := l1.Precision(); p < 0.5 {
		t.Errorf("histogram precision = %v", p)
	}
}

func TestRunD3PrecisionRisesWithLevel(t *testing.T) {
	// Theorem 3's practical consequence, which the paper highlights:
	// levels above the leaves see pre-filtered candidates, so precision
	// should not collapse upward. We assert the weaker monotone-ish
	// property that level-2 precision is at least level-1 minus slack.
	if testing.Short() {
		t.Skip("slow figure driver; run without -short for this coverage")
	}
	s := quickSweep()
	s.Runs = 2
	prec, _, _ := s.d3Sweep(0.05, KindKernel)
	if len(prec) < 2 || math.IsNaN(prec[0]) || math.IsNaN(prec[1]) {
		t.Skip("not enough level data in quick run")
	}
	if prec[1] < prec[0]-0.15 {
		t.Errorf("level-2 precision %v far below level-1 %v", prec[1], prec[0])
	}
}

func TestRunMGDDQuickKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("slow figure driver; run without -short for this coverage")
	}
	s := quickSweep()
	res := RunMGDD(s.prConfig(0.05, KindKernel, 0))
	if res.PR.TP+res.PR.FP == 0 {
		t.Fatal("MGDD predicted nothing")
	}
	if p := res.PR.Precision(); p < 0.5 {
		t.Errorf("MGDD precision = %v", p)
	}
	if res.TrueOutliers == 0 {
		t.Error("no MDEF true outliers")
	}
}

func TestRunMGDDQuickHistogram(t *testing.T) {
	if testing.Short() {
		t.Skip("slow figure driver; run without -short for this coverage")
	}
	s := quickSweep()
	res := RunMGDD(s.prConfig(0.05, KindHistogram, 0))
	if res.PR.TP+res.PR.FP == 0 {
		t.Fatal("MGDD histogram predicted nothing")
	}
}

func TestRunD3SampledHistogram(t *testing.T) {
	// The fully-online histogram variant: same sampling substrate as the
	// kernel method, equi-depth representation on top. It must detect, and
	// per the paper's conjecture it should not beat the offline histogram.
	s := quickSweep()
	res := RunD3(s.prConfig(0.05, KindSampledHistogram, 0))
	l1 := res.PerLevel[0]
	if l1.TP == 0 {
		t.Fatal("sampled histogram detected nothing")
	}
	if p := l1.Precision(); p < 0.4 {
		t.Errorf("sampled-histogram precision = %v, implausibly low", p)
	}
}

func TestRunD3Wavelet(t *testing.T) {
	s := quickSweep()
	res := RunD3(s.prConfig(0.05, KindWavelet, 0))
	l1 := res.PerLevel[0]
	if l1.TP == 0 {
		t.Fatal("wavelet baseline detected nothing")
	}
	if p := l1.Precision(); p < 0.4 {
		t.Errorf("wavelet precision = %v, implausibly low", p)
	}
}

func TestRunD3WaveletRejects2D(t *testing.T) {
	s := DefaultSweep(Synthetic2D).Quick()
	defer func() {
		if recover() == nil {
			t.Error("2-d wavelet run did not panic")
		}
	}()
	RunD3(s.prConfig(0.05, KindWavelet, 0))
}

func TestRunD32D(t *testing.T) {
	if testing.Short() {
		t.Skip("slow figure driver; run without -short for this coverage")
	}
	s := DefaultSweep(Synthetic2D).Quick()
	res := RunD3(s.prConfig(0.05, KindKernel, 0))
	l1 := res.PerLevel[0]
	if l1.TP == 0 {
		t.Fatal("2-d D3 detected nothing")
	}
	if p := l1.Precision(); p < 0.5 {
		t.Errorf("2-d precision = %v", p)
	}
}

// ultraQuick trims a sweep to seconds for driver-structure tests.
func ultraQuick(w Workload) SweepConfig { return DefaultSweep(w).golden() }

func TestFig7TableStructure(t *testing.T) {
	tbl := RunFig7(ultraQuick(Synthetic1D)).Table()
	// 2 estimators × 1 frac × (3 D3 levels + 1 MGDD row).
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "kernel" || tbl.Rows[4][0] != "histogram" {
		t.Error("estimator labels wrong")
	}
	var sb strings.Builder
	tbl.Fprint(&sb)
	if !strings.Contains(sb.String(), "MGDD") {
		t.Error("MGDD row missing")
	}
}

func TestFig8TableStructure(t *testing.T) {
	tbl := RunFig8(ultraQuick(Synthetic1D), []float64{0.5, 1.0}).Table()
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "0.50" || tbl.Rows[1][0] != "1.00" {
		t.Errorf("f labels wrong: %v", tbl.Rows)
	}
}

func TestFig9TableStructure(t *testing.T) {
	tbl := RunFig9(ultraQuick(Synthetic2D)).Table()
	// 1 frac × (3 D3 levels + 1 MGDD).
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
}

func TestFig10TableStructure(t *testing.T) {
	tbl := RunFig10(ultraQuick(EngineData)).Table()
	// 2 datasets × 1 frac × (3 D3 levels + 1 MGDD).
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "engine" || tbl.Rows[4][0] != "environmental" {
		t.Error("dataset labels wrong")
	}
}

func TestFig11TableStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("slow figure driver; run without -short for this coverage")
	}
	tbl := RunFig11(DefaultFig11().Quick()).Table()
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if len(tbl.Columns) != 5 {
		t.Errorf("columns = %v", tbl.Columns)
	}
}

func TestFig5Table(t *testing.T) {
	tbl := RunFig5(Fig5Config{EngineLen: 20000, EnviroLen: 15000, Seed: 1}).Table()
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "engine" || tbl.Rows[1][0] != "pressure" {
		t.Error("row labels wrong")
	}
}

func TestFig6QuickBehavior(t *testing.T) {
	c := Fig6Config{
		WindowCap:  1024,
		SampleSize: 256,
		Eps:        0.2,
		Children:   2,
		Period:     2048,
		Epochs:     6144,
		SampleIvl:  128,
		GridPoints: 64,
		Fractions:  []float64{0.5},
		Seed:       2,
	}
	series := RunFig6(c)
	if len(series.Points) == 0 {
		t.Fatal("no timeline points")
	}
	// Stable-phase distance should be small; post-shift spike large.
	if series.MaxStableLeaf > 0.05 {
		t.Errorf("stable JS = %v, want small", series.MaxStableLeaf)
	}
	spike := 0.0
	for _, p := range series.Points {
		if p.Time > c.Period && p.Time <= c.Period+c.SampleIvl*2 && p.Leaf > spike {
			spike = p.Leaf
		}
	}
	if spike < 0.2 {
		t.Errorf("post-shift spike = %v, want large", spike)
	}
	if series.AdaptLatency <= 0 || series.AdaptLatency > c.Period {
		t.Errorf("adapt latency = %d, want within a period", series.AdaptLatency)
	}
}

func TestFig11QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow figure driver; run without -short for this coverage")
	}
	rows := RunFig11(DefaultFig11().Quick())
	if len(rows) == 0 {
		t.Fatal("no ladder rows")
	}
	for _, r := range rows {
		if r.D3 <= 0 || r.MGDD <= 0 || r.Centralized <= 0 {
			t.Fatalf("zero rates: %+v", r)
		}
		if !(r.D3 < r.MGDD && r.MGDD < r.Centralized) {
			t.Errorf("ordering violated: %+v", r)
		}
		if r.Centralized < 10*r.D3 {
			t.Errorf("centralized/D3 ratio too small: %+v", r)
		}
	}
	// Rates grow with network size.
	if rows[len(rows)-1].Centralized <= rows[0].Centralized {
		t.Error("centralized rate should grow with size")
	}
}

func TestMemoryExperiment(t *testing.T) {
	rows := RunMemory(MemoryConfig{WindowCaps: []int{2000}, SampleFrac: 0.1, Eps: 0.2, Epochs: 5000, Seed: 1})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.VarBytes > r.VarBoundBytes {
			t.Errorf("%s: variance memory %d exceeds bound %d", r.Dataset, r.VarBytes, r.VarBoundBytes)
		}
		if r.SavingsPct <= 0 {
			t.Errorf("%s: no savings vs bound", r.Dataset)
		}
		if r.TotalBytes != r.SampleBytes+r.VarBytes {
			t.Error("total mismatch")
		}
	}
}

func TestWorkloadHelpers(t *testing.T) {
	if Synthetic1D.Dim() != 1 || Synthetic2D.Dim() != 2 || EnviroData.Dim() != 2 || EngineData.Dim() != 1 {
		t.Error("workload dims wrong")
	}
	for _, w := range []Workload{Synthetic1D, Synthetic2D, EngineData, EnviroData} {
		if w.String() == "" || strings.HasPrefix(w.String(), "workload(") {
			t.Errorf("workload %d has no name", w)
		}
	}
	s := DefaultSweep(EngineData)
	if s.dist().Radius != 0.005 {
		t.Error("engine distance radius wrong")
	}
	if s.mdefPrm().R != 0.05 {
		t.Error("engine MDEF radius wrong")
	}
	s = DefaultSweep(Synthetic1D)
	if s.dist().Radius != 0.01 || s.dist().Threshold != 45 {
		t.Error("synthetic distance params wrong")
	}
}

func TestEngineStreamsBurstInsideMeasurement(t *testing.T) {
	s := DefaultSweep(EngineData).Quick()
	factory := s.streams()
	src := factory(0, 7)
	dips := 0
	for i := 0; i < s.Epochs; i++ {
		x := src.Next()[0]
		if i >= s.MeasureFrom && x < 0.3 {
			dips++
		}
	}
	if dips == 0 {
		t.Error("no dips during measured phase — burst not rescheduled")
	}
}

func TestAblationEstimatorsTable(t *testing.T) {
	tbl := RunAblation(ultraQuick(Synthetic1D)).Table()
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tbl.Rows))
	}
	// 2-d drops the wavelet row.
	tbl2 := RunAblation(ultraQuick(Synthetic2D)).Table()
	if len(tbl2.Rows) != 3 {
		t.Fatalf("2-d rows = %d, want 3", len(tbl2.Rows))
	}
}

// TestAblationRunsOverride is the regression test for `oddsim -exp
// ablation -runs N` silently running once: the single-run default applies
// at paper scale only when no run count was given.
func TestAblationRunsOverride(t *testing.T) {
	cases := []struct {
		o    Options
		want int
	}{
		{Options{Scale: Paper}, 1},
		{Options{Scale: Paper, Runs: 3}, 3},
		{Options{Scale: Quick}, 1},
		{Options{Scale: Quick, Runs: 3}, 3},
		{Options{Scale: Golden}, 1},
	}
	for _, tc := range cases {
		if got := ablationSweep(tc.o).Runs; got != tc.want {
			t.Errorf("ablationSweep(%+v).Runs = %d, want %d", tc.o, got, tc.want)
		}
	}
	// The other sweep figures keep the paper default of 3 runs.
	if got := sweepAt(Options{Scale: Paper}, Synthetic1D).Runs; got != 3 {
		t.Errorf("paper sweep runs = %d, want 3", got)
	}
}

func TestDefaultConfigsValid(t *testing.T) {
	if c := DefaultFig5(); c.EngineLen != 50000 || c.EnviroLen != 35000 {
		t.Error("DefaultFig5 sizes wrong")
	}
	if c := DefaultFig6(); c.WindowCap != 10240 || c.SampleSize != 1024 || c.Period <= c.WindowCap {
		t.Error("DefaultFig6 must use paper sizes with period beyond |W|")
	}
	if c := DefaultMemory(); len(c.WindowCaps) != 2 || c.Eps != 0.2 {
		t.Error("DefaultMemory wrong")
	}
	if c := DefaultFig11(); c.WindowCap != 10240 || c.SampleSize != 1024 || c.F != 0.25 {
		t.Error("DefaultFig11 must use paper parameters")
	}
	s := DefaultSweep(Synthetic1D)
	if s.WindowCap != 10000 || s.F != 0.5 || len(s.SampleFracs) != 3 {
		t.Error("DefaultSweep must use paper parameters")
	}
}

func TestFig6TableRendering(t *testing.T) {
	c := Fig6Config{
		WindowCap: 512, SampleSize: 128, Eps: 0.2, Children: 2,
		Period: 1024, Epochs: 2048, SampleIvl: 256, GridPoints: 32,
		Fractions: []float64{0.5}, Seed: 1,
	}
	tbl := RunFig6(c).Table()
	if len(tbl.Rows) != 2048/256 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if len(tbl.Notes) != 2 {
		t.Errorf("notes = %d", len(tbl.Notes))
	}
}

func TestMemoryTableRendering(t *testing.T) {
	tbl := RunMemory(MemoryConfig{WindowCaps: []int{1000}, SampleFrac: 0.1, Eps: 0.2, Epochs: 2500, Seed: 1}).Table()
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestPRConfigForMatchesInternal(t *testing.T) {
	s := ultraQuick(Synthetic1D)
	pub := s.PRConfigFor(0.05, KindKernel, 1)
	priv := s.prConfig(0.05, KindKernel, 1)
	if pub.Seed != priv.Seed || pub.Core != priv.Core || pub.Epochs != priv.Epochs {
		t.Error("PRConfigFor diverges from internal construction")
	}
}

func TestRunD3DeepHierarchy(t *testing.T) {
	// Depth beyond 8 levels must not break the decision bookkeeping
	// (regression: pred was a fixed-size array).
	if testing.Short() {
		t.Skip("slow figure driver; run without -short for this coverage")
	}
	s := ultraQuick(Synthetic1D)
	s.Leaves = 256
	s.Branching = 2 // depth 9
	s.WindowCap = 200
	s.Epochs = 300
	s.MeasureFrom = 200
	res := RunD3(s.prConfig(0.05, KindKernel, 0))
	if len(res.PerLevel) != 9 {
		t.Fatalf("levels = %d, want 9", len(res.PerLevel))
	}
}
