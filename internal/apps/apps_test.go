package apps

import (
	"math"
	"testing"

	"odds/internal/core"
	"odds/internal/stats"
	"odds/internal/stream"
	"odds/internal/window"
)

func engineConfig(dim int) core.Config {
	return core.Config{
		WindowCap:      2000,
		SampleSize:     200,
		Eps:            0.2,
		SampleFraction: 0.5,
		Dim:            dim,
		RebuildEvery:   1,
	}
}

func TestRangeEnginePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"blockLen=0":  func() { NewRangeEngine(engineConfig(1), 0, 4) },
		"maxBlocks=0": func() { NewRangeEngine(engineConfig(1), 10, 0) },
		"bad config":  func() { NewRangeEngine(core.Config{Dim: 1}, 10, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestRangeEngineCountWholeDomain(t *testing.T) {
	e := NewRangeEngine(engineConfig(1), 128, 32)
	src := stream.NewMixture(stream.DefaultMixture(), 1, 2)
	const n = 2048
	for i := 0; i < n; i++ {
		e.Observe(src.Next())
	}
	got := e.Count([]float64{0}, []float64{1}, 0, 0)
	if math.Abs(got-n) > n/50 {
		t.Errorf("whole-domain count = %v, want ≈%d", got, n)
	}
	if e.Now() != n {
		t.Errorf("Now = %d", e.Now())
	}
}

func TestRangeEngineTemporalConstraint(t *testing.T) {
	// First 512 arrivals near 0.2, next 512 near 0.8 — temporal queries
	// should separate the phases.
	e := NewRangeEngine(engineConfig(1), 64, 32)
	r := stats.NewRand(4)
	for i := 0; i < 512; i++ {
		e.Observe(window.Point{stats.Clamp(0.2+r.NormFloat64()*0.02, 0, 1)})
	}
	for i := 0; i < 512; i++ {
		e.Observe(window.Point{stats.Clamp(0.8+r.NormFloat64()*0.02, 0, 1)})
	}
	early := e.Count([]float64{0.7}, []float64{0.9}, 0, 512)
	late := e.Count([]float64{0.7}, []float64{0.9}, 512, 1024)
	if early > 30 {
		t.Errorf("early-phase high-range count = %v, want ≈0", early)
	}
	if late < 400 {
		t.Errorf("late-phase high-range count = %v, want ≈512", late)
	}
}

func TestRangeEngineAverage(t *testing.T) {
	e := NewRangeEngine(engineConfig(1), 64, 32)
	r := stats.NewRand(6)
	for i := 0; i < 1024; i++ {
		e.Observe(window.Point{stats.Clamp(0.4+r.NormFloat64()*0.03, 0, 1)})
	}
	avg := e.Average(0, []float64{0}, []float64{1}, 0, 0)
	if math.Abs(avg-0.4) > 0.02 {
		t.Errorf("average = %v, want ≈0.4", avg)
	}
	// Empty region yields NaN.
	if !math.IsNaN(e.Average(0, []float64{0.9}, []float64{0.95}, 0, 0)) {
		t.Error("empty-region average should be NaN")
	}
}

func TestRangeEngineAverageDimPanics(t *testing.T) {
	e := NewRangeEngine(engineConfig(1), 64, 8)
	defer func() {
		if recover() == nil {
			t.Error("bad dim did not panic")
		}
	}()
	e.Average(1, []float64{0}, []float64{1}, 0, 0)
}

func TestRangeEngineUnsealedBlockExact(t *testing.T) {
	e := NewRangeEngine(engineConfig(1), 1000, 4)
	for i := 0; i < 10; i++ {
		e.Observe(window.Point{0.5})
	}
	got := e.Count([]float64{0.4}, []float64{0.6}, 0, 0)
	if got != 10 {
		t.Errorf("unsealed count = %v, want exactly 10", got)
	}
}

func TestOverlapAndInBox(t *testing.T) {
	if overlap(0, 10, 5, 15) != 5 || overlap(0, 5, 5, 10) != 0 || overlap(2, 3, 0, 10) != 1 {
		t.Error("overlap wrong")
	}
	if !inBox(window.Point{0.5, 0.5}, []float64{0, 0}, []float64{1, 1}) {
		t.Error("inBox false negative")
	}
	if inBox(window.Point{1.5, 0.5}, []float64{0, 0}, []float64{1, 1}) {
		t.Error("inBox false positive")
	}
}

func buildModel(t *testing.T, mu float64, seed int64) *core.Estimator {
	t.Helper()
	est := core.NewEstimator(engineConfig(1), 2000, 2000, stats.NewRand(seed))
	r := stats.NewRand(seed + 100)
	for i := 0; i < 1500; i++ {
		est.Observe(window.Point{stats.Clamp(mu+r.NormFloat64()*0.05, 0, 1)})
	}
	return est
}

func TestFaultDetectorFlagsDeviantChild(t *testing.T) {
	f := NewFaultDetector(64)
	for i := 0; i < 4; i++ {
		f.SetModel(i, buildModel(t, 0.4, int64(i)).Model())
	}
	f.SetModel(4, buildModel(t, 0.8, 99).Model()) // faulty sensor
	reports := f.Scan(0.3)
	if len(reports) == 0 {
		t.Fatal("deviant child not reported")
	}
	if reports[0].Child != 4 {
		t.Errorf("most deviant child = %d, want 4", reports[0].Child)
	}
	for _, r := range reports[1:] {
		if r.Child == 4 {
			t.Error("child 4 reported twice")
		}
	}
	// Healthy siblings should not dominate the report list.
	if len(reports) > 2 {
		t.Errorf("%d children reported, want few", len(reports))
	}
}

func TestFaultDetectorNeedsTwoModels(t *testing.T) {
	f := NewFaultDetector(32)
	if got := f.Scan(0.1); got != nil {
		t.Error("scan with no models should be nil")
	}
	f.SetModel(0, buildModel(t, 0.4, 1).Model())
	if got := f.Scan(0.1); got != nil {
		t.Error("scan with one model should be nil")
	}
}

func TestFaultDetectorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("gridPoints=0 did not panic")
		}
	}()
	NewFaultDetector(0)
}

func TestRegionMonitor(t *testing.T) {
	m := NewRegionMonitor(100, 3)
	for i, epoch := range []int{10, 20, 30} {
		if m.Report(epoch) {
			t.Errorf("alarm after %d reports", i+1)
		}
	}
	if !m.Report(40) {
		t.Error("4th outlier within window should alarm")
	}
	// Outside the window the old reports expire.
	if m.Report(500) {
		t.Error("isolated report after quiet period alarmed")
	}
	if m.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", m.Pending())
	}
}

func TestRegionMonitorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"window=0":    func() { NewRegionMonitor(0, 1) },
		"threshold=0": func() { NewRegionMonitor(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
