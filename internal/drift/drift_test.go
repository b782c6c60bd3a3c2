package drift_test

import (
	"math"
	"testing"

	"odds/internal/drift"
	"odds/internal/stats"
)

// stationaryFires runs a Default()-configured bank over a stationary
// N(0.5, 0.05²) stream derived from seed and returns the number of
// detections. The unit test below proves the count is zero for every
// byte-sized seed, which is what lets FuzzDriftDetector assert the
// false-alarm bound on the same family without the assertion being
// probabilistic: the fuzzer can only choose among pre-verified streams.
func stationaryFires(seed int64, n int) int {
	det := drift.NewDetector(drift.Default())
	r := stats.NewRand(seed)
	fires := 0
	for i := 0; i < n; i++ {
		x := 0.5 + 0.05*r.NormFloat64()
		if det.Observe(x).Any() {
			fires++
		}
	}
	return fires
}

// TestStationaryFalseAlarmBound pins the default thresholds: none of the
// 256 byte-seeded stationary streams produces a single detection. This is
// the deterministic ground the fuzz target's false-alarm assertion
// stands on.
func TestStationaryFalseAlarmBound(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: 256-seed sweep")
	}
	total := 0
	for seed := int64(0); seed < 256; seed++ {
		total += stationaryFires(seed, 2000)
	}
	if total != 0 {
		t.Fatalf("stationary streams fired %d times; default thresholds too tight", total)
	}
}

func TestKSDetectsAbruptShift(t *testing.T) {
	cfg := drift.Default()
	cfg.PHLambda, cfg.MKZ = 0, 0 // KS only
	det := drift.NewDetector(cfg)
	r := stats.NewRand(7)
	fired := -1
	for i := 0; i < 2000; i++ {
		mu := 0.3
		if i >= 1000 {
			mu = 0.55
		}
		if det.Observe(mu + 0.05*r.NormFloat64()).Any() {
			fired = i
			break
		}
	}
	if fired < 1000 {
		t.Fatalf("KS fired at %d, want after the shift at 1000", fired)
	}
	if fired > 1000+2*cfg.Window {
		t.Fatalf("KS fired at %d, want within two windows of the shift", fired)
	}
}

func TestPHDetectsMeanShift(t *testing.T) {
	cfg := drift.Default()
	cfg.KSD, cfg.MKZ = 0, 0 // PH only
	det := drift.NewDetector(cfg)
	r := stats.NewRand(11)
	fired := -1
	for i := 0; i < 2000; i++ {
		mu := 0.4
		if i >= 1000 {
			mu = 0.6
		}
		if det.Observe(mu + 0.05*r.NormFloat64()).Any() {
			fired = i
			break
		}
	}
	if fired < 1000 {
		t.Fatalf("PH fired at %d, want after the shift at 1000", fired)
	}
	if fired > 1200 {
		t.Fatalf("PH fired at %d, want promptly after the shift", fired)
	}
}

func TestMKDetectsTrend(t *testing.T) {
	cfg := drift.Default()
	cfg.KSD, cfg.PHLambda = 0, 0 // MK only
	det := drift.NewDetector(cfg)
	r := stats.NewRand(13)
	fired := -1
	for i := 0; i < 3000; i++ {
		mu := 0.3
		if i >= 1000 {
			mu = 0.3 + 0.0004*float64(i-1000) // slow ramp a mean test misses early
		}
		if det.Observe(mu + 0.02*r.NormFloat64()).Any() {
			fired = i
			break
		}
	}
	if fired < 1000 {
		t.Fatalf("MK fired at %d, want after ramp onset at 1000", fired)
	}
}

// TestConstantStream: all ties means Var(S)=0 and a degenerate KS; the
// bank must stay silent and finite rather than dividing by zero.
func TestConstantStream(t *testing.T) {
	det := drift.NewDetector(drift.Default())
	for i := 0; i < 1000; i++ {
		f := det.Observe(0.25)
		if f.Any() {
			t.Fatalf("constant stream fired at %d: %+v", i, f)
		}
	}
	if s := det.MKDetector().Stat(); s != 0 {
		t.Fatalf("MK stat on constant stream = %v, want 0", s)
	}
	if s := det.KSDetector().Stat(); s != 0 {
		t.Fatalf("KS stat on constant stream = %v, want 0", s)
	}
	if s := det.PHDetector().Stat(); math.IsNaN(s) || s < 0 {
		t.Fatalf("PH stat on constant stream = %v", s)
	}
}

// TestNonFiniteSkipped: NaN and ±Inf inputs are counted and ignored —
// they must not perturb any statistic.
func TestNonFiniteSkipped(t *testing.T) {
	cfg := drift.Default()
	clean := drift.NewDetector(cfg)
	dirty := drift.NewDetector(cfg)
	r := stats.NewRand(3)
	probes := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for i := 0; i < 1500; i++ {
		x := 0.5 + 0.05*r.NormFloat64()
		clean.Observe(x)
		if i%37 == 0 {
			dirty.Observe(probes[i%3])
		}
		dirty.Observe(x)
	}
	if dirty.Skipped() == 0 {
		t.Fatal("skipped counter did not advance")
	}
	if c, d := clean.KSDetector().Stat(), dirty.KSDetector().Stat(); c != d {
		t.Fatalf("KS stat perturbed by non-finite inputs: %v vs %v", c, d)
	}
	if c, d := clean.PHDetector().Stat(), dirty.PHDetector().Stat(); c != d {
		t.Fatalf("PH stat perturbed by non-finite inputs: %v vs %v", c, d)
	}
	if c, d := clean.MKDetector().S(), dirty.MKDetector().S(); c != d {
		t.Fatalf("MK S perturbed by non-finite inputs: %d vs %d", c, d)
	}
}

func TestConfigValidate(t *testing.T) {
	good := drift.Default()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []drift.Config{
		{Window: 4, CheckEvery: 1, KSD: 0.3},
		{Window: 64, CheckEvery: 0, KSD: 0.3},
		{Window: 64, CheckEvery: 8},
		{Window: 64, CheckEvery: 8, Cooldown: -1, KSD: 0.3},
		{Window: 64, CheckEvery: 8, KSD: math.NaN()},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d validated", i)
		}
	}
}

// TestMonitorSnapshotResume: a monitor restored from a snapshot fires on
// exactly the same arrivals, with the same statistics and counters, as
// the uninterrupted original.
func TestMonitorSnapshotResume(t *testing.T) {
	cfg := drift.Default()
	cfg.Window = 64
	cfg.Cooldown = 64
	mon, err := drift.NewMonitor(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRand(21)
	gen := func(i int) []float64 {
		mu := 0.4
		if i >= 900 {
			mu = 0.62
		}
		return []float64{mu + 0.05*r.NormFloat64(), 0.5 + 0.04*r.NormFloat64()}
	}
	history := make([][]float64, 0, 1600)
	for i := 0; i < 1600; i++ {
		p := gen(i)
		history = append(history, p)
	}
	// Drive to mid-stream (past a detection region start), snapshot, fork.
	for i := 0; i < 700; i++ {
		mon.Observe(history[i])
	}
	blob, err := mon.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mon2, err := drift.UnmarshalMonitor(blob, mon.Dim(), mon.Config())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mon2.Stats(), mon.Stats(); got != want {
		t.Fatalf("restored counters %+v, want %+v", got, want)
	}
	for i := 700; i < 1600; i++ {
		f1 := mon.Observe(history[i])
		f2 := mon2.Observe(history[i])
		if f1 != f2 {
			t.Fatalf("arrival %d: original fired %+v, restored fired %+v", i, f1, f2)
		}
	}
	if s1, s2 := mon.Stats(), mon2.Stats(); s1 != s2 {
		t.Fatalf("final counters diverged: %+v vs %+v", s1, s2)
	}
	if mon.Stats().Detections == 0 {
		t.Fatal("scenario produced no detections; snapshot test is vacuous")
	}
}

// TestRebaseStopsRefire: after the bank rebases on a detection, the same
// (now stationary) post-shift regime must not keep firing.
func TestRebaseStopsRefire(t *testing.T) {
	cfg := drift.Default()
	det := drift.NewDetector(cfg)
	r := stats.NewRand(5)
	fires := 0
	for i := 0; i < 6000; i++ {
		mu := 0.3
		if i >= 1000 {
			mu = 0.6
		}
		if det.Observe(mu + 0.04*r.NormFloat64()).Any() {
			fires++
		}
	}
	if fires == 0 {
		t.Fatal("shift not detected")
	}
	if fires > 2 {
		t.Fatalf("one shift fired %d times; rebase/cooldown not suppressing refires", fires)
	}
}

// TestQuantileAccessors: the KS windows double as full-resolution
// equi-depth summaries.
func TestQuantileAccessors(t *testing.T) {
	ks := drift.NewKS(100)
	for i := 1; i <= 100; i++ {
		ks.Observe(float64(i))
	}
	if q := ks.CurQuantile(0.5); q != 50 {
		t.Fatalf("median of 1..100 = %v, want 50", q)
	}
	if q := ks.RefQuantile(1.0); q != 100 {
		t.Fatalf("max of reference = %v, want 100", q)
	}
	if q := ks.RefQuantile(0); q != 1 {
		t.Fatalf("min of reference = %v, want 1", q)
	}
}
