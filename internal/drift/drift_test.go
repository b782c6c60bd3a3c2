package drift_test

import (
	"math"
	"testing"

	"odds/internal/binfmt"
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
// exactly the same arrivals, with the same counters, as the uninterrupted
// original. A fork is taken at every 50th arrival, so restores land before
// the shift (full windows), mid-cooldown after a detection, and on
// Mann–Kendall windows a rebase emptied.
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
	var forks []*drift.Monitor
	var forkedAt, firedAt []int
	for i := 0; i < 1600; i++ {
		if i%50 == 0 {
			blob, err := mon.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			fork, err := drift.UnmarshalMonitor(blob, mon.Dim(), mon.Config())
			if err != nil {
				t.Fatalf("arrival %d: %v", i, err)
			}
			if got, want := fork.Stats(), mon.Stats(); got != want {
				t.Fatalf("arrival %d: restored counters %+v, want %+v", i, got, want)
			}
			forks = append(forks, fork)
			forkedAt = append(forkedAt, i)
		}
		p := gen(i)
		want := mon.Observe(p)
		if want.Any() {
			firedAt = append(firedAt, i)
		}
		for k, fork := range forks {
			if got := fork.Observe(p); got != want {
				t.Fatalf("arrival %d, fork from %d: original fired %+v, restored fired %+v", i, forkedAt[k], want, got)
			}
			if got, want := fork.Stats(), mon.Stats(); got != want {
				t.Fatalf("arrival %d, fork from %d: counters %+v, want %+v", i, forkedAt[k], got, want)
			}
		}
	}
	// Some fork must have been taken inside a cooldown, which is also the
	// stretch where the rebased Mann–Kendall windows are still refilling.
	midCooldown := 0
	for _, f := range firedAt {
		for _, k := range forkedAt {
			if k > f && k <= f+cfg.Cooldown {
				midCooldown++
			}
		}
	}
	if len(firedAt) == 0 || midCooldown == 0 {
		t.Fatalf("fires at %v, %d forks mid-cooldown; snapshot test is vacuous", firedAt, midCooldown)
	}
}

// TestUnmarshalMonitorRefusesNarrowBank: every bank of a monitor snapshot
// runs the configured window. A hand-built blob whose bank declares a
// narrower one (64 under Default's 128, holding 10 values and no KS
// reference) is refused rather than resized.
func TestUnmarshalMonitorRefusesNarrowBank(t *testing.T) {
	cfg := drift.Default()
	vals := []float64{0.41, 0.52, 0.47, 0.39, 0.55, 0.50, 0.44, 0.48, 0.53, 0.46}
	s, _ := drift.BruteMK(vals)
	w := binfmt.Writer{}
	w.U32(0x4f44444d) // "ODDM"
	w.U32(1)          // dim
	w.U32(uint32(cfg.Window))
	w.U32(uint32(cfg.CheckEvery))
	w.U32(uint32(cfg.Cooldown))
	w.F64(cfg.KSD)
	w.F64(cfg.PHDelta)
	w.F64(cfg.PHLambda)
	w.F64(cfg.MKZ)
	for i := 0; i < 6; i++ { // Observed, Detections, KS/PH/MK fires, LastFire
		w.U64(0)
	}
	w.U32(64) // bank window
	w.U32(0)  // since
	w.U32(0)  // cooldown
	w.U64(0)  // skipped
	w.U32(uint32(len(vals)))
	w.F64s(vals)
	w.Bool(false) // no KS reference
	w.U64(0)      // PH: t, sum, mUp, mDn, mMin, mMax
	w.F64s(make([]float64, 5))
	w.U32(uint32(len(vals)))
	w.F64s(vals)
	w.U64(uint64(s))
	if _, err := drift.UnmarshalMonitor(w.B, 1, cfg); err == nil {
		t.Fatal("a bank narrower than the configured window was accepted")
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
