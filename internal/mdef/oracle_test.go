package mdef_test

import (
	"testing"

	"odds/internal/mdef"
	"odds/internal/oracle"
	"odds/internal/stats"
	"odds/internal/window"
)

// TestDynTruthMatchesBruteForce is the MDEF half of the differential
// oracle suite: DynTruth maintains the exact aLOCI ground truth
// incrementally through randomized lossy sliding-window histories, and
// every per-arrival verdict is checked against NaiveMDEF, a from-scratch
// BruteForce-M specification that shares no code with DynTruth (mdef's
// BruteForce is a DynTruth, so it cannot be the reference). Disagreements
// shrink to a minimal failing point set printed as a Go literal.
func TestDynTruthMatchesBruteForce(t *testing.T) {
	for _, cfg := range oracle.Configs(30, 0x0ddface) {
		t.Run(cfg.Name(), func(t *testing.T) {
			t.Parallel()
			runMDEFOracle(t, cfg)
		})
	}
}

func runMDEFOracle(t *testing.T, cfg oracle.Config) {
	r := stats.NewRand(cfg.Seed)
	alphaR := 0.01 + 0.03*r.Float64()
	prm := mdef.Params{
		AlphaR: alphaR,
		R:      alphaR * float64(3+r.Intn(5)),
		KSigma: 2 + 2*r.Float64(),
	}
	src := cfg.NewStream()
	dyn := mdef.NewDynTruth(prm, cfg.Dim)
	var buf []window.Point

	for step := 0; step < cfg.Steps; step++ {
		if src.Lost(cfg.LossRate) {
			continue
		}
		p := src.Next()
		if len(buf) > 0 && r.Float64() < 0.05 {
			p = buf[r.Intn(len(buf))].Clone() // duplicate stress, as in the distance oracle
		}
		buf = append(buf, p)
		dyn.Add(p)
		if len(buf) > cfg.WindowCap {
			old := buf[0]
			buf = buf[1:]
			if !dyn.Remove(old) {
				t.Fatalf("%s: Remove(%v) found nothing at step %d", cfg.Name(), old, step)
			}
		}
		if dyn.Len() != len(buf) {
			t.Fatalf("%s: Len=%d, window holds %d at step %d", cfg.Name(), dyn.Len(), len(buf), step)
		}

		// Per-arrival check: the incremental verdict for the newest point
		// against the snapshot spec, and the early-exit IsOutlier against
		// the full Evaluate.
		res := dyn.Evaluate(p)
		if fast := dyn.IsOutlier(p); fast != res.Outlier {
			t.Fatalf("%s: IsOutlier(%v)=%v but Evaluate says %v (MDEF=%v σ=%v)",
				cfg.Name(), p, fast, res.Outlier, res.MDEF, res.SigMDEF)
		}
		want := mdef.NaiveMDEF(buf, p, prm)
		if res.Outlier != want {
			reportMDEFMismatch(t, cfg, prm, buf[:len(buf)-1], p, res.Outlier, want)
		}

		// Periodic whole-window check: every live point's incremental
		// verdict against the snapshot flags.
		if step%25 != 0 {
			continue
		}
		flags := mdef.NaiveBruteForce(buf, prm)
		for i, q := range buf {
			if got := dyn.Evaluate(q).Outlier; got != flags[i] {
				t.Fatalf("%s: Evaluate(%v)=%v mid-window, naive BruteForce-M says %v",
					cfg.Name(), q, got, flags[i])
			}
		}
	}
}

// reportMDEFMismatch shrinks the failing snapshot to a minimal point set
// that still disagrees and fails the test with a reproducer.
func reportMDEFMismatch(t *testing.T, cfg oracle.Config, prm mdef.Params, background []window.Point, q window.Point, got, want bool) {
	t.Helper()
	fails := func(sub []window.Point) bool {
		set := append(append([]window.Point(nil), sub...), q)
		d := mdef.NewDynTruth(prm, cfg.Dim)
		for _, p := range set {
			d.Add(p)
		}
		return d.Evaluate(q).Outlier != mdef.NaiveMDEF(set, q, prm)
	}
	minimal := background
	if fails(background) {
		minimal = oracle.Shrink(background, fails)
	}
	t.Fatalf("%s: verdict mismatch for %v (R=%v αr=%v kσ=%v): dyn=%v spec=%v\nminimal background (query appended):\n%s",
		cfg.Name(), q, prm.R, prm.AlphaR, prm.KSigma, got, want, oracle.Format(append(minimal, q)))
}
