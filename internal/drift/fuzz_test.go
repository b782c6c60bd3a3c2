package drift_test

// FuzzDriftDetector interprets arbitrary bytes as (a) a seed choosing
// one of the 256 pre-verified stationary streams — the bank must not
// fire on any of them, the deterministic false-alarm bound pinned by
// TestStationaryFalseAlarmBound — and (b) an op program interleaving
// observations (including NaN/±Inf and constant runs) and rebases
// against a fresh bank, with the brute-force shadow checked
// bit-for-bit after every op and every statistic checked for sanity
// (finite, in range) regardless.

import (
	"math"
	"testing"

	"odds/internal/drift"
)

// fuzzValue maps a byte to an observation, reserving a few codes for the
// adversarial probes.
func fuzzValue(b byte) float64 {
	switch b {
	case 250:
		return math.NaN()
	case 251:
		return math.Inf(1)
	case 252:
		return math.Inf(-1)
	case 253:
		return -1e300
	case 254:
		return 1e300
	case 255:
		return -0.0
	default:
		return float64(b) / 249
	}
}

func FuzzDriftDetector(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{7, 1, 10, 2, 200, 3, 16, 1, 250, 1, 251, 1, 252, 4, 0, 1, 128})
	f.Add([]byte{42, 4, 60, 1, 30, 2, 90, 3, 1, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		// (a) False-alarm bound on the pre-verified stationary family.
		if fires := stationaryFires(int64(data[0]), 1200); fires != 0 {
			t.Fatalf("stationary stream seed=%d fired %d times", data[0], fires)
		}

		// (b) Op program against bank + shadow.
		cfg := drift.Config{
			Window:     32,
			CheckEvery: 3,
			Cooldown:   16,
			KSD:        0.3,
			PHDelta:    0.002,
			PHLambda:   0.8,
			MKZ:        2.0,
		}
		det := drift.NewDetector(cfg)
		sh := newShadow(cfg.Window)
		ops := data[1:]
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		step := func(x float64) {
			fired := det.Observe(x)
			sh.observe(x)
			if fired.Any() {
				sh.rebase()
			}
		}
		sanity := func() {
			if d := det.KSDetector().Stat(); math.IsNaN(d) || d < 0 || d > 1 {
				t.Fatalf("KS stat out of range: %v", d)
			}
			if s := det.PHDetector().Stat(); math.IsNaN(s) || s < 0 {
				t.Fatalf("PH stat invalid: %v", s)
			}
			if z := det.MKDetector().Stat(); math.IsNaN(z) || z < 0 {
				t.Fatalf("MK |Z| invalid: %v", z)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 5 {
			case 0, 1: // observe one value (reserved codes probe NaN/Inf)
				step(fuzzValue(arg))
			case 2: // constant run: every value tied
				for j := 0; j < 3+int(arg)%30; j++ {
					step(0.5)
				}
			case 3: // short stationary burst
				for j := 0; j < int(arg)%20; j++ {
					step(float64((i+j*41)%97) / 97)
				}
			case 4: // rebase without a detection (serve does this on JS fires)
				det.Rebase()
				sh.rebase()
			}
			if msg := checkStep(det, sh, cfg.PHDelta); msg != "" {
				t.Fatalf("op %d (code %d): streaming diverged from brute force: %s", i, op%5, msg)
			}
			sanity()
		}
	})
}
