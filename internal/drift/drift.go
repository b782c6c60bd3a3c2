// Package drift implements streaming concept-drift detection for the
// sliding-window estimators. The paper assumes the window is stationary
// enough that the current bandwidths and the MGDD global model still
// describe the data; real sensor fleets drift (aging, seasons, load
// shifts), which silently degrades precision with no signal anywhere in
// the system. This package supplies that signal with three cheap
// two-window / sequential hypothesis tests over each value dimension —
//
//   - a two-sample Kolmogorov–Smirnov test between a frozen reference
//     window and the current sliding window (the exact, full-resolution
//     case of the repo's equi-depth/GK quantile machinery: both windows
//     are maintained as sorted arrays, i.e. complete equi-depth
//     summaries, and the KS statistic is the max ECDF gap),
//   - a Page–Hinkley mean-shift test with the classic O(1) recursion
//     (two-sided: separate cumulative deviations for increases and
//     decreases),
//   - a Mann–Kendall trend test with an incrementally maintained
//     concordance count S, normalized by the tie-corrected variance,
//
// plus, at the model layer (internal/serve, internal/core), a
// JS-divergence signal between the live kernel model and a reference
// snapshot reusing internal/divergence.
//
// Every streaming detector has a brute-force reference in this package's
// tests (BruteKS, BrutePH, BruteMK) that recomputes the statistic from scratch;
// the differential oracle suite pins the incremental implementations to
// those references bit-for-bit over randomized histories.
//
// Detectors ignore non-finite inputs (NaN, ±Inf): one bad reading must
// not poison a cumulative statistic forever. Skipped inputs are counted.
package drift

import (
	"errors"
	"fmt"
	"math"
)

var errConfigDim = errors.New("drift: dim must be positive")

// Config parameterizes one detector bank. A zero threshold disables the
// corresponding test, so callers can run any subset.
type Config struct {
	// Window is the two-window length W: the frozen reference window and
	// the current sliding window each hold W values.
	Window int
	// CheckEvery is the evaluation cadence in observations. Statistics
	// are maintained on every observation but compared against their
	// thresholds only every CheckEvery-th one.
	CheckEvery int
	// Cooldown suppresses further checks for this many observations
	// after a detection fires, giving the triggered adaptation time to
	// take effect before the detectors can fire again. Zero means
	// Window is used.
	Cooldown int
	// KSD is the two-sample KS threshold on the max ECDF gap D in
	// [0,1]. Zero or negative disables the KS test.
	KSD float64
	// PHDelta is the Page–Hinkley magnitude allowance: deviations
	// smaller than PHDelta per step do not accumulate.
	PHDelta float64
	// PHLambda is the Page–Hinkley detection threshold on the
	// cumulative deviation. Zero or negative disables the PH test.
	PHLambda float64
	// MKZ is the Mann–Kendall threshold on |Z|, the tie-corrected
	// normal score of the concordance statistic S. Zero or negative
	// disables the MK test.
	MKZ float64
}

// Default returns the thresholds used by the serving layer: tuned on the
// unit-cube sensor streams so that a stationary mixture essentially never
// fires (see TestStationaryFalseAlarmBound and the figdrift stationary
// row) while the figdrift drift menu is detected within a fraction of a
// window.
func Default() Config {
	return Config{
		Window:     128,
		CheckEvery: 16,
		Cooldown:   128,
		KSD:        0.35,
		PHDelta:    0.01,
		PHLambda:   8,
		MKZ:        4.5,
	}
}

// minWindow is the shortest two-window length the tests are meaningful at.
const minWindow = 8

// Validate rejects configurations the detectors cannot run.
func (c Config) Validate() error {
	if c.Window < minWindow {
		return fmt.Errorf("drift: Window %d must be >= %d", c.Window, minWindow)
	}
	if c.Window > 1<<20 {
		return fmt.Errorf("drift: Window %d must be <= 2^20", c.Window)
	}
	if c.CheckEvery <= 0 {
		return errors.New("drift: CheckEvery must be positive")
	}
	if c.Cooldown < 0 {
		return errors.New("drift: Cooldown must be non-negative")
	}
	if c.KSD <= 0 && c.PHLambda <= 0 && c.MKZ <= 0 {
		return errors.New("drift: all tests disabled (KSD, PHLambda, MKZ all <= 0)")
	}
	if !finite(c.KSD) || !finite(c.PHDelta) || !finite(c.PHLambda) || !finite(c.MKZ) {
		return errors.New("drift: non-finite threshold")
	}
	return nil
}

func (c Config) cooldown() int {
	if c.Cooldown == 0 {
		return c.Window
	}
	return c.Cooldown
}

func finite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}
