// Package odds (Online Deviation Detection for Sensors) is a Go
// implementation of the online outlier-detection framework of Subramaniam,
// Palpanas, Papadopoulos, Kalogeraki and Gunopulos, "Online Outlier
// Detection in Sensor Data Using Non-Parametric Models" (VLDB 2006).
//
// The library estimates the distribution of a sensor's sliding window
// online — a chain sample of the window, a sliding-window variance sketch,
// and an Epanechnikov kernel density model over them — and detects two
// kinds of outliers against the estimate:
//
//   - distance-based (D,r)-outliers: values with fewer than D window
//     neighbors within radius r (the D3 algorithm, distributable across a
//     sensor hierarchy), and
//   - MDEF-based outliers: values whose multi-granularity deviation factor
//     is statistically significant (the MGDD algorithm, detected at leaves
//     against a replicated global model).
//
// Single-stream use needs only Detector or MDEFDetector. Networked use
// assembles a Deployment over a leader hierarchy and runs it on the
// deterministic epoch simulator, serially (Run) or across a worker pool
// (RunParallel) with bit-identical results.
package odds

import (
	"odds/internal/core"
	"odds/internal/distance"
	"odds/internal/kernel"
	"odds/internal/mdef"
	"odds/internal/stats"
	"odds/internal/stream"
	"odds/internal/window"
)

// Point is one d-dimensional sensor reading, normalized to [0,1]^d.
type Point = window.Point

// Config carries the sliding-window estimation parameters: window size
// |W|, sample size |R|, variance-sketch error, sample fraction f, and
// dimensionality.
type Config = core.Config

// DefaultConfig returns the paper's default parameters (|W| = 10,000,
// |R| = 500, eps = 0.2, f = 0.5) for the given dimensionality.
func DefaultConfig(dim int) Config { return core.DefaultConfig(dim) }

// DistanceParams defines a (D,r)-outlier query.
type DistanceParams = distance.Params

// MDEFParams defines an MDEF outlier query (sampling radius, counting
// radius, significance factor).
type MDEFParams = mdef.Params

// KernelModel is an immutable Epanechnikov kernel density model supporting
// analytic box-probability and neighbor-count queries.
type KernelModel = kernel.Estimator

// Source is an endless stream of readings; the stream subpackage provides
// synthetic and calibrated real-like generators, re-exported below.
type Source = stream.Source

// Detector is a single-sensor online detector for distance-based
// outliers: it maintains the estimation state of one sliding window and
// flags arrivals whose estimated neighbor count falls below the
// threshold.
type Detector struct {
	est *core.Estimator
	prm DistanceParams
}

// NewDetector returns a detector with the given estimation configuration
// and outlier parameters. The seed makes the internal sampling
// deterministic.
func NewDetector(cfg Config, prm DistanceParams, seed int64) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	return &Detector{
		est: core.NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), stats.NewRand(seed)),
		prm: prm,
	}, nil
}

// Observe feeds one reading and reports whether it is an outlier with
// respect to the current window estimate. Detection is suppressed until
// half a window has been observed.
func (d *Detector) Observe(p Point) bool {
	d.est.Observe(p)
	return d.est.Warmed() && d.est.IsDistanceOutlier(p, d.prm)
}

// Count answers the range query N(p,r): the estimated number of window
// values within L∞ distance r of p. It returns 0 before any data arrives.
func (d *Detector) Count(p Point, r float64) float64 {
	q := d.est.Querier()
	if q == nil {
		return 0
	}
	return q.Count(p, r)
}

// Model returns the current kernel density model (nil before data
// arrives). The model is immutable and safe for concurrent queries.
func (d *Detector) Model() *KernelModel { return d.est.Model() }

// MemoryBytes reports the detector's estimation-state footprint under the
// paper's 16-bit accounting.
func (d *Detector) MemoryBytes() int { return d.est.MemoryBytes() }

// MarshalBinary encodes the detector's estimation state for a leader
// handoff (the paper's Section 2 rotates the leadership role within each
// cell; the successor resumes from the incumbent's state).
func (d *Detector) MarshalBinary() ([]byte, error) { return d.est.MarshalBinary() }

// RestoreDetector rebuilds a detector from handoff state; the successor
// supplies its own seed for future sampling decisions.
func RestoreDetector(data []byte, prm DistanceParams, seed int64) (*Detector, error) {
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	est, err := core.UnmarshalEstimator(data, stats.NewRand(seed))
	if err != nil {
		return nil, err
	}
	return &Detector{est: est, prm: prm}, nil
}

// MDEFDetector is a single-sensor online detector for MDEF (local
// density) outliers against the sensor's own window model.
type MDEFDetector struct {
	est   *core.Estimator
	prm   MDEFParams
	cache *mdef.CachedCounter
	eval  mdef.Evaluator
}

// NewMDEFDetector returns an MDEF detector.
func NewMDEFDetector(cfg Config, prm MDEFParams, seed int64) (*MDEFDetector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prm.Validate(); err != nil {
		return nil, err
	}
	return &MDEFDetector{
		est: core.NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), stats.NewRand(seed)),
		prm: prm,
	}, nil
}

// Observe feeds one reading and reports whether it is an MDEF outlier
// with respect to the current window estimate.
func (d *MDEFDetector) Observe(p Point) bool {
	d.est.Observe(p)
	m := d.est.Model()
	if m == nil || !d.est.Warmed() {
		return false
	}
	d.cache = mdef.RefreshCachedCounter(d.cache, m, d.prm.AlphaR)
	return d.eval.IsOutlier(d.cache, p, d.prm)
}

// Evaluate returns the full MDEF statistics for p against the current
// model (zero Result before warm-up).
func (d *MDEFDetector) Evaluate(p Point) mdef.Result {
	m := d.est.Model()
	if m == nil {
		return mdef.Result{}
	}
	return d.eval.Evaluate(m, p, d.prm)
}

// MemoryBytes reports the estimation-state footprint.
func (d *MDEFDetector) MemoryBytes() int { return d.est.MemoryBytes() }

// NewMixtureSource returns the paper's synthetic Gaussian-mixture stream
// in dim dimensions.
func NewMixtureSource(dim int, seed int64) Source {
	return stream.NewMixture(stream.DefaultMixture(), dim, seed)
}

// NewEngineSource returns the simulated engine-monitoring stream (1-d),
// calibrated to the moments the paper reports.
func NewEngineSource(seed int64) Source {
	return stream.NewEngine(stream.DefaultEngine(), seed)
}

// NewEnviroSource returns the simulated 2-d environmental
// (pressure, dew-point) stream.
func NewEnviroSource(seed int64) Source {
	return stream.NewEnviro(stream.DefaultEnviro(), seed)
}

// NewShiftingSource returns a 1-d Gaussian stream whose mean alternates
// among means every period arrivals — the distribution-change workload of
// the paper's estimation-accuracy experiment.
func NewShiftingSource(means []float64, sigma float64, period int, seed int64) Source {
	return stream.NewShifting(means, sigma, period, seed)
}
