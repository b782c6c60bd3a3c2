package odds

import (
	"odds/internal/mdef"
	"odds/internal/stats"
	"odds/internal/stream"
)

// Normalizer maps raw sensor readings into the [0,1]^d domain the
// framework requires, given per-dimension physical ranges, and back.
type Normalizer = stream.Normalizer

// NewNormalizer builds a Normalizer from per-dimension [lo, hi] physical
// ranges.
func NewNormalizer(lo, hi []float64) *Normalizer { return stream.NewNormalizer(lo, hi) }

// NewReplaySource wraps recorded readings as a Source — the adapter for
// feeding real traces into the detectors. With loop set, the trace wraps
// around.
func NewReplaySource(pts []Point, loop bool) Source {
	return stream.NewReplay(pts, loop)
}

// MDEFMultiParams configures the multi-granularity LOCI scan: the MDEF
// criterion tested over a geometric ladder of sampling radii, flagging a
// point that deviates at any scale. This is the full scan the paper's
// fixed-radius MGDD simplifies; it detects deviations that only show at a
// particular granularity (a part overheated relative to its assembly but
// not to the whole machine).
type MDEFMultiParams = mdef.MultiParams

// EvaluateMulti runs the multi-granularity scan of p against the given
// kernel model.
func EvaluateMulti(m *KernelModel, p Point, prm MDEFMultiParams) (outlier bool, bestR float64) {
	res := mdef.EvaluateMulti(m, p, prm)
	return res.Outlier, res.BestR
}

// Summary holds the descriptive statistics the paper tabulates per
// dataset (Figure 5).
type Summary = stats.Summary

// Describe computes min/max/mean/median/stddev/skew of a value series.
func Describe(xs []float64) (Summary, error) { return stats.Describe(xs) }

// TakeSource drains n readings from a source.
func TakeSource(src Source, n int) []Point { return stream.Take(src, n) }

// NewSourceByName constructs one of the named seeded stream generators
// ("mixture", "shifting", "engine", "enviro") — the registry the serving
// load generator selects streams from. Fixed-dimensionality sources
// reject a mismatched dim.
func NewSourceByName(name string, dim int, seed int64) (Source, error) {
	return stream.ByName(name, dim, seed)
}

// SourceNames lists the names NewSourceByName accepts.
func SourceNames() []string { return stream.Names() }

// CalibrateKSigma searches for the MDEF significance factor at which the
// exact criterion yields between targetLo and targetHi outliers on a
// reference window of the caller's workload. The paper fixes k_σ = 3;
// on workloads whose neighborhoods are strongly heterogeneous at the
// chosen radius, that setting can flag nothing (see EXPERIMENTS.md), so
// deployments calibrate once against a representative window and use the
// result for both detection and ground truth.
func CalibrateKSigma(reference []Point, prm MDEFParams, targetLo, targetHi int) float64 {
	return mdef.CalibrateKSigma(reference, prm, targetLo, targetHi)
}
