// Package core implements the paper's two distributed deviation-detection
// algorithms on top of the estimation substrates: D3 (Distributed
// Deviation Detection, Section 7, Figure 4) for distance-based outliers,
// and MGDD (Multi Granular Deviation Detection, Section 8, Figure 4) for
// MDEF-based outliers, plus the centralized baseline the evaluation
// compares message costs against (Section 10.3).
//
// The node behaviors plug into the deterministic tagsim simulator through
// the tagsim.Node interface.
package core

import (
	"fmt"
	"math"
)

// Message kinds exchanged by the algorithms.
const (
	// KindSample carries a sampled value from a child to its parent
	// (D3 LeafProcess line 15 / MGDD line 14).
	KindSample = "sample"
	// KindOutlier carries a locally-flagged value up the hierarchy
	// (D3 lines 19, 27).
	KindOutlier = "outlier"
	// KindGlobal carries a global-model update (one new sample value and
	// the current sigma estimate) from the top leader toward the leaves
	// (MGDD lines 22-23). One message per link traversed.
	KindGlobal = "global"
	// KindReading is a raw reading relayed hop-by-hop by the centralized
	// baseline.
	KindReading = "reading"
	// KindRefresh is a catch-up request from a recovered or stale leaf,
	// relayed to the top leader, which answers the origin (encoded in
	// Aux) directly with a batch of KindGlobal updates. Only the
	// self-healing deployment layer emits it.
	KindRefresh = "refresh"
)

// Config carries the sliding-window estimation parameters shared by every
// node (Section 10.2 defaults: |W| = 10,000, |R| = 0.05|W|, f = 0.5,
// eps = 0.2).
type Config struct {
	WindowCap      int     // |W|, per-sensor sliding window
	SampleSize     int     // |R|, kernel sample size
	Eps            float64 // variance sketch error target
	SampleFraction float64 // f, child→parent propagation probability
	Dim            int     // data dimensionality
	// RebuildEvery rebuilds the cached kernel model at most once per this
	// many arrivals (the sample mutates roughly every |W|/|R| arrivals, so
	// 1 keeps the model maximally fresh at modest cost).
	RebuildEvery int
	// BandwidthScale multiplies the Scott's-rule bandwidths; 0 means 1
	// (the paper's formula). The bandwidth ablation bench sweeps it.
	BandwidthScale float64
}

// DefaultConfig returns the paper's default parameters for the given
// dimensionality.
func DefaultConfig(dim int) Config {
	return Config{
		WindowCap:      10000,
		SampleSize:     500,
		Eps:            0.2,
		SampleFraction: 0.5,
		Dim:            dim,
		RebuildEvery:   1,
	}
}

// Validate returns an error for unusable configurations.
func (c Config) Validate() error {
	if c.WindowCap <= 0 {
		return fmt.Errorf("core: window %d must be positive", c.WindowCap)
	}
	if c.SampleSize <= 0 || c.SampleSize > c.WindowCap {
		return fmt.Errorf("core: sample size %d must be in (0, %d]", c.SampleSize, c.WindowCap)
	}
	if !(c.Eps > 0 && c.Eps <= 1) {
		return fmt.Errorf("core: eps %v must be in (0,1]", c.Eps)
	}
	if c.SampleFraction < 0 || c.SampleFraction > 1 || math.IsNaN(c.SampleFraction) {
		return fmt.Errorf("core: sample fraction %v must be in [0,1]", c.SampleFraction)
	}
	if c.Dim <= 0 {
		return fmt.Errorf("core: dim %d must be positive", c.Dim)
	}
	if c.RebuildEvery <= 0 {
		return fmt.Errorf("core: rebuild interval %d must be positive", c.RebuildEvery)
	}
	return nil
}
