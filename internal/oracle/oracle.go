// Package oracle is the shared scaffolding of the differential oracle
// suite: property tests that drive the incremental ground-truth structures
// (distance.DynIndex, mdef.DynTruth) through randomized sliding-window
// histories and check every verdict against the from-scratch executable
// specifications (distance.CountNaive, mdef's naive BruteForce-M scan).
//
// The package provides three things the per-package oracle tests share:
// seeded random configurations (dimension, window size, loss rate),
// a clustered stream generator that actually produces both inliers and
// outliers, and a greedy shrinker that reduces a failing window snapshot
// to a minimal reproducer printed as a Go literal.
//
// A product that feeds a sum is written float64(x*y), a rounding the Go
// spec forbids the compiler to fuse into a multiply-add, so every
// architecture computes what amd64 does, bit for bit (DESIGN.md §7).
package oracle

import (
	"fmt"
	"math/rand"
	"strings"

	"odds/internal/stats"
	"odds/internal/window"
)

// Config is one randomized differential-test scenario. The incremental
// structure under test is fed Steps arrivals into a window of capacity
// WindowCap; each arrival is independently dropped with probability
// LossRate (the paper's lossy sensor links), which is what produces the
// irregular add/remove interleavings that break naive incremental
// bookkeeping.
type Config struct {
	Dim       int
	WindowCap int
	Steps     int
	LossRate  float64
	Seed      int64
}

// Name renders the config as a subtest name that doubles as a reproducer
// key: re-running `-run Test.../d2_w120_l0.20_s42` replays this scenario.
func (c Config) Name() string {
	return fmt.Sprintf("d%d_w%d_l%0.2f_s%d", c.Dim, c.WindowCap, c.LossRate, c.Seed)
}

// Configs derives n randomized configurations from a master seed:
// dimensions 1–3, window capacities 30–180, 2–4 window turnovers, loss
// rates 0–0.3. Every config embeds its own sub-seed, so one failing entry
// replays independently of the rest.
func Configs(n int, seed int64) []Config {
	r := stats.NewRand(seed)
	out := make([]Config, n)
	for i := range out {
		cap := 30 + r.Intn(151)
		out[i] = Config{
			Dim:       1 + r.Intn(3),
			WindowCap: cap,
			Steps:     cap * (2 + r.Intn(3)),
			LossRate:  float64(r.Intn(4)) / 10,
			Seed:      r.Int63(),
		}
	}
	return out
}

// Stream is the arrival generator for one config: a mixture of tight
// Gaussian clusters (inliers) and uniform noise (outlier candidates),
// clamped to the unit cube the detectors operate in.
type Stream struct {
	r       *rand.Rand
	dim     int
	centers []window.Point
}

// NewStream returns a generator for c using c's embedded seed.
func (c Config) NewStream() *Stream {
	r := stats.NewRand(c.Seed)
	s := &Stream{r: r, dim: c.Dim}
	for i := 0; i < 2+r.Intn(2); i++ {
		center := make(window.Point, c.Dim)
		for j := range center {
			center[j] = 0.2 + float64(0.6*r.Float64())
		}
		s.centers = append(s.centers, center)
	}
	return s
}

// Lost reports whether the next arrival is dropped by the lossy link.
func (s *Stream) Lost(rate float64) bool { return s.r.Float64() < rate }

// Next returns the next arrival: 90% clustered, 10% uniform noise.
func (s *Stream) Next() window.Point {
	p := make(window.Point, s.dim)
	if s.r.Float64() < 0.9 {
		c := s.centers[s.r.Intn(len(s.centers))]
		for i := range p {
			p[i] = clamp01(c[i] + float64(0.03*s.r.NormFloat64()))
		}
		return p
	}
	for i := range p {
		p[i] = s.r.Float64()
	}
	return p
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Shrink reduces a failing window snapshot to a locally minimal one:
// fails(sub) must report whether the disagreement persists on the subset
// sub. The shrinker first tries dropping halves, then single points, until
// no single removal keeps the failure alive. fails must be side-effect
// free (it is called many times, rebuilding the structure under test each
// call — both ground-truth structures depend only on the point multiset,
// not on arrival order, which is what makes snapshot shrinking sound).
func Shrink(pts []window.Point, fails func([]window.Point) bool) []window.Point {
	return ShrinkSlice(pts, fails)
}

// ShrinkSlice is the generic ddmin core behind Shrink: it greedily
// removes chunks (halves, then smaller, down to single elements) of any
// failing input slice while fails keeps reporting the failure, returning
// a locally minimal failing subset. The chaos suite uses it to shrink
// fault schedules (slices of crash and link events) the same way the
// differential suite shrinks window snapshots.
func ShrinkSlice[T any](items []T, fails func([]T) bool) []T {
	cur := append([]T(nil), items...)
	chunk := len(cur) / 2
	for chunk >= 1 {
		reduced := false
		for start := 0; start+chunk <= len(cur); start += chunk {
			cand := make([]T, 0, len(cur)-chunk)
			cand = append(cand, cur[:start]...)
			cand = append(cand, cur[start+chunk:]...)
			if len(cand) > 0 && fails(cand) {
				cur = cand
				reduced = true
				start -= chunk // re-test the same offset against the shrunk set
			}
		}
		if !reduced {
			chunk /= 2
		}
	}
	return cur
}

// Format renders points as a copy-pasteable Go literal for failure
// reports.
func Format(pts []window.Point) string {
	var sb strings.Builder
	sb.WriteString("[]window.Point{\n")
	for _, p := range pts {
		sb.WriteString("\t{")
		for i, x := range p {
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%v", x)
		}
		sb.WriteString("},\n")
	}
	sb.WriteString("}")
	return sb.String()
}
