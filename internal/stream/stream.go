// Package stream provides the data sources the paper's evaluation uses
// (Section 10): the synthetic Gaussian-mixture streams, the shifting
// Gaussian used to measure estimation latency (Figure 6), and generators
// calibrated to the two real deployments the authors report statistics
// for in Figure 5 — an engine monitored by 15 sensors and 2-d
// environmental (pressure, dew-point) measurements — which we do not have
// and therefore simulate (see DESIGN.md, substitutions).
//
// All sources are deterministic given their seed, produce values
// normalized to [0,1]^d, and implement the Source interface consumed by
// the detectors and the network simulator.
//
// A product that feeds a sum is written float64(x*y), a rounding the Go
// spec forbids the compiler to fuse into a multiply-add, so every
// architecture computes what amd64 does, bit for bit (DESIGN.md §7).
package stream

import (
	"fmt"
	"math/rand"

	"odds/internal/stats"
	"odds/internal/window"
)

// Source is an endless stream of d-dimensional sensor readings.
type Source interface {
	// Next returns the next reading. The returned point is freshly
	// allocated and owned by the caller.
	Next() window.Point
	// Dim returns the dimensionality of the readings.
	Dim() int
}

// Take drains n readings from src into a slice.
func Take(src Source, n int) []window.Point {
	out := make([]window.Point, n)
	for i := range out {
		out[i] = src.Next()
	}
	return out
}

// Column drains n readings and projects coordinate k.
func Column(src Source, n, k int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = src.Next()[k]
	}
	return out
}

// MixtureConfig describes the paper's synthetic datasets: a mixture of
// three Gaussians with uniform noise. "The mean is selected at random from
// (0.3, 0.35, 0.45), and the standard deviation is selected as 0.03 ...
// we add 0.5% noise values, uniformly at random in the interval [0.5, 1]."
type MixtureConfig struct {
	Means     []float64 // component means
	Sigma     float64   // shared component standard deviation
	NoiseFrac float64   // fraction of noise values
	NoiseLo   float64   // noise interval lower bound
	NoiseHi   float64   // noise interval upper bound
}

// DefaultMixture returns the paper's synthetic-dataset parameters.
func DefaultMixture() MixtureConfig {
	return MixtureConfig{
		Means:     []float64{0.3, 0.35, 0.45},
		Sigma:     0.03,
		NoiseFrac: 0.005,
		NoiseLo:   0.5,
		NoiseHi:   1.0,
	}
}

// Mixture is a d-dimensional synthetic source: each coordinate is drawn
// from the Gaussian-mixture-plus-noise process independently, with noise
// arrivals shared across coordinates (a noisy reading is noisy in every
// attribute, as a faulty sensor would be).
type Mixture struct {
	cfg MixtureConfig
	dim int
	rng *rand.Rand
}

// NewMixture returns a d-dimensional mixture source. It panics on invalid
// configuration, which indicates a programming error in the experiment
// setup.
func NewMixture(cfg MixtureConfig, dim int, seed int64) *Mixture {
	if len(cfg.Means) == 0 {
		panic("stream: mixture needs at least one component")
	}
	if cfg.Sigma <= 0 {
		panic(fmt.Sprintf("stream: sigma %v must be positive", cfg.Sigma))
	}
	if cfg.NoiseFrac < 0 || cfg.NoiseFrac > 1 {
		panic(fmt.Sprintf("stream: noise fraction %v outside [0,1]", cfg.NoiseFrac))
	}
	if cfg.NoiseHi < cfg.NoiseLo {
		panic("stream: noise interval inverted")
	}
	if dim <= 0 {
		panic(fmt.Sprintf("stream: dim %d must be positive", dim))
	}
	return &Mixture{cfg: cfg, dim: dim, rng: stats.NewRand(seed)}
}

// Dim returns the stream dimensionality.
func (m *Mixture) Dim() int { return m.dim }

// Next draws the next reading.
func (m *Mixture) Next() window.Point {
	p := make(window.Point, m.dim)
	if m.rng.Float64() < m.cfg.NoiseFrac {
		for i := range p {
			p[i] = m.cfg.NoiseLo + float64(m.rng.Float64()*(m.cfg.NoiseHi-m.cfg.NoiseLo))
		}
		return p
	}
	for i := range p {
		mu := m.cfg.Means[m.rng.Intn(len(m.cfg.Means))]
		p[i] = stats.Clamp(mu+float64(m.rng.NormFloat64()*m.cfg.Sigma), 0, 1)
	}
	return p
}

// Shifting is the Figure 6 source: a 1-d Gaussian whose mean switches
// between the entries of Means every Period measurements ("vary the
// underlying distribution after every 4096 measurements, from mu=0.3,
// sigma=0.05 to mu=0.5, sigma=0.05").
type Shifting struct {
	means  []float64
	sigma  float64
	period int
	n      int
	rng    *rand.Rand
}

// NewShifting returns the shifting-Gaussian source.
func NewShifting(means []float64, sigma float64, period int, seed int64) *Shifting {
	if len(means) == 0 {
		panic("stream: shifting needs at least one mean")
	}
	if sigma <= 0 {
		panic(fmt.Sprintf("stream: sigma %v must be positive", sigma))
	}
	if period <= 0 {
		panic(fmt.Sprintf("stream: period %d must be positive", period))
	}
	return &Shifting{means: means, sigma: sigma, period: period, rng: stats.NewRand(seed)}
}

// DefaultShifting returns the exact Figure 6 configuration.
func DefaultShifting(seed int64) *Shifting {
	return NewShifting([]float64{0.3, 0.5}, 0.05, 4096, seed)
}

// Dim returns 1.
func (s *Shifting) Dim() int { return 1 }

// CurrentMean returns the mean of the phase the next reading will be drawn
// from; experiments use it as the ground-truth reference distribution.
func (s *Shifting) CurrentMean() float64 {
	return s.means[(s.n/s.period)%len(s.means)]
}

// Sigma returns the (fixed) standard deviation.
func (s *Shifting) Sigma() float64 { return s.sigma }

// Next draws the next reading.
func (s *Shifting) Next() window.Point {
	mu := s.CurrentMean()
	s.n++
	return window.Point{stats.Clamp(mu+float64(s.rng.NormFloat64()*s.sigma), 0, 1)}
}
