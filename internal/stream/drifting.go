package stream

import (
	"fmt"
	"math"

	"odds/internal/stats"
	"odds/internal/window"
)

// DriftKind selects the non-stationarity a Drifting source injects.
type DriftKind uint8

const (
	// DriftNone is a stationary control: the base Gaussian throughout.
	// figdrift uses it to measure the false-alarm rate.
	DriftNone DriftKind = iota
	// DriftAbrupt shifts the mean by MeanShift at index DriftAt.
	DriftAbrupt
	// DriftRamp shifts the mean linearly from the base to base+MeanShift
	// over [DriftAt, DriftAt+DriftLen).
	DriftRamp
	// DriftVariance multiplies the standard deviation by SigmaScale at
	// index DriftAt.
	DriftVariance
	// DriftSeasonal superimposes a sinusoid of amplitude Amp and period
	// Period on the mean from DriftAt onward.
	DriftSeasonal
)

// String names the kind for subtests and experiment rows.
func (k DriftKind) String() string {
	switch k {
	case DriftNone:
		return "none"
	case DriftAbrupt:
		return "abrupt"
	case DriftRamp:
		return "ramp"
	case DriftVariance:
		return "variance"
	case DriftSeasonal:
		return "seasonal"
	default:
		return fmt.Sprintf("DriftKind(%d)", uint8(k))
	}
}

// DriftingConfig parameterizes a Drifting source. The inlier process is a
// Gaussian N(BaseMean, BaseSigma²) per coordinate whose parameters evolve
// per the kind; a NoiseFrac fraction of readings are outliers drawn
// uniformly from [NoiseLo, NoiseHi] in every coordinate (the same
// faulty-sensor model as Mixture, and the ground-truth labels the
// figdrift precision metrics score against).
type DriftingConfig struct {
	Kind       DriftKind
	BaseMean   float64
	BaseSigma  float64
	DriftAt    int     // arrival index where the drift begins
	DriftLen   int     // ramp length (DriftRamp)
	MeanShift  float64 // total mean displacement (DriftAbrupt, DriftRamp)
	SigmaScale float64 // sigma multiplier (DriftVariance)
	Period     int     // sinusoid period (DriftSeasonal)
	Amp        float64 // sinusoid amplitude (DriftSeasonal)
	NoiseFrac  float64 // outlier fraction
	NoiseLo    float64 // outlier interval lower bound
	NoiseHi    float64 // outlier interval upper bound
}

// DefaultDrifting returns the figdrift base configuration: the paper's
// synthetic inlier band around 0.35 with 1% uniform outliers in
// [0.7, 0.95], drifting at index driftAt per kind.
func DefaultDrifting(kind DriftKind, driftAt int) DriftingConfig {
	return DriftingConfig{
		Kind:       kind,
		BaseMean:   0.35,
		BaseSigma:  0.04,
		DriftAt:    driftAt,
		DriftLen:   2000,
		MeanShift:  0.2,
		SigmaScale: 2.5,
		Period:     1500,
		Amp:        0.12,
		NoiseFrac:  0.01,
		NoiseLo:    0.7,
		NoiseHi:    0.95,
	}
}

// Drifting is a seeded drifting-workload source. Every reading is a pure
// function of (seed, index): the generator draws from a per-index child
// rng (stats.Child, the same SplitMix64 scheme internal/fault uses for
// worker-count independence), so streams are bit-identical no matter how
// many workers consume them, and a generator can resume mid-stream with
// SeekTo after a checkpoint — both properties pinned by
// TestDriftingSeedExactReplay.
type Drifting struct {
	cfg  DriftingConfig
	dim  int
	seed int64
	n    int
}

// NewDrifting returns a d-dimensional drifting source. It panics on
// invalid configuration, which indicates a programming error in the
// experiment setup.
func NewDrifting(cfg DriftingConfig, dim int, seed int64) *Drifting {
	if dim <= 0 {
		panic(fmt.Sprintf("stream: dim %d must be positive", dim))
	}
	if cfg.BaseSigma <= 0 {
		panic(fmt.Sprintf("stream: base sigma %v must be positive", cfg.BaseSigma))
	}
	if cfg.NoiseFrac < 0 || cfg.NoiseFrac > 1 {
		panic(fmt.Sprintf("stream: noise fraction %v outside [0,1]", cfg.NoiseFrac))
	}
	if cfg.NoiseHi < cfg.NoiseLo {
		panic("stream: noise interval inverted")
	}
	switch cfg.Kind {
	case DriftRamp:
		if cfg.DriftLen <= 0 {
			panic("stream: ramp drift needs DriftLen > 0")
		}
	case DriftVariance:
		if cfg.SigmaScale <= 0 {
			panic("stream: variance drift needs SigmaScale > 0")
		}
	case DriftSeasonal:
		if cfg.Period <= 0 {
			panic("stream: seasonal drift needs Period > 0")
		}
	case DriftNone, DriftAbrupt:
	default:
		panic(fmt.Sprintf("stream: unknown drift kind %d", cfg.Kind))
	}
	return &Drifting{cfg: cfg, dim: dim, seed: seed}
}

// Dim returns the stream dimensionality.
func (d *Drifting) Dim() int { return d.dim }

// SeekTo positions the source so the next reading is index i. Because
// readings are pure functions of (seed, index), a seeked source is
// bit-identical to one that generated its way there.
func (d *Drifting) SeekTo(i int) {
	if i < 0 {
		panic(fmt.Sprintf("stream: seek to negative index %d", i))
	}
	d.n = i
}

// MeanAt returns the inlier mean at index i.
func (d *Drifting) MeanAt(i int) float64 {
	c := &d.cfg
	switch c.Kind {
	case DriftAbrupt:
		if i >= c.DriftAt {
			return c.BaseMean + c.MeanShift
		}
	case DriftRamp:
		if i >= c.DriftAt+c.DriftLen {
			return c.BaseMean + c.MeanShift
		}
		if i >= c.DriftAt {
			return c.BaseMean + c.MeanShift*float64(i-c.DriftAt)/float64(c.DriftLen)
		}
	case DriftSeasonal:
		if i >= c.DriftAt {
			return c.BaseMean + float64(c.Amp*math.Sin(2*math.Pi*float64(i-c.DriftAt)/float64(c.Period)))
		}
	}
	return c.BaseMean
}

// SigmaAt returns the inlier standard deviation at index i.
func (d *Drifting) SigmaAt(i int) float64 {
	if d.cfg.Kind == DriftVariance && i >= d.cfg.DriftAt {
		return d.cfg.BaseSigma * d.cfg.SigmaScale
	}
	return d.cfg.BaseSigma
}

// At returns reading i and its ground-truth outlier label without moving
// the cursor: the pure function underneath Next.
func (d *Drifting) At(i int) (window.Point, bool) {
	r := stats.Child(d.seed, i)
	p := make(window.Point, d.dim)
	if r.Float64() < d.cfg.NoiseFrac {
		for k := range p {
			p[k] = d.cfg.NoiseLo + float64(r.Float64()*(d.cfg.NoiseHi-d.cfg.NoiseLo))
		}
		return p, true
	}
	mu, sigma := d.MeanAt(i), d.SigmaAt(i)
	for k := range p {
		p[k] = stats.Clamp(mu+float64(sigma*r.NormFloat64()), 0, 1)
	}
	return p, false
}

// NextLabeled returns the next reading with its ground-truth label.
func (d *Drifting) NextLabeled() (window.Point, bool) {
	p, outlier := d.At(d.n)
	d.n++
	return p, outlier
}

// Next draws the next reading (Source interface).
func (d *Drifting) Next() window.Point {
	p, _ := d.NextLabeled()
	return p
}
