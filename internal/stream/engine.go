package stream

import (
	"fmt"
	"math"
	"math/rand"

	"odds/internal/stats"
	"odds/internal/window"
)

// EngineConfig parameterizes the simulated engine-monitoring dataset. The
// paper's engine dataset is 15 sensors reporting every 5 minutes from June
// to December 2002 (50,000 values/sensor), normalized to [0,1]; Figure 5
// gives its moments: min .020, max .427, mean .410, median .419, stddev
// .053, skew −6.844 — i.e. a smooth, tightly-concentrated operating level
// with rare deep negative excursions — and the text notes a major failure
// between October 28th and November 1st where the systems "reported
// deviating values".
type EngineConfig struct {
	Base     float64 // normal operating level (normalized)
	BaseJit  float64 // standard deviation of the smooth operating noise
	AR       float64 // AR(1) smoothness coefficient of the operating noise
	DipProb  float64 // probability of an isolated deep excursion
	DipLo    float64 // excursion range lower bound
	DipHi    float64 // excursion range upper bound
	Min, Max float64 // hard clamp (the normalized physical range)

	// BurstStart/BurstEnd delimit the simulated failure period (arrival
	// indices); within it excursions occur with BurstDipProb.
	BurstStart, BurstEnd int
	BurstDipProb         float64
}

// DefaultEngine returns a configuration calibrated so a 50,000-value
// stream reproduces the Figure 5 engine moments. The failure burst covers
// the same fraction of the stream as Oct 28–Nov 1 does of Jun 1–Dec 1
// (indices ≈ 40,700–41,800 of 50,000).
func DefaultEngine() EngineConfig {
	return EngineConfig{
		Base:         0.418,
		BaseJit:      0.006,
		AR:           0.9,
		DipProb:      0.013,
		DipLo:        0.02,
		DipHi:        0.07,
		Min:          0.02,
		Max:          0.427,
		BurstStart:   40700,
		BurstEnd:     41800,
		BurstDipProb: 0.28,
	}
}

// Engine generates one simulated engine sensor's stream. Distinct sensors
// (the paper has 15) should use distinct seeds; PhaseShift staggers their
// burst windows slightly so the failure is visible network-wide but not
// identical at each node.
type Engine struct {
	cfg   EngineConfig
	rng   *rand.Rand
	n     int
	noise float64 // AR(1) state
}

// NewEngine returns an engine source. It panics on nonsensical
// configuration.
func NewEngine(cfg EngineConfig, seed int64) *Engine {
	if cfg.Base <= 0 || cfg.BaseJit < 0 || cfg.AR < 0 || cfg.AR >= 1 {
		panic(fmt.Sprintf("stream: bad engine base config %+v", cfg))
	}
	if cfg.DipProb < 0 || cfg.DipProb > 1 || cfg.BurstDipProb < 0 || cfg.BurstDipProb > 1 {
		panic("stream: engine dip probabilities outside [0,1]")
	}
	if cfg.DipHi < cfg.DipLo || cfg.Max < cfg.Min {
		panic("stream: engine ranges inverted")
	}
	return &Engine{cfg: cfg, rng: stats.NewRand(seed)}
}

// Dim returns 1.
func (e *Engine) Dim() int { return 1 }

// Next draws the next reading.
func (e *Engine) Next() window.Point {
	c := &e.cfg
	dipProb := c.DipProb
	if e.n >= c.BurstStart && e.n < c.BurstEnd {
		dipProb = c.BurstDipProb
	}
	e.n++
	if e.rng.Float64() < dipProb {
		x := c.DipLo + float64(e.rng.Float64()*(c.DipHi-c.DipLo))
		return window.Point{stats.Clamp(x, c.Min, c.Max)}
	}
	// Smooth AR(1) operating noise around the base level.
	e.noise = float64(c.AR*e.noise) + float64(e.rng.NormFloat64()*c.BaseJit)
	return window.Point{stats.Clamp(c.Base+e.noise, c.Min, c.Max)}
}

// EnviroConfig parameterizes the simulated Pacific-Northwest environmental
// dataset: 2-d (pressure, dew-point) pairs over two years (35,000 values),
// normalized. Figure 5 gives pressure ∈ [.422,.848] with mean .677,
// stddev .063, skew −.399, and dew-point ∈ [.113,.282] with mean .213,
// stddev .027, skew −.182. The generator superimposes seasonal and diurnal
// cycles on AR(1) weather noise, with occasional storm fronts supplying
// the mild negative skew and correlated (pressure↓, dew↑) excursions.
type EnviroConfig struct {
	SeasonPeriod int // arrivals per seasonal cycle
	DayPeriod    int // arrivals per diurnal cycle

	PressureMean, PressureSeasonAmp, PressureDayAmp, PressureNoise float64
	PressureMin, PressureMax                                       float64

	DewMean, DewSeasonAmp, DewDayAmp, DewNoise float64
	DewMin, DewMax                             float64

	AR        float64 // AR(1) coefficient for the weather noise
	FrontProb float64 // probability a storm front starts at any arrival
	FrontLen  int     // front duration in arrivals
	FrontDrop float64 // pressure drop depth during a front
}

// DefaultEnviro returns a configuration calibrated to the Figure 5
// environmental moments over a 35,000-value stream (two years of
// measurements ⇒ ~48/day).
func DefaultEnviro() EnviroConfig {
	return EnviroConfig{
		SeasonPeriod: 17500, // one year
		DayPeriod:    48,
		PressureMean: 0.688, PressureSeasonAmp: 0.072, PressureDayAmp: 0.015, PressureNoise: 0.026,
		PressureMin: 0.422, PressureMax: 0.848,
		DewMean: 0.215, DewSeasonAmp: 0.033, DewDayAmp: 0.007, DewNoise: 0.009,
		DewMin: 0.113, DewMax: 0.282,
		AR:        0.97,
		FrontProb: 0.0015,
		FrontLen:  96,
		FrontDrop: 0.12,
	}
}

// Enviro generates one simulated environmental station's (pressure,
// dew-point) stream.
type Enviro struct {
	cfg       EnviroConfig
	rng       *rand.Rand
	n         int
	phase     float64 // per-station phase offset
	pNoise    float64 // AR(1) state, pressure
	dNoise    float64 // AR(1) state, dew-point
	frontLeft int     // arrivals remaining in the current storm front
}

// NewEnviro returns an environmental source; stations should use distinct
// seeds, which also randomizes their cycle phase.
func NewEnviro(cfg EnviroConfig, seed int64) *Enviro {
	if cfg.SeasonPeriod <= 0 || cfg.DayPeriod <= 0 {
		panic("stream: enviro periods must be positive")
	}
	if cfg.AR < 0 || cfg.AR >= 1 {
		panic(fmt.Sprintf("stream: enviro AR %v outside [0,1)", cfg.AR))
	}
	if cfg.FrontProb < 0 || cfg.FrontProb > 1 || cfg.FrontLen < 0 {
		panic("stream: bad enviro front config")
	}
	rng := stats.NewRand(seed)
	// Float64 is inlined with its own product, and x*2 compiles to x+x.
	return &Enviro{cfg: cfg, rng: rng, phase: float64(rng.Float64()) * 2 * math.Pi}
}

// Dim returns 2.
func (e *Enviro) Dim() int { return 2 }

// Next draws the next (pressure, dew-point) reading.
func (e *Enviro) Next() window.Point {
	c := &e.cfg
	t := float64(e.n)
	e.n++
	season := math.Sin(2*math.Pi*t/float64(c.SeasonPeriod) + e.phase)
	day := math.Sin(2 * math.Pi * t / float64(c.DayPeriod))

	e.pNoise = float64(c.AR*e.pNoise) + float64(e.rng.NormFloat64()*c.PressureNoise*(1-c.AR)*5)
	e.dNoise = float64(c.AR*e.dNoise) + float64(e.rng.NormFloat64()*c.DewNoise*(1-c.AR)*5)

	if e.frontLeft == 0 && e.rng.Float64() < c.FrontProb {
		e.frontLeft = c.FrontLen
	}
	front := 0.0
	if e.frontLeft > 0 {
		e.frontLeft--
		front = 1
	}

	p := c.PressureMean + float64(c.PressureSeasonAmp*season) + float64(c.PressureDayAmp*day) +
		e.pNoise - float64(front*c.FrontDrop)
	// Fronts pull both attributes down-range, giving the mild negative skew.
	d := c.DewMean + float64(c.DewSeasonAmp*season) + float64(c.DewDayAmp*day) +
		e.dNoise - float64(front*c.FrontDrop*0.2)

	return window.Point{
		stats.Clamp(p, c.PressureMin, c.PressureMax),
		stats.Clamp(d, c.DewMin, c.DewMax),
	}
}
