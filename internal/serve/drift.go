package serve

import (
	"fmt"
	"math"

	"odds/internal/divergence"
	"odds/internal/drift"
	"odds/internal/kernel"
)

// DriftConfig arms a pipeline's concept-drift monitor: a per-dimension
// two-window detector bank (KS, Page–Hinkley, Mann–Kendall; see
// internal/drift) over subsampled readings, plus an optional model-level
// JS-divergence signal between the live kernel model and a frozen
// reference snapshot. Detections trigger adaptations on the pipeline:
// a forced bandwidth re-estimation (core.Estimator.ForceRefresh) and,
// when ShrinkFrac is set, a shrink of the true window so the exact
// detectors also forget the stale regime.
//
// Everything here is a deterministic function of the ingested values, so
// drift-armed pipelines keep the serving layer's twin and replication
// contracts: the oddload twin, a replica chain, and a snapshot-restored
// pipeline all fire and adapt at exactly the same sequence numbers.
type DriftConfig struct {
	// Enabled arms the monitor. The zero value (disabled) leaves the
	// pipeline byte-identical to a pre-drift build.
	Enabled bool `json:"enabled"`
	// SampleEvery feeds every SampleEvery-th reading to the detector
	// bank. Subsampling keeps the bank's cost well under the ingest
	// budget; detection delay grows by the same factor. Default 32.
	SampleEvery int `json:"sample_every"`
	// Detector configures the per-dimension bank; the zero value means
	// drift.Default().
	Detector drift.Config `json:"detector"`
	// JSEvery, when positive, evaluates the model-level JS signal every
	// JSEvery-th observed (i.e. subsampled) reading: the current kernel
	// model against the frozen reference snapshot, on a unit-domain grid.
	// Zero disables the model signal.
	JSEvery int `json:"js_every,omitempty"`
	// JSThreshold is the JS-divergence trip level. Required when JSEvery
	// is set.
	JSThreshold float64 `json:"js_threshold,omitempty"`
	// JSGridPoints is the per-dimension grid resolution of the JS
	// evaluation (total cells = JSGridPoints^dim). Default 16.
	JSGridPoints int `json:"js_grid_points,omitempty"`
	// ShrinkFrac, when in (0,1), shrinks the true window to the newest
	// ShrinkFrac fraction on every detection, so the exact detectors
	// adapt alongside the estimate path. Zero disables window resizing.
	ShrinkFrac float64 `json:"shrink_frac,omitempty"`
}

// DefaultDriftConfig returns an armed monitor with the serving defaults:
// bank on every 32nd reading, model JS signal every 256 observations at
// a 0.15 trip level, no window shrink.
//
// The sampling stride is the overhead/delay dial: the full bank costs
// ~0.6µs per observation against a ~1.2µs steady-state ingest, so a
// stride of 32 keeps the drift tax under 2% (drift.observe_ns against
// pipeline.ingest_ns_mean in `go run ./bench -trace 1`) at the price of
// needing 32× more readings to fill the detector windows. The JS trip level sits well above the stationary
// noise floor of a chain-sampled kernel model (sampling and bandwidth
// wobble put JS against a frozen reference around 0.03–0.07) and well
// below a regime change (an abrupt mean shift of a few sigmas pushes JS
// toward its ln 2 ceiling).
func DefaultDriftConfig() DriftConfig {
	return DriftConfig{
		Enabled:      true,
		SampleEvery:  32,
		Detector:     drift.Default(),
		JSEvery:      256,
		JSThreshold:  0.15,
		JSGridPoints: 16,
	}
}

// withDefaults fills the zero-value holes of an enabled config; callers
// (NewPipeline, fingerprint) use the filled form so the twin contract
// never depends on who filled the defaults.
func (c DriftConfig) withDefaults() DriftConfig {
	if !c.Enabled {
		return c
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 32
	}
	if c.Detector == (drift.Config{}) {
		c.Detector = drift.Default()
	}
	if c.JSEvery > 0 && c.JSGridPoints == 0 {
		c.JSGridPoints = 16
	}
	return c
}

// validate rejects unusable armed configs; the zero value (disabled)
// always validates.
func (c DriftConfig) validate(dim int) error {
	if !c.Enabled {
		return nil
	}
	c = c.withDefaults()
	if c.SampleEvery < 1 {
		return fmt.Errorf("serve: drift SampleEvery %d must be >= 1", c.SampleEvery)
	}
	if err := c.Detector.Validate(); err != nil {
		return err
	}
	if c.JSEvery < 0 {
		return fmt.Errorf("serve: drift JSEvery %d must be >= 0", c.JSEvery)
	}
	if c.JSEvery > 0 {
		if !(c.JSThreshold > 0) || math.IsInf(c.JSThreshold, 1) {
			return fmt.Errorf("serve: drift JSThreshold %v must be positive and finite when JSEvery is set", c.JSThreshold)
		}
		if c.JSGridPoints < 2 || c.JSGridPoints > 64 {
			return fmt.Errorf("serve: drift JSGridPoints %d outside [2,64]", c.JSGridPoints)
		}
		cells := 1.0
		for i := 0; i < dim; i++ {
			cells *= float64(c.JSGridPoints)
		}
		if cells > 1<<20 {
			return fmt.Errorf("serve: drift JS grid %d^%d too large", c.JSGridPoints, dim)
		}
	}
	if c.ShrinkFrac != 0 && !(c.ShrinkFrac > 0 && c.ShrinkFrac < 1) {
		return fmt.Errorf("serve: drift ShrinkFrac %v outside (0,1)", c.ShrinkFrac)
	}
	return nil
}

// DriftStats is a drift-armed pipeline's counter block, reported per
// shard in /stats and mirrored into /metrics. All counters are
// cumulative; a snapshot restore resumes them exactly.
type DriftStats struct {
	Enabled bool `json:"enabled"`
	// Detector is the bank's counter block (observations, per-test
	// fires, skipped non-finite inputs).
	Detector drift.Stats `json:"detector"`
	// JSChecks and JSTrips count model-signal evaluations and trips;
	// LastJS is the most recent evaluated divergence.
	JSChecks uint64  `json:"js_checks"`
	JSTrips  uint64  `json:"js_trips"`
	LastJS   float64 `json:"last_js"`
	// Refreshes counts forced bandwidth re-estimations; Shrinks counts
	// window-resize adaptations; LastFireSeq is the pipeline sequence
	// number of the most recent adaptation (0 if none).
	Refreshes   uint64 `json:"refreshes"`
	Shrinks     uint64 `json:"shrinks"`
	LastFireSeq uint64 `json:"last_fire_seq"`
}

// driftState is the pipeline-side monitor: the bank, the JS evaluator
// with its frozen reference model, and the action counters. Owned by the
// shard goroutine like everything else in the pipeline.
type driftState struct {
	cfg DriftConfig // filled (withDefaults)
	mon *drift.Monitor
	js  *divergence.GridEval
	ref *kernel.Estimator // frozen JS reference; nil until first capture

	jsChecks uint64
	jsTrips  uint64
	lastJS   float64
	refresh  uint64
	shrinks  uint64
	lastSeq  uint64
}

func newDriftState(cfg DriftConfig, dim int) (*driftState, error) {
	cfg = cfg.withDefaults()
	mon, err := drift.NewMonitor(dim, cfg.Detector)
	if err != nil {
		return nil, err
	}
	d := &driftState{cfg: cfg, mon: mon}
	if cfg.JSEvery > 0 {
		d.js = divergence.NewGridEval(dim, cfg.JSGridPoints)
	}
	return d, nil
}

// DriftStats returns the pipeline's drift counters; the zero value when
// the monitor is not armed.
func (p *Pipeline) DriftStats() DriftStats {
	if p.drift == nil {
		return DriftStats{}
	}
	d := p.drift
	return DriftStats{
		Enabled:     true,
		Detector:    d.mon.Stats(),
		JSChecks:    d.jsChecks,
		JSTrips:     d.jsTrips,
		LastJS:      d.lastJS,
		Refreshes:   d.refresh,
		Shrinks:     d.shrinks,
		LastFireSeq: d.lastSeq,
	}
}

// DriftEnabled reports whether the pipeline runs an armed drift monitor.
func (p *Pipeline) DriftEnabled() bool { return p.drift != nil }

// driftStep runs after a reading's verdict is computed: subsample into
// the bank, evaluate the model signal at its cadence, and apply the
// adaptation actions on a fire. The reading already ingested keeps its
// verdict; adaptations affect the next reading onward. On the stationary
// (never-firing) path this is a modulo, a bank observation every
// SampleEvery-th reading, and nothing else — no allocations, no
// estimator interaction — so an armed monitor leaves stationary verdict
// streams bit-identical to an unarmed pipeline.
func (p *Pipeline) driftStep(v []float64) {
	d := p.drift
	if p.seq%uint64(d.cfg.SampleEvery) != 0 {
		return
	}
	fired := d.mon.Observe(v).Any()
	if d.js != nil {
		obs := d.mon.Stats().Observed
		if obs%uint64(d.cfg.JSEvery) == 0 {
			fired = p.jsCheck() || fired
		}
	}
	if fired {
		p.adapt()
	}
}

// jsCheck evaluates the model-level signal: JS divergence between the
// live kernel model and the frozen reference. The first check with a
// live model captures the reference instead of comparing. Reports
// whether the signal tripped; a trip re-freezes the reference on the
// current model so one regime change cannot trip forever.
func (p *Pipeline) jsCheck() bool {
	d := p.drift
	// Warm gate: before warm-up the verdict path never calls Model(), so
	// a lazy build here would materialize a model earlier (under earlier
	// sigmas) than in a drift-free twin and break the stationary
	// bit-identity contract. After warm-up every verdict calls Model()
	// for the current reading, making this call side-effect-free.
	if !p.kc.Warmed() {
		return false
	}
	m := p.kc.Model()
	if m == nil {
		return false
	}
	if d.ref == nil {
		d.ref = m.Clone()
		return false
	}
	js := d.js.JS(m, d.ref)
	d.jsChecks++
	d.lastJS = js
	if js <= d.cfg.JSThreshold {
		return false
	}
	d.jsTrips++
	d.ref = m.Clone()
	// The sample-space regime moved: re-anchor the bank too, so the KS
	// reference window does not keep testing against the old regime.
	d.mon.Rebase()
	return true
}

// adapt applies the detection actions: forced bandwidth re-estimation,
// and (when configured) shrinking the true window to its newest
// fraction.
func (p *Pipeline) adapt() {
	d := p.drift
	d.lastSeq = p.seq
	p.kc.ForceRefresh()
	d.refresh++
	if d.cfg.ShrinkFrac > 0 {
		keep := int(float64(p.count) * d.cfg.ShrinkFrac)
		if min := minShrinkKeep; keep < min {
			keep = min
		}
		if keep < p.count {
			p.shrinkWindow(keep)
			d.shrinks++
		}
	}
}

// minShrinkKeep bounds how far a shrink can cut the exact window: the
// distance/MDEF criteria need a handful of neighbors to be meaningful.
const minShrinkKeep = 16

// shrinkWindow drops the oldest count-keep points from the true window:
// each is removed from the exact index and the logical count decreases
// (the ring start is derived from head and count, so no data moves).
func (p *Pipeline) shrinkWindow(keep int) {
	for i := p.oldest(); p.count > keep; i = p.next(i) {
		p.exactRemove(p.slot(i))
		p.count--
	}
}
