// Package serve is the repo's serving subsystem: a sharded ingest/query
// engine that runs the paper's online detectors behind an HTTP/JSON API.
// Sensor ids hash to shards; each shard goroutine owns one Pipeline — a
// pluggable estimate-path backend (internal/detector: the paper's §5
// chain sample + kernel model by default, with Q_n/coreset/EWMA
// alternatives selectable per sensor) and an optional drift monitor —
// behind a single-writer mailbox with bounded queues and
// reject-with-retry-after admission control. The exact ground truth
// (BruteForce-D/M, the paper's §10 baselines) is an offline yardstick and
// is not kept here. Periodic checkpoints snapshot every shard
// deterministically so a crashed server resumes seed-exact, and
// internal/twin (behind cmd/oddload and the integration tests) verifies
// that served verdicts are bit-identical to an in-process twin of the
// same pipelines.
package serve

import (
	"encoding/json"
	"fmt"

	"odds/internal/core"
	"odds/internal/detector"
	"odds/internal/distance"
	"odds/internal/mdef"
)

// DetectorKind selects the outlier criterion a pipeline serves.
type DetectorKind string

const (
	// DetectDistance flags distance-based outliers (D3's criterion,
	// Section 7): fewer than Threshold window points within L∞ Radius.
	DetectDistance DetectorKind = "distance"
	// DetectMDEF flags MDEF-based outliers (MGDD's criterion, Section 8).
	DetectMDEF DetectorKind = "mdef"
)

// BackendRule routes sensors whose id starts with Prefix to a detector
// backend. The longest matching prefix wins; sensors matching no rule
// use the pipeline's default backend.
type BackendRule struct {
	Prefix  string        `json:"prefix"`
	Backend detector.Kind `json:"backend"`
}

// PipelineConfig configures one shard's detector stack. The same value
// (with per-shard seeds derived by stats.ChildSeed) configures the
// server's shards and the in-process twin (internal/twin); verdict
// agreement between the two is the serving layer's acceptance oracle.
//
// The config has one serialisation: this JSON, which /stats embeds
// (StatsResponse) and the twin reads back, and from which every config
// fingerprint is built (see fingerprint). Validate refuses any value
// JSON cannot carry.
type PipelineConfig struct {
	Kind     DetectorKind    `json:"detector"`
	Seed     int64           `json:"seed"`
	Core     core.Config     `json:"core"`
	Distance distance.Params `json:"distance"`
	MDEF     mdef.Params     `json:"mdef"`
	// Drift optionally arms the concept-drift monitor (see DriftConfig);
	// the zero value leaves the pipeline drift-free. Drift adaptation is
	// defined against the kernel model, so it requires the default
	// backend to be kernelchain.
	Drift DriftConfig `json:"drift"`
	// Backend selects the default estimate-path engine; empty means
	// kernelchain (the paper's stack — the pre-backend behavior,
	// bit-for-bit).
	Backend detector.Kind `json:"backend,omitempty"`
	// Backends parameterizes the non-default engines (kernelchain reads
	// the Core/Distance/MDEF fields above). Only armed engines'
	// parameters matter; WithDefaults-filled forms are what fingerprints
	// cover.
	Backends detector.Params `json:"backends"`
	// Selector routes sensors to backends by id prefix (longest match
	// wins). Every kind named here is armed eagerly at pipeline
	// construction so snapshots and twins agree on the full state.
	Selector []BackendRule `json:"selector,omitempty"`
}

// DefaultBackend returns the effective default backend kind.
func (c PipelineConfig) DefaultBackend() detector.Kind {
	if c.Backend == "" {
		return detector.KindKernelChain
	}
	return c.Backend
}

// detectorConfig maps the pipeline configuration onto one backend's
// detector.Config. DetectorKind values are detector.Criterion values.
func (c PipelineConfig) detectorConfig(kind detector.Kind) detector.Config {
	return detector.Config{
		Kind:      kind,
		Dim:       c.Core.Dim,
		Seed:      c.Seed,
		Criterion: detector.Criterion(c.Kind),
		Core:      c.Core,
		Distance:  c.Distance,
		MDEF:      c.MDEF,
		Qn:        c.Backends.Qn,
		Coreset:   c.Backends.Coreset,
		EWMA:      c.Backends.EWMA,
	}
}

// armedKinds lists the backends this configuration instantiates, default
// first, the rest in detector.AllKinds order — the canonical order
// snapshots and stats enumerate backends in.
func (c PipelineConfig) armedKinds() []detector.Kind {
	def := c.DefaultBackend()
	armed := []detector.Kind{def}
	want := map[detector.Kind]bool{}
	for _, r := range c.Selector {
		if r.Backend != def {
			want[r.Backend] = true
		}
	}
	for _, k := range detector.AllKinds() {
		if want[k] {
			armed = append(armed, k)
		}
	}
	return armed
}

// Validate reports unusable configurations.
func (c PipelineConfig) Validate() error {
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if err := c.Drift.validate(c.Core.Dim); err != nil {
		return err
	}
	switch c.Kind {
	case DetectDistance:
		if err := c.Distance.Validate(); err != nil {
			return err
		}
	case DetectMDEF:
		if err := c.MDEF.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("serve: unknown detector kind %q", c.Kind)
	}
	if !detector.ValidKind(c.DefaultBackend()) {
		return fmt.Errorf("serve: unknown backend %q", c.Backend)
	}
	if c.Drift.Enabled && c.DefaultBackend() != detector.KindKernelChain {
		return fmt.Errorf("serve: drift monitoring requires the kernelchain default backend, not %q", c.DefaultBackend())
	}
	seen := map[string]bool{}
	for _, r := range c.Selector {
		if r.Prefix == "" {
			return fmt.Errorf("serve: selector rule with empty prefix")
		}
		if seen[r.Prefix] {
			return fmt.Errorf("serve: duplicate selector prefix %q", r.Prefix)
		}
		seen[r.Prefix] = true
		if !detector.ValidKind(r.Backend) {
			return fmt.Errorf("serve: selector prefix %q names unknown backend %q", r.Prefix, r.Backend)
		}
	}
	// Every armed engine's own parameters must be usable (this is what
	// catches, e.g., a coreset backend under the mdef criterion).
	for _, k := range c.armedKinds() {
		if err := c.detectorConfig(k).Validate(); err != nil {
			return err
		}
	}
	// The per-type checks above leave sections nothing reads unchecked (the
	// other criterion's parameters, unarmed engines, a disarmed monitor);
	// /stats serves them and fingerprints cover some, so they must encode.
	if _, err := json.Marshal(c); err != nil {
		return fmt.Errorf("serve: config does not encode: %w", err)
	}
	return nil
}

// Verdict is one reading's detection outcome.
type Verdict struct {
	// Seq is the 1-based per-shard arrival sequence number; internal/twin
	// aligns served verdicts with its own by it, and a resumed load run
	// rewinds to it after a server restart.
	Seq uint64
	// Outlier is the estimate-path verdict from the reading's backend,
	// gated on warm-up exactly like the library detectors.
	Outlier bool
	// Exact is always false: the serving tier keeps no exact ground truth.
	// The frozen benchmark harness still names the field; ROADMAP item
	// 1-A(c) stops that, and then the field goes.
	Exact bool
	// Warmed reports whether the reading's backend is past warm-up.
	Warmed bool
}

// selRule is one compiled selector entry.
type selRule struct {
	prefix string
	det    detector.Detector
}

// Pipeline is one shard's detector stack. It is single-goroutine-owned:
// the shard goroutine (or the one driving a twin.Twin) is the only caller.
type Pipeline struct {
	cfg PipelineConfig

	// dets holds the armed backends in armedKinds order; dets[0] is the
	// default. kc is dets[0] when the default is the paper stack — the
	// drift arm and /query/prob's kernelchain fast path hang off it.
	dets []detector.Detector
	kc   *detector.KernelChain
	sel  []selRule

	// drift is the armed concept-drift monitor, nil when disabled.
	drift *driftState

	seq uint64
}

// NewPipeline returns an empty pipeline. Every backend named by the
// config (default + selector) is constructed eagerly, so two pipelines
// built from one config always hold identical state regardless of which
// sensors have shown up — the twin and snapshot contracts depend on it.
func NewPipeline(cfg PipelineConfig) (*Pipeline, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Pipeline{cfg: cfg}
	byKind := map[detector.Kind]detector.Detector{}
	for _, k := range cfg.armedKinds() {
		d, err := detector.New(cfg.detectorConfig(k))
		if err != nil {
			return nil, err
		}
		p.dets = append(p.dets, d)
		byKind[k] = d
	}
	p.kc, _ = p.dets[0].(*detector.KernelChain)
	for _, r := range cfg.Selector {
		p.sel = append(p.sel, selRule{prefix: r.Prefix, det: byKind[r.Backend]})
	}
	if cfg.Drift.Enabled {
		d, err := newDriftState(cfg.Drift, cfg.Core.Dim)
		if err != nil {
			return nil, err
		}
		p.drift = d
	}
	return p, nil
}

// Seq returns the number of readings ingested.
func (p *Pipeline) Seq() uint64 { return p.seq }

// ModelBuildStats reports how many kernel-model refreshes rebuilt from
// scratch versus patching in place (zeros when the default backend has
// no kernel model).
func (p *Pipeline) ModelBuildStats() (fullBuilds, patchBuilds uint64) {
	if p.kc == nil {
		return 0, 0
	}
	return p.kc.ModelBuildStats()
}

// BackendStats reports every armed backend's counters, default first.
func (p *Pipeline) BackendStats() []detector.Stats {
	out := make([]detector.Stats, len(p.dets))
	for i, d := range p.dets {
		out[i] = d.Stats()
	}
	return out
}

// route returns the backend serving sensor: the longest selector prefix
// that matches, else the default. The empty sensor id always routes to
// the default (no rule has an empty prefix).
func (p *Pipeline) route(sensor string) detector.Detector {
	det := p.dets[0]
	best := -1
	for i := range p.sel {
		r := &p.sel[i]
		if len(r.prefix) > best && len(sensor) >= len(r.prefix) && sensor[:len(r.prefix)] == r.prefix {
			det = r.det
			best = len(r.prefix)
		}
	}
	return det
}

// Ingest folds one reading into the default backend and returns its
// verdict. Shorthand for IngestSensor with no sensor id; the two are
// identical when no selector rules are set.
func (p *Pipeline) Ingest(v []float64) Verdict { return p.IngestSensor("", v) }

// IngestSensor folds one reading into the sensor's backend, judges it, and
// runs the drift step. This is the shard hot path: at steady state
// (between amortized model rebuilds) it performs zero allocations for
// every backend under the distance criterion and for the paper stack under
// MDEF. Every backend copies what it keeps of v; the caller keeps
// ownership.
func (p *Pipeline) IngestSensor(sensor string, v []float64) Verdict {
	p.checkDim(v)
	p.seq++
	dv := p.route(sensor).Ingest(v)
	if p.drift != nil {
		p.driftStep(v)
	}
	return Verdict{Seq: p.seq, Outlier: dv.Outlier, Warmed: dv.Warmed}
}

// Apply is IngestSensor's state transition without its judgement: the
// sensor's backend Fold and the drift step, but not the backend's estimate
// query. It is what a replica runs: nobody is served a follower's
// verdicts, yet its state has to stay the primary's bit for bit, so that
// a promoted follower serves the primary's verdicts from its first
// reading. outlier is the estimate bit the primary's IngestSensor returned
// for this reading; Fold counts it as the backend's verdict, so the
// backend's flagged counter and the shard's outlier count stay the
// primary's too.
func (p *Pipeline) Apply(sensor string, v []float64, outlier bool) detector.Verdict {
	p.checkDim(v)
	p.seq++
	dv := p.route(sensor).Fold(v, outlier)
	if p.drift != nil {
		p.driftStep(v)
	}
	return dv
}

// checkDim panics on a reading of the wrong dimension; the server
// validates dimensions before a reading reaches a shard.
func (p *Pipeline) checkDim(v []float64) {
	if len(v) != p.cfg.Core.Dim {
		panic(fmt.Sprintf("serve: reading dim %d, pipeline dim %d", len(v), p.cfg.Core.Dim))
	}
}

// QueryOutlierSensor answers a read-only outlier check of v against the
// sensor's backend, without ingesting it.
func (p *Pipeline) QueryOutlierSensor(sensor string, v []float64) Verdict {
	p.checkDim(v)
	dv := p.route(sensor).QueryOutlier(v)
	return Verdict{Seq: p.seq, Outlier: dv.Outlier, Warmed: dv.Warmed}
}

// QueryProbSensor returns the estimated probability mass within L∞
// radius r of v under the sensor's backend (0 when that backend has no
// probability model — EWMA and Q_n serve verdicts, not densities).
func (p *Pipeline) QueryProbSensor(sensor string, v []float64, r float64) float64 {
	p.checkDim(v)
	pe, ok := p.route(sensor).(detector.ProbEstimator)
	if !ok {
		return 0
	}
	return pe.QueryProb(v, r)
}
