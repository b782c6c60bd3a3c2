// Package serve is the repo's serving subsystem: a sharded ingest/query
// engine that runs the paper's online detectors behind an HTTP/JSON API.
// Sensor ids hash to shards; each shard goroutine owns one Pipeline — a
// pluggable estimate-path backend (internal/detector: the paper's §5
// chain sample + kernel model by default, with Q_n/coreset/EWMA
// alternatives selectable per sensor) alongside the exact incremental
// ground truth (distance.DynIndex / mdef.DynTruth) over the true sliding
// window — behind a single-writer mailbox with bounded queues and
// reject-with-retry-after admission control. Periodic checkpoints
// snapshot every shard deterministically so a crashed server resumes
// seed-exact, and internal/twin (behind cmd/oddload and the integration
// tests) verifies that served verdicts are bit-identical to an in-process
// twin of the same pipelines.
package serve

import (
	"fmt"

	"odds/internal/core"
	"odds/internal/detector"
	"odds/internal/distance"
	"odds/internal/mdef"
	"odds/internal/window"
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
type PipelineConfig struct {
	Core     core.Config
	Kind     DetectorKind
	Distance distance.Params
	MDEF     mdef.Params
	Seed     int64
	// Drift optionally arms the concept-drift monitor (see DriftConfig);
	// the zero value leaves the pipeline drift-free. Drift adaptation is
	// defined against the kernel model, so it requires the default
	// backend to be kernelchain.
	Drift DriftConfig
	// Backend selects the default estimate-path engine; empty means
	// kernelchain (the paper's stack — the pre-backend behavior,
	// bit-for-bit).
	Backend detector.Kind
	// Backends parameterizes the non-default engines (kernelchain reads
	// the Core/Distance/MDEF fields above). Only armed engines'
	// parameters matter; WithDefaults-filled forms are what fingerprints
	// cover.
	Backends detector.Params
	// Selector routes sensors to backends by id prefix (longest match
	// wins). Every kind named here is armed eagerly at pipeline
	// construction so snapshots and twins agree on the full state.
	Selector []BackendRule
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
	// Exact is the ground-truth verdict from the incremental exact
	// structures over the true window, ungated and backend-independent.
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

	// True sliding window: a ring of WindowCap dim-strided slots in flat.
	// head is the slot the next reading takes and the count slots behind
	// it hold the window, oldest first. The exact index keeps its own
	// copies, so nothing refers to a slot across ingests.
	flat  []float64
	head  int
	count int

	dyn   *distance.DynIndex // exact truth, distance kind
	truth *mdef.DynTruth     // exact truth, mdef kind

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
	p.initWindow()
	return p, nil
}

func (p *Pipeline) initWindow() {
	w, dim := p.cfg.Core.WindowCap, p.cfg.Core.Dim
	p.flat = make([]float64, w*dim)
	switch p.cfg.Kind {
	case DetectDistance:
		p.dyn = distance.NewDynIndex(p.cfg.Distance.Radius, dim)
	case DetectMDEF:
		p.truth = mdef.NewDynTruth(p.cfg.MDEF, dim)
	}
}

// Config returns the pipeline's configuration.
func (p *Pipeline) Config() PipelineConfig { return p.cfg }

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

// Ingest folds one reading into the window, the default backend, and the
// exact index, and returns its verdict. Shorthand for IngestSensor with
// no sensor id; the two are identical when no selector rules are set.
func (p *Pipeline) Ingest(v []float64) Verdict { return p.IngestSensor("", v) }

// IngestSensor folds one reading into the window, the sensor's backend,
// and the exact index, and returns its verdict. This is the shard hot
// path: at steady state (between amortized model rebuilds) it performs
// zero allocations for every backend under the distance criterion and
// for the paper stack under MDEF. v is copied; the caller keeps ownership.
func (p *Pipeline) IngestSensor(sensor string, v []float64) Verdict {
	slot := p.slide(v)
	dv := p.route(sensor).Ingest(slot)
	ver := Verdict{Seq: p.seq, Outlier: dv.Outlier, Warmed: dv.Warmed}
	// The exact count comes before the drift step: a fire's shrinkWindow
	// would otherwise take points out from under this reading's answer.
	ver.Exact = p.exactOutlier(slot)
	if p.drift != nil {
		p.driftStep(slot)
	}
	return ver
}

// Apply is IngestSensor's state transition without its verdict: the window
// slide, the exact index update, the sensor's backend and the drift step,
// but not the exact count — a pure read of the index that only fills
// Verdict.Exact. It is what a replica runs: nobody is served a follower's
// verdicts, yet its state (the exact index included, which must answer from
// the first reading after a promotion) has to stay the primary's bit for
// bit. The backend's estimate is returned because it is state too — it
// moves the backend's flagged counter and the shard's outlier count.
func (p *Pipeline) Apply(sensor string, v []float64) detector.Verdict {
	slot := p.slide(v)
	dv := p.route(sensor).Ingest(slot)
	if p.drift != nil {
		p.driftStep(slot)
	}
	return dv
}

// slide advances the true window by one reading and returns the ring slot
// now holding a copy of v: a full window evicts its oldest reading, which
// sits in the slot the new one takes, and the exact index follows.
func (p *Pipeline) slide(v []float64) window.Point {
	if len(v) != p.cfg.Core.Dim {
		panic(fmt.Sprintf("serve: reading dim %d, pipeline dim %d", len(v), p.cfg.Core.Dim))
	}
	p.seq++
	slot := p.slot(p.head)
	if p.count == p.cfg.Core.WindowCap {
		p.exactRemove(slot)
	} else {
		p.count++
	}
	copy(slot, v)
	p.exactAdd(slot)
	p.head = p.next(p.head)
	return slot
}

func (p *Pipeline) exactAdd(pt window.Point) {
	if p.dyn != nil {
		p.dyn.Add(pt)
	} else {
		p.truth.Add(pt)
	}
}

// exactRemove evicts a window point from the exact index. The point is in
// the window, so the index must hold it; a miss means the two have
// diverged and every later Exact verdict would be wrong.
func (p *Pipeline) exactRemove(pt window.Point) {
	var ok bool
	if p.dyn != nil {
		ok = p.dyn.Remove(pt)
	} else {
		ok = p.truth.Remove(pt)
	}
	if !ok {
		panic("serve: exact index out of sync")
	}
}

func (p *Pipeline) exactOutlier(pt window.Point) bool {
	if p.dyn != nil {
		return p.dyn.IsOutlier(pt, p.cfg.Distance)
	}
	return p.truth.IsOutlier(pt)
}

// QueryOutlier answers a read-only outlier check of v against the
// default backend; see QueryOutlierSensor.
func (p *Pipeline) QueryOutlier(v []float64) Verdict { return p.QueryOutlierSensor("", v) }

// QueryOutlierSensor answers a read-only outlier check of v against the
// sensor's backend and the exact window, without ingesting it. The exact
// answer counts v against the window as-is (v itself is not a member).
func (p *Pipeline) QueryOutlierSensor(sensor string, v []float64) Verdict {
	if len(v) != p.cfg.Core.Dim {
		panic(fmt.Sprintf("serve: reading dim %d, pipeline dim %d", len(v), p.cfg.Core.Dim))
	}
	dv := p.route(sensor).QueryOutlier(v)
	ver := Verdict{Seq: p.seq, Outlier: dv.Outlier, Warmed: dv.Warmed}
	ver.Exact = p.exactOutlier(window.Point(v))
	return ver
}

// QueryProb returns the estimated probability mass within L∞ radius r of
// v under the default backend's model; see QueryProbSensor.
func (p *Pipeline) QueryProb(v []float64, r float64) float64 {
	return p.QueryProbSensor("", v, r)
}

// QueryProbSensor returns the estimated probability mass within L∞
// radius r of v under the sensor's backend (0 when that backend has no
// probability model — EWMA and Q_n serve verdicts, not densities).
func (p *Pipeline) QueryProbSensor(sensor string, v []float64, r float64) float64 {
	if len(v) != p.cfg.Core.Dim {
		panic(fmt.Sprintf("serve: reading dim %d, pipeline dim %d", len(v), p.cfg.Core.Dim))
	}
	pe, ok := p.route(sensor).(detector.ProbEstimator)
	if !ok {
		return 0
	}
	return pe.QueryProb(v, r)
}

// slot returns ring slot i of the window backing.
func (p *Pipeline) slot(i int) window.Point {
	dim := p.cfg.Core.Dim
	return p.flat[i*dim : (i+1)*dim]
}

// next returns the ring slot after i.
func (p *Pipeline) next(i int) int {
	if i++; i == p.cfg.Core.WindowCap {
		return 0
	}
	return i
}

// oldest returns the ring slot of the window's oldest point.
func (p *Pipeline) oldest() int {
	i := p.head - p.count
	if i < 0 {
		i += p.cfg.Core.WindowCap
	}
	return i
}
