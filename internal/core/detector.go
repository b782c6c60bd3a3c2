package core

import (
	"math/rand"
	"slices"

	"odds/internal/kernel"
	"odds/internal/sample"
	"odds/internal/varest"
	"odds/internal/window"
)

// Estimator is the per-node estimation state every sensor maintains
// (Section 5): a chain sample of the window, a sliding-window variance
// sketch, and a kernel density model derived from them. The model is
// cached and rebuilt lazily when the sample has changed, at most once per
// RebuildEvery arrivals; during warm-up the cached model's |W| scaling is
// rescaled (O(1)) to track the effective window count between rebuilds.
//
// Concurrency: an Estimator is single-goroutine-owned — Observe and
// Model mutate it. The *kernel.Estimator a Model call returns is
// immutable and may be queried from other goroutines.
type Estimator struct {
	cfg    Config
	smp    *sample.Chain
	vars   *varest.Multi
	wcount float64 // |W| used to scale range queries (union size at parents)

	model      *kernel.Estimator
	qr         *kernel.Querier // cached handle over model, rebound on rebuild
	modelWc    float64         // EffectiveWindowCount the cached model scales by
	dirty      bool
	sinceBuild int
	arrivals   uint64

	// Incremental model maintenance (EnableIncrementalModel): instead of
	// rebuilding the kernel model from scratch on every refresh, the
	// detector tracks which chain-sample slots changed since the last
	// build and patches only those centers in the maintained model.
	incremental bool
	pendingList []int32 // slots changed since the model last absorbed them
	pendingSet  []bool  // dedup membership for pendingList
	fullBuilds  uint64
	patchBuilds uint64

	// Rebuild-path scratch, reused across refreshes (satellite of the
	// incremental work: the old path allocated a fresh scaled-sigma slice
	// per rebuild whenever BandwidthScale != 1).
	sigmaBuf []float64
	bwBuf    []float64
	ptsBuf   []window.Point
	slotBuf  []int
}

// NewEstimator returns estimation state for a node whose range queries
// should be scaled to windowCount values (a leaf passes its own |W|; a
// parent passes the union size l·|W| per Theorem 3). sampleWindow is the
// count-based window the chain sample tracks — the node's own arrival
// window (leaves) or the expected receipts per union-window span
// (parents).
func NewEstimator(cfg Config, sampleWindow int, windowCount float64, rng *rand.Rand) *Estimator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if sampleWindow < cfg.SampleSize {
		sampleWindow = cfg.SampleSize
	}
	return &Estimator{
		cfg:    cfg,
		smp:    sample.NewChain(cfg.SampleSize, sampleWindow, cfg.Dim, rng),
		vars:   varest.NewMulti(cfg.Dim, sampleWindow, cfg.Eps),
		wcount: windowCount,
	}
}

// Observe folds one value into the sample and the variance sketch,
// reporting whether the value entered the sample (the propagation trigger
// of Figure 4).
func (e *Estimator) Observe(p window.Point) bool {
	e.arrivals++
	e.sinceBuild++
	e.vars.Push(p)
	included := e.smp.Push(p)
	if included {
		e.dirty = true
	}
	if e.incremental {
		e.pendingList = e.smp.DrainChangedSlots(e.pendingList, e.pendingSet)
	}
	return included
}

// Arrivals returns the number of observed values.
func (e *Estimator) Arrivals() uint64 { return e.arrivals }

// WindowCount returns the |W| scaling used for range queries.
func (e *Estimator) WindowCount() float64 { return e.wcount }

// StdDevs exposes the sketch's current per-dimension deviation estimates.
func (e *Estimator) StdDevs() []float64 { return e.vars.StdDevs() }

// scaledSigmas returns the per-dimension bandwidth inputs — the variance
// sketch's standard deviations, scaled by BandwidthScale when configured —
// written into a reused scratch slice. The result is only valid until the
// next call; kernel constructors do not retain it.
func (e *Estimator) scaledSigmas() []float64 {
	e.sigmaBuf = e.vars.StdDevsInto(e.sigmaBuf)
	if s := e.cfg.BandwidthScale; s > 0 && s != 1 {
		for i := range e.sigmaBuf {
			e.sigmaBuf[i] *= s
		}
	}
	return e.sigmaBuf
}

// clearPending empties the changed-slot queue after a build absorbed it.
func (e *Estimator) clearPending() {
	for _, s := range e.pendingList {
		e.pendingSet[s] = false
	}
	e.pendingList = e.pendingList[:0]
}

// Model returns the kernel density model for the current window, rebuilding
// it if the sample changed and the rebuild interval elapsed. It returns nil
// until at least one value has been observed.
//
// With EnableIncrementalModel the refresh patches the maintained model in
// place — one ordered remove/insert per changed sample slot — instead of
// rebuilding from scratch, with identical query results; the model pointer
// then stays stable across refreshes and only Gen advances.
func (e *Estimator) Model() *kernel.Estimator {
	if e.model == nil || (e.dirty && e.sinceBuild >= e.cfg.RebuildEvery) {
		// Scale queries by the filled fraction of the sample window so
		// counts are not inflated while windows fill. For a leaf the
		// sample window is |W| itself; for a parent it is the expected
		// receipts per union-window span, so the fraction tracks how much
		// of the union window the receipts represent.
		wc := e.EffectiveWindowCount()
		if e.incremental {
			if !e.refreshMaintained(wc) {
				return nil
			}
		} else {
			pts := e.smp.Points()
			if len(pts) == 0 {
				return nil
			}
			m, err := kernel.FromSample(pts, e.scaledSigmas(), wc)
			if err != nil {
				// The only reachable error is an empty sample, handled above.
				panic(err)
			}
			e.model = m
			e.fullBuilds++
		}
		e.modelWc = wc
		e.dirty = false
		e.sinceBuild = 0
	} else if wc := e.EffectiveWindowCount(); wc != e.modelWc {
		// The sample hasn't changed but the effective |W| has — during
		// warm-up every arrival grows the filled fraction, and a cached
		// model built a few arrivals ago would keep scaling queries by the
		// stale, smaller count (undercounting neighbors and over-flagging
		// outliers). Rescaling is O(1); a maintained model rescales in
		// place (keeping the cached Querier bound), an immutable one
		// shares centers and bandwidths with its replacement.
		if e.model.IsMaintained() {
			e.model.SetWindowCount(wc)
		} else {
			e.model = e.model.WithWindowCount(wc)
		}
		e.modelWc = wc
	}
	return e.model
}

// refreshMaintained brings the maintained model up to date with the chain
// sample: a patch cycle over the pending slots when a maintained model
// exists, a full maintained build otherwise. It reports false when the
// sample is empty (no model can exist; pending changes are kept so a later
// refresh still sees them).
func (e *Estimator) refreshMaintained(wc float64) bool {
	if e.model != nil && e.model.IsMaintained() {
		if e.smp.Occupied() == 0 {
			return false
		}
		e.model.BeginMaintain()
		slices.Sort(e.pendingList)
		for _, s := range e.pendingList {
			e.model.SetSlot(int(s), e.smp.SampleAt(int(s)))
		}
		e.clearPending()
		e.bwBuf = kernel.BandwidthsInto(e.bwBuf, e.scaledSigmas(), e.model.SampleSize())
		if err := e.model.FinishMaintain(e.bwBuf, wc); err != nil {
			// Unreachable: Occupied() > 0 guarantees live centers.
			panic(err)
		}
		e.patchBuilds++
		return true
	}
	// First build (or the restored model predates maintenance): build a
	// maintained model from the full sample, keyed by slot index so later
	// patches address centers by the slot that changed.
	e.ptsBuf, e.slotBuf = e.ptsBuf[:0], e.slotBuf[:0]
	for s := 0; s < e.smp.Size(); s++ {
		if p := e.smp.SampleAt(s); p != nil {
			e.ptsBuf = append(e.ptsBuf, p)
			e.slotBuf = append(e.slotBuf, s)
		}
	}
	if len(e.ptsBuf) == 0 {
		return false
	}
	e.bwBuf = kernel.BandwidthsInto(e.bwBuf, e.scaledSigmas(), len(e.ptsBuf))
	m, err := kernel.NewMaintained(e.ptsBuf, e.slotBuf, e.smp.Size(), e.bwBuf, wc)
	if err != nil {
		// The only reachable error is an empty sample, handled above.
		panic(err)
	}
	e.model = m
	e.clearPending()
	e.fullBuilds++
	return true
}

// ForceRefresh schedules an immediate model refresh: the next Model call
// rebuilds (or patches) regardless of the rebuild cadence, re-deriving
// the bandwidths from the variance sketch's *current* sigmas. This is
// the drift monitor's bandwidth re-estimation action — after a variance
// shift the cached model may be up to RebuildEvery arrivals stale, and
// under drift those arrivals are exactly the ones that matter.
func (e *Estimator) ForceRefresh() {
	e.dirty = true
	e.sinceBuild = e.cfg.RebuildEvery
}

// Querier returns an allocation-free query handle bound to the current
// model, rebinding the cached handle whenever Model rebuilds or rescales.
// Like the Estimator itself the handle is single-goroutine-owned; it
// returns nil until the first value has been observed.
func (e *Estimator) Querier() *kernel.Querier {
	if e.Model() == nil {
		return nil
	}
	return e.CachedQuerier()
}

// CachedQuerier returns the query handle over the model exactly as the last
// Model call left it: no refresh, rebuild or rescale, nil before the first
// model. It is the read path's handle — a query between two arrivals must
// leave the estimator where an unqueried twin (a replica, which never sees
// reads) would be, and Model can move it: after ForceRefresh it patches
// under the current sigmas rather than the next arrival's, and before
// warm-up it builds a model the verdict path would not build yet.
func (e *Estimator) CachedQuerier() *kernel.Querier {
	m := e.model
	if m == nil {
		return nil
	}
	if e.qr == nil {
		e.qr = m.NewQuerier()
	} else if e.qr.Model() != m {
		e.qr.Reset(m)
	}
	return e.qr
}

// EnableSampleRecycling switches the chain sample to pooled point storage
// (sample.Chain.EnableRecycling), making the steady-state Observe path
// allocation-free. Safe only when sample points never outlive the next
// Observe: Model deep-copies centers (kernel.New owns its storage), so a
// pipeline that only calls Observe/Model/Querier qualifies; deployments
// that ship sample points in delayed messages (MGDD refresh) do not.
// Call before the first Observe or immediately after UnmarshalEstimator.
func (e *Estimator) EnableSampleRecycling() { e.smp.EnableRecycling() }

// EnableIncrementalModel switches Model to in-place maintenance of the
// kernel model: the chain sample reports which slots changed, and each
// refresh patches exactly those centers (tombstone the departed value,
// ordered-insert the replacement) instead of rebuilding from scratch —
// O(changed·log|R|) amortized instead of O(|R|·(d+log|R|)) per refresh,
// with bit-identical query results. The model pointer stays stable across
// patches, so cached Querier handles keep their binding; consumers that
// memoize per-model results must watch kernel.Estimator.Gen instead of the
// pointer. Call before the first Observe or immediately after
// UnmarshalEstimator (before RestoreModelSnapshot, whose maintained model
// then keeps patching). Idempotent.
func (e *Estimator) EnableIncrementalModel() {
	if e.incremental {
		return
	}
	e.incremental = true
	e.smp.EnableChangeTracking()
	if e.pendingSet == nil {
		e.pendingSet = make([]bool, e.smp.Size())
		e.pendingList = make([]int32, 0, e.smp.Size())
	}
}

// ModelBuildStats reports how many Model refreshes rebuilt the kernel
// model from scratch versus patching it in place — the incremental
// scheme's effectiveness gauge (a healthy steady state is one full build
// and all subsequent refreshes patches).
func (e *Estimator) ModelBuildStats() (fullBuilds, patchBuilds uint64) {
	return e.fullBuilds, e.patchBuilds
}

// ModelSnapshot captures the cached-model state Model's lazy-rebuild
// bookkeeping evolves between rebuilds. Serialization via
// MarshalBinary/UnmarshalEstimator deliberately drops the cached model (a
// restored estimator rebuilds on the next Model call), but a rebuild at
// restore time uses the *current* variance sketch sigmas, whereas the
// uninterrupted original may be serving a model built several arrivals
// ago under older sigmas. Checkpoint/restore paths that need verdicts to
// be bit-identical across the restore boundary capture this snapshot
// alongside the estimator blob and reinstate it with
// RestoreModelSnapshot. The returned model is immutable and safe to
// marshal; it is nil when no model has been built yet.
func (e *Estimator) ModelSnapshot() (model *kernel.Estimator, modelWc float64, dirty bool, sinceBuild int) {
	return e.model, e.modelWc, e.dirty, e.sinceBuild
}

// RestoreModelSnapshot reinstates cached-model state captured by
// ModelSnapshot on the estimator the snapshot was taken from (after an
// UnmarshalEstimator round trip). A nil model leaves the restored
// default — rebuild on next Model call — but still restores the rebuild
// cadence counters.
func (e *Estimator) RestoreModelSnapshot(model *kernel.Estimator, modelWc float64, dirty bool, sinceBuild int) {
	e.model = model
	e.modelWc = modelWc
	e.dirty = dirty
	e.sinceBuild = sinceBuild
	e.qr = nil
}

// warmupFraction is the share of the sample window that must have been
// observed before a node starts flagging outliers: with only a handful of
// arrivals every neighbor-count estimate is below any threshold and every
// value would be reported. Half a window keeps estimates stable without
// delaying detection unduly.
const warmupFraction = 0.5

// Warmed reports whether enough of the window has been observed for
// outlier decisions to be meaningful.
func (e *Estimator) Warmed() bool {
	return float64(e.arrivals) >= warmupFraction*float64(e.smp.WindowCap())
}

// SamplePoints returns the chain sample's current points (shared, do not
// mutate) — the raw material for estimator variants beyond kernels, such
// as the online sampled histogram.
func (e *Estimator) SamplePoints() []window.Point { return e.smp.Points() }

// EffectiveWindowCount returns the |W| scaling adjusted for warm-up: the
// configured window count times the filled fraction of the sample window,
// exactly as the kernel model scales its range queries.
func (e *Estimator) EffectiveWindowCount() float64 {
	wc := e.wcount
	if frac := float64(e.arrivals) / float64(e.smp.WindowCap()); frac < 1 {
		wc *= frac
		if wc < 1 {
			wc = 1
		}
	}
	return wc
}

// MemoryBytes reports the node's estimation-state footprint under the
// paper's 16-bit accounting: chain sample plus variance sketch (Theorem 1).
func (e *Estimator) MemoryBytes() int {
	return e.smp.MemoryBytes() + e.vars.MemoryBytes()
}

// SampleStoredPoints exposes the chain sample's current storage for the
// memory experiments.
func (e *Estimator) SampleStoredPoints() int { return e.smp.StoredPoints() }

// VarianceMemoryNumbers exposes the sketch's stored scalars.
func (e *Estimator) VarianceMemoryNumbers() int { return e.vars.MemoryNumbers() }

// VarianceBoundNumbers exposes the sketch's theoretical bound in scalars.
func (e *Estimator) VarianceBoundNumbers() int { return e.vars.BoundNumbers() }
