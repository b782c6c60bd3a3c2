package core

import (
	"math/rand"
	"slices"

	"odds/internal/divergence"
	"odds/internal/kernel"
	"odds/internal/mdef"
	"odds/internal/stream"
	"odds/internal/tagsim"
	"odds/internal/window"
)

// GlobalModel is a leaf's replica of the top leader's estimation state
// (sample Rg and deviation sigma-g, Section 8.1). The root pushes
// incremental updates — one newly-sampled value plus its current sigma —
// down the tree; replicas fold each update in by replacing a random slot,
// which keeps the replica an (approximately) uniform sample of what the
// root holds without shipping the whole sample. A GlobalModel is
// single-goroutine-owned (it owns an rng and a cached model).
type GlobalModel struct {
	slots  []window.Point
	fill   int
	sigmas []float64
	wcount float64
	rng    *rand.Rand
	stamp  int // epoch of the last folded update; -1 until the first

	// The replica's kernel model is maintained in place: each folded
	// update touches exactly one slot, so the refresh patches that one
	// center instead of rebuilding from all |Rg| of them. Query results
	// are bit-identical to a from-scratch build; consumers watch Gen for
	// staleness because the pointer no longer changes.
	model      *kernel.Estimator
	dirty      bool
	pending    []int32 // slots written since the model last absorbed them
	pendingSet []bool
	bwBuf      []float64
	slotBuf    []int
}

// NewGlobalModel returns an empty replica with the given sample capacity,
// dimensionality, and union window count (number of values the global
// window represents, i.e. leaves·|W|).
func NewGlobalModel(capacity, dim int, windowCount float64, rng *rand.Rand) *GlobalModel {
	if capacity <= 0 || dim <= 0 || windowCount <= 0 {
		panic("core: bad global model parameters")
	}
	return &GlobalModel{
		slots:      make([]window.Point, capacity),
		sigmas:     make([]float64, dim),
		wcount:     windowCount,
		rng:        rng,
		stamp:      -1,
		pending:    make([]int32, 0, capacity),
		pendingSet: make([]bool, capacity),
	}
}

// Update folds one pushed value and sigma into the replica, stamping it
// with the epoch the update was applied — the staleness clock the
// self-healing layer reads.
func (g *GlobalModel) Update(v window.Point, sigma float64, epoch int) {
	s := g.fill
	if g.fill < len(g.slots) {
		g.fill++
	} else {
		s = g.rng.Intn(len(g.slots))
	}
	// Reuse the replaced slot's storage when possible: the kernel model
	// copies coordinates into its own layout, so nothing aliases it.
	if old := g.slots[s]; len(old) == len(v) {
		copy(old, v)
	} else {
		g.slots[s] = v.Clone()
	}
	if !g.pendingSet[s] {
		g.pendingSet[s] = true
		g.pending = append(g.pending, int32(s))
	}
	for i := range g.sigmas {
		g.sigmas[i] = sigma
	}
	if epoch > g.stamp {
		g.stamp = epoch
	}
	g.dirty = true
}

// Stamp returns the epoch of the newest folded update, -1 before any.
func (g *GlobalModel) Stamp() int { return g.stamp }

// Ready reports whether the replica has enough state to answer queries.
func (g *GlobalModel) Ready() bool { return g.fill >= 2 }

// Updates returns the number of slots currently populated.
func (g *GlobalModel) Fill() int { return g.fill }

// Model returns the kernel model over the replica, refreshed lazily: a
// per-changed-slot patch of the maintained model when one exists, a full
// maintained build on first use.
func (g *GlobalModel) Model() *kernel.Estimator {
	if !g.Ready() {
		return nil
	}
	if g.model == nil || g.dirty {
		if g.model != nil {
			g.model.BeginMaintain()
			slices.Sort(g.pending)
			for _, s := range g.pending {
				g.model.SetSlot(int(s), g.slots[s])
			}
			g.clearPending()
			g.bwBuf = kernel.BandwidthsInto(g.bwBuf, g.sigmas, g.model.SampleSize())
			if err := g.model.FinishMaintain(g.bwBuf, g.wcount); err != nil {
				// Unreachable: Ready() guarantees live centers.
				panic(err)
			}
		} else {
			g.slotBuf = g.slotBuf[:0]
			for s := 0; s < g.fill; s++ {
				g.slotBuf = append(g.slotBuf, s)
			}
			g.bwBuf = kernel.BandwidthsInto(g.bwBuf, g.sigmas, g.fill)
			m, err := kernel.NewMaintained(g.slots[:g.fill], g.slotBuf, len(g.slots), g.bwBuf, g.wcount)
			if err != nil {
				panic(err)
			}
			g.model = m
			g.clearPending()
		}
		g.dirty = false
	}
	return g.model
}

// clearPending empties the changed-slot queue after a refresh absorbed it.
func (g *GlobalModel) clearPending() {
	for _, s := range g.pending {
		g.pendingSet[s] = false
	}
	g.pending = g.pending[:0]
}

// MGDDLeaf is the leaf process of the MGDD algorithm (Figure 4): it
// maintains local estimation state for sample propagation, keeps a replica
// of the global model, and flags arrivals whose MDEF relative to the
// global model is significant. Only leaves detect, because MDEF outliers
// are non-decomposable (Section 8).
type MGDDLeaf struct {
	id     tagsim.NodeID
	up     Uplink
	src    stream.Source
	est    *Estimator
	global *GlobalModel
	cache  *mdef.CachedCounter
	eval   mdef.Evaluator
	prm    mdef.Params
	f      float64
	rng    *rand.Rand

	// Flagged observes every detected outlier.
	Flagged func(v window.Point, epoch int)
	// OnArrival observes every arrival and the decision (evaluation hook).
	OnArrival func(v window.Point, epoch int, flagged bool)

	// StaleAfter, when positive, arms the self-healing layer: after an
	// epoch gap (the leaf was crashed) the leaf immediately requests a
	// model refresh from the root, and whenever its replica has not been
	// updated for more than StaleAfter epochs it requests one at most
	// every StaleAfter epochs. Zero (the default) disables healing and
	// leaves the fault-free path untouched.
	StaleAfter int

	lastEpoch  int // last epoch this leaf ticked; -1 before the first
	lastReq    int // epoch of the last refresh request; -1 before any
	repairFrom int // epoch the current staleness/outage began; -1 if healthy
	ttrs       []int
}

// NewMGDDLeaf wires an MGDD leaf sensor; totalLeaves sizes the global
// window the root's model represents.
func NewMGDDLeaf(id tagsim.NodeID, parent tagsim.NodeID, hasParent bool,
	src stream.Source, cfg Config, prm mdef.Params, totalLeaves int, rng *rand.Rand) *MGDDLeaf {
	if err := prm.Validate(); err != nil {
		panic(err)
	}
	if src.Dim() != cfg.Dim {
		panic("core: source dimensionality does not match config")
	}
	if totalLeaves <= 0 {
		panic("core: totalLeaves must be positive")
	}
	return &MGDDLeaf{
		id:         id,
		up:         newUplink(parent, hasParent),
		src:        src,
		est:        NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), rng),
		global:     NewGlobalModel(cfg.SampleSize, cfg.Dim, float64(totalLeaves*cfg.WindowCap), rng),
		prm:        prm,
		f:          cfg.SampleFraction,
		rng:        rng,
		lastEpoch:  -1,
		lastReq:    -1,
		repairFrom: -1,
	}
}

// ID returns the node id.
func (n *MGDDLeaf) ID() tagsim.NodeID { return n.id }

// Estimator exposes the local estimation state.
func (n *MGDDLeaf) Estimator() *Estimator { return n.est }

// Global exposes the global-model replica.
func (n *MGDDLeaf) Global() *GlobalModel { return n.global }

// SetRoute installs a dynamic uplink resolver (self-healing deployments).
func (n *MGDDLeaf) SetRoute(fn func() (tagsim.NodeID, bool)) { n.up.SetRoute(fn) }

// Health reports the replica's staleness state: the epoch stamp of the
// last folded global update, whether the leaf currently considers its
// replica stale, and the time-to-recover (epochs from staleness/outage
// onset to the next folded update) of every completed repair. ttr is
// never nil — a leaf with no completed repairs reports an empty slice,
// so callers (and JSON encodings) need no nil guard on the zero-fault
// path.
func (n *MGDDLeaf) Health() (modelEpoch int, stale bool, ttr []int) {
	return n.global.Stamp(), n.repairFrom >= 0, append(make([]int, 0, len(n.ttrs)), n.ttrs...)
}

// heal runs the staleness/recovery protocol at the top of an epoch tick:
// a gap in the tick sequence means this leaf just recovered from a
// crash, so it asks the root for a catch-up refresh immediately; a
// replica that has gone StaleAfter epochs without an update triggers a
// rate-limited refresh request. Requests carry the origin id so the
// root can answer the requester directly.
func (n *MGDDLeaf) heal(s tagsim.Sender, epoch int, parent tagsim.NodeID, hasUp bool) {
	gap := n.lastEpoch >= 0 && epoch > n.lastEpoch+1
	stale := n.global.Stamp() >= 0 && epoch-n.global.Stamp() > n.StaleAfter
	if (gap || stale) && n.repairFrom < 0 {
		n.repairFrom = epoch
	}
	if !hasUp {
		return
	}
	if gap || (stale && (n.lastReq < 0 || epoch-n.lastReq >= n.StaleAfter)) {
		n.lastReq = epoch
		s.Send(parent, KindRefresh, nil, float64(n.id))
	}
}

// OnEpoch draws one reading and runs the MGDD LeafProcess on it.
func (n *MGDDLeaf) OnEpoch(s tagsim.Sender, epoch int) {
	parent, hasUp := n.up.Get()
	if n.StaleAfter > 0 {
		n.heal(s, epoch, parent, hasUp)
	}
	n.lastEpoch = epoch
	v := n.src.Next()
	included := n.est.Observe(v)
	if included && hasUp && n.rng.Float64() < n.f {
		s.Send(parent, KindSample, v, 0)
	}
	out := false
	if m := n.global.Model(); m != nil && n.est.Warmed() {
		// The replica's model is maintained in place, so the pointer alone
		// no longer signals staleness — the refresh tracks its generation.
		n.cache = mdef.RefreshCachedCounter(n.cache, m, n.prm.AlphaR)
		out = n.eval.IsOutlier(n.cache, v, n.prm)
		if out && n.Flagged != nil {
			n.Flagged(v, epoch)
		}
	}
	if n.OnArrival != nil {
		n.OnArrival(v, epoch, out)
	}
}

// OnMessage folds global-model updates into the replica and closes any
// open repair window (recording its time-to-recover).
func (n *MGDDLeaf) OnMessage(s tagsim.Sender, msg tagsim.Message) {
	if msg.Kind == KindGlobal {
		n.global.Update(msg.Value, msg.Aux, n.lastEpoch)
		if n.repairFrom >= 0 {
			n.ttrs = append(n.ttrs, n.lastEpoch-n.repairFrom)
			n.repairFrom = -1
		}
	}
}

// MGDDParent is the leader process (Figure 4, BlackProcess): it samples
// the values received from its subtree; inclusions are forwarded up with
// probability f. The top leader additionally pushes each inclusion down to
// its children as a global-model update; intermediate leaders relay those
// updates toward the leaves (Section 8.1). When JSGate > 0, the top leader
// suppresses updates until the JS distance between the last-broadcast
// model and its current model exceeds the gate — the communication
// optimization of Section 8.1.
type MGDDParent struct {
	id       tagsim.NodeID
	up       Uplink
	children []tagsim.NodeID
	downs    func() []tagsim.NodeID // dynamic downlinks; nil = children
	est      *Estimator
	f        float64
	rng      *rand.Rand

	// JSGate, when positive, suppresses global updates while the root's
	// model has not drifted: an adoption is broadcast only when
	// JS(last broadcast model, current model) exceeds the gate, so leaves
	// "receive fewer updates, particularly when the distribution of the
	// underlying measurements is stationary" (Section 8.1). Suppressed
	// updates are dropped, not queued — the replica is a sample, so a
	// later broadcast supersedes them.
	JSGate    float64
	JSGridPts int
	lastSent  *kernel.Estimator // frozen copy of the last broadcast model
}

// NewMGDDParent wires a leader node. children receive relayed global
// updates; descLeaves sizes its received-sample window exactly as in D3.
func NewMGDDParent(id tagsim.NodeID, parent tagsim.NodeID, hasParent bool,
	children []tagsim.NodeID, descLeaves int, cfg Config, rng *rand.Rand) *MGDDParent {
	if descLeaves <= 0 {
		panic("core: parent needs at least one descendant leaf")
	}
	receiptsPerSpan := int(float64(descLeaves) * cfg.SampleFraction * float64(cfg.SampleSize))
	return &MGDDParent{
		id:        id,
		up:        newUplink(parent, hasParent),
		children:  append([]tagsim.NodeID(nil), children...),
		est:       NewEstimator(cfg, receiptsPerSpan, float64(descLeaves*cfg.WindowCap), rng),
		f:         cfg.SampleFraction,
		rng:       rng,
		JSGridPts: 64,
	}
}

// ID returns the node id.
func (n *MGDDParent) ID() tagsim.NodeID { return n.id }

// Estimator exposes the node's estimation state.
func (n *MGDDParent) Estimator() *Estimator { return n.est }

// SetRoute installs a dynamic uplink resolver (self-healing deployments).
func (n *MGDDParent) SetRoute(fn func() (tagsim.NodeID, bool)) { n.up.SetRoute(fn) }

// SetDownlinks installs a dynamic downlink resolver: while a child is
// crashed, global updates route around it to its live descendants so
// re-parented leaves keep receiving refreshes. nil restores the static
// children.
func (n *MGDDParent) SetDownlinks(fn func() []tagsim.NodeID) { n.downs = fn }

// downlinks resolves the current downward fan-out.
func (n *MGDDParent) downlinks() []tagsim.NodeID {
	if n.downs != nil {
		return n.downs()
	}
	return n.children
}

// RefreshBatch is the number of sampled points the root ships in answer
// to one KindRefresh catch-up request. The selection is the prefix of
// the root's current sample — deterministic, and most importantly free
// of rng draws: the root's rng is shared with its estimator, so a
// refresh must not perturb the sampling stream.
const RefreshBatch = 8

// OnEpoch is a no-op; leaders are reactive.
func (n *MGDDParent) OnEpoch(s tagsim.Sender, epoch int) {}

// OnMessage implements BlackProcess.
func (n *MGDDParent) OnMessage(s tagsim.Sender, msg tagsim.Message) {
	switch msg.Kind {
	case KindSample:
		included := n.est.Observe(msg.Value)
		if !included {
			return
		}
		if parent, hasUp := n.up.Get(); hasUp {
			if n.rng.Float64() < n.f {
				s.Send(parent, KindSample, msg.Value, 0)
			}
			return
		}
		// Top leader: push the update toward the leaves.
		sigma := n.rootSigma()
		if n.JSGate <= 0 {
			n.broadcast(s, msg.Value, sigma)
			return
		}
		cur := n.est.Model()
		if cur == nil {
			return
		}
		if n.lastSent == nil || divergence.JS(n.lastSent, cur, n.JSGridPts) > n.JSGate {
			n.broadcast(s, msg.Value, sigma)
			// cur is the estimator's live model, patched in place by later
			// refreshes: the gate compares against a frozen copy.
			n.lastSent = cur.Clone()
		}
	case KindGlobal:
		// Relay downward toward the leaves.
		for _, ch := range n.downlinks() {
			s.Send(ch, KindGlobal, msg.Value, msg.Aux)
		}
	case KindRefresh:
		// A recovered or stale leaf asks for a catch-up. Relay the
		// request to the root, which answers the origin directly with a
		// batch of its current sample.
		if parent, hasUp := n.up.Get(); hasUp {
			s.Send(parent, KindRefresh, nil, msg.Aux)
			return
		}
		origin := tagsim.NodeID(int(msg.Aux))
		pts := n.est.SamplePoints()
		k := RefreshBatch
		if k > len(pts) {
			k = len(pts)
		}
		sigma := n.rootSigma()
		for i := 0; i < k; i++ {
			s.Send(origin, KindGlobal, pts[i], sigma)
		}
	}
}

// broadcast sends one global update to every current downlink (who
// relay further down).
func (n *MGDDParent) broadcast(s tagsim.Sender, v window.Point, sigma float64) {
	for _, ch := range n.downlinks() {
		s.Send(ch, KindGlobal, v, sigma)
	}
}

// rootSigma condenses the root's per-dimension deviation estimates into
// the scalar shipped with updates (dimensions share one bandwidth scale in
// the replica; the kernel rule rescales per dimension identically).
func (n *MGDDParent) rootSigma() float64 {
	sds := n.est.StdDevs()
	sum, cnt := 0.0, 0
	for _, s := range sds {
		if s == s && s > 0 { // skip NaN
			sum += s
			cnt++
		}
	}
	if cnt == 0 {
		return 0.05 // conservative default until the sketch warms up
	}
	return sum / float64(cnt)
}
