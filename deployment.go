package odds

import (
	"errors"
	"fmt"
	"sync"

	"odds/internal/core"
	"odds/internal/fault"
	"odds/internal/network"
	"odds/internal/parallel"
	"odds/internal/stats"
	"odds/internal/tagsim"
)

// Algorithm selects the distributed detection scheme a Deployment runs.
type Algorithm int

const (
	// D3 detects distance-based outliers at every level of the hierarchy
	// (Section 7 of the paper).
	D3 Algorithm = iota
	// MGDD detects MDEF-based outliers at the leaves against a replicated
	// global model (Section 8).
	MGDD
	// Centralized ships every reading to the top leader — the
	// communication baseline.
	Centralized
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case D3:
		return "D3"
	case MGDD:
		return "MGDD"
	case Centralized:
		return "centralized"
	}
	return fmt.Sprintf("algorithm(%d)", int(a))
}

// Report is one detected outlier: the node that confirmed it, its level
// (0 = leaf), the value, and the epoch.
type Report struct {
	Node  int
	Level int
	Value Point
	Epoch int
}

// DeploymentConfig assembles a hierarchical deployment.
type DeploymentConfig struct {
	Algorithm Algorithm
	// Sources provides one stream per leaf sensor; its length sets the
	// leaf count.
	Sources   []Source
	Branching int // leaders per grouping (default 4)
	Core      Config
	Dist      DistanceParams // D3 only
	MDEF      MDEFParams     // MGDD only
	// JSGate, when positive, batches MGDD global-model updates until the
	// JS distance between the last-broadcast and current root model
	// exceeds the gate (the Section 8.1 optimization).
	JSGate float64
	// Faults schedules deterministic node crashes and link faults
	// (bursty loss, delay, duplication — see internal/fault). The
	// schedule uses its own Seed, so a faulted run and its fault-free
	// twin share identical per-node randomness streams. Nil injects
	// nothing and leaves the fault-free path bit-identical.
	Faults *fault.Schedule
	// SelfHeal arms topology repair and model recovery: orphaned nodes
	// re-parent onto their nearest live ancestor while a leader is
	// crashed, global-model broadcasts route around down relays, and
	// MGDD leaves detect stale replicas (no update for StaleAfter
	// epochs) or their own recovery and request a catch-up refresh from
	// the root. With no faults scheduled, a self-healing deployment
	// behaves identically to a static one.
	SelfHeal bool
	// StaleAfter is the staleness horizon in epochs for SelfHeal
	// (default 200).
	StaleAfter int
	// UseGrid organizes the network as the paper's Figure 1 overlapping
	// virtual grids (quad-tree tiers over sensors placed on the unit
	// plane) instead of a plain branching hierarchy. Requires the number
	// of sources to be side*side with side a power of two ≥ 2; Branching
	// is ignored.
	UseGrid bool
	Seed    int64
}

// Deployment is a runnable hierarchical sensor network executing one of
// the paper's algorithms.
type Deployment struct {
	cfg   DeploymentConfig
	topo  *network.Topology
	sim   *tagsim.Simulator
	nodes []tagsim.Node
	plan  *fault.Plan
	// effUp/effCh are the self-healing routing tables: rewritten only
	// between epochs (prologue), read concurrently during parallel epoch
	// phases.
	effUp   map[tagsim.NodeID]upEntry
	effCh   map[tagsim.NodeID][]tagsim.NodeID
	mu      sync.Mutex // guards reports and buf (RunParallel phases flag in parallel)
	reports []Report
	// buf, when non-nil, redirects reports into per-node slots during a
	// RunParallel epoch phase; flushing them in slot order before message
	// delivery reproduces the serial report order exactly.
	buf    [][]Report
	epochs int
}

// NewDeployment wires the deployment. Reported outliers accumulate and
// are available from Reports after Run.
func NewDeployment(cfg DeploymentConfig) (*Deployment, error) {
	if len(cfg.Sources) == 0 {
		return nil, errors.New("odds: deployment needs at least one source")
	}
	if cfg.Branching == 0 {
		cfg.Branching = 4
	}
	if cfg.Branching < 2 {
		return nil, fmt.Errorf("odds: branching %d must be at least 2", cfg.Branching)
	}
	if cfg.SelfHeal && cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 200
	}
	if err := cfg.Core.Validate(); err != nil {
		return nil, err
	}
	for i, s := range cfg.Sources {
		if s == nil {
			return nil, fmt.Errorf("odds: source %d is nil", i)
		}
		if s.Dim() != cfg.Core.Dim {
			return nil, fmt.Errorf("odds: source %d has dim %d, config dim %d", i, s.Dim(), cfg.Core.Dim)
		}
	}
	switch cfg.Algorithm {
	case D3:
		if err := cfg.Dist.Validate(); err != nil {
			return nil, err
		}
	case MGDD:
		if err := cfg.MDEF.Validate(); err != nil {
			return nil, err
		}
	case Centralized:
	default:
		return nil, fmt.Errorf("odds: unknown algorithm %d", cfg.Algorithm)
	}

	d := &Deployment{cfg: cfg}
	var topo *network.Topology
	switch {
	case cfg.UseGrid:
		side := 2
		for side*side < len(cfg.Sources) {
			side *= 2
		}
		if side*side != len(cfg.Sources) {
			return nil, fmt.Errorf("odds: grid topology needs a power-of-four sensor count, got %d", len(cfg.Sources))
		}
		topo = network.NewGrid(side)
	case len(cfg.Sources) == 1:
		topo = network.NewHierarchy(1, cfg.Branching)
	default:
		topo = network.NewHierarchy(len(cfg.Sources), cfg.Branching)
	}
	d.topo = topo
	d.sim = tagsim.New()
	master := stats.NewRand(cfg.Seed)
	// The schedule draws from its own Seed, not from master, so a faulted
	// run and its fault-free twin share node streams.
	if cfg.Faults != nil && !cfg.Faults.Empty() {
		plan, err := fault.Compile(*cfg.Faults)
		if err != nil {
			return nil, fmt.Errorf("odds: %w", err)
		}
		d.plan = plan
		d.sim.SetFaults(plan)
	}

	record := func(node tagsim.NodeID, level int) func(Point, int) {
		slot := len(d.nodes) // the index addNode assigns next
		return func(v Point, epoch int) {
			d.mu.Lock()
			r := Report{Node: int(node), Level: level, Value: v, Epoch: epoch}
			if d.buf != nil {
				d.buf[slot] = append(d.buf[slot], r)
			} else {
				d.reports = append(d.reports, r)
			}
			d.mu.Unlock()
		}
	}

	for i, id := range topo.Leaves() {
		parent, hasUp := topo.Parent(id)
		switch cfg.Algorithm {
		case D3:
			leaf := core.NewD3Leaf(id, parent, hasUp, cfg.Sources[i], cfg.Core, cfg.Dist, stats.SplitRand(master))
			leaf.Flagged = record(id, 0)
			d.addNode(leaf)
		case MGDD:
			leaf := core.NewMGDDLeaf(id, parent, hasUp, cfg.Sources[i], cfg.Core, cfg.MDEF, len(topo.Leaves()), stats.SplitRand(master))
			leaf.Flagged = record(id, 0)
			if cfg.SelfHeal {
				leaf.StaleAfter = cfg.StaleAfter
			}
			d.addNode(leaf)
		case Centralized:
			d.addNode(core.NewCentralLeaf(id, parent, hasUp, cfg.Sources[i]))
		}
	}
	for lvl := 1; lvl < topo.Depth(); lvl++ {
		for _, id := range topo.Levels[lvl] {
			parent, hasUp := topo.Parent(id)
			desc := len(topo.DescendantLeaves(id))
			switch cfg.Algorithm {
			case D3:
				p := core.NewD3Parent(id, parent, hasUp, desc, cfg.Core, cfg.Dist, stats.SplitRand(master))
				p.Flagged = record(id, lvl)
				d.addNode(p)
			case MGDD:
				p := core.NewMGDDParent(id, parent, hasUp, topo.Children[id], desc, cfg.Core, stats.SplitRand(master))
				p.JSGate = cfg.JSGate
				d.addNode(p)
			case Centralized:
				r := core.NewCentralRelay(id, parent, hasUp)
				if !hasUp {
					r.CollectCap = cfg.Core.WindowCap
				}
				d.addNode(r)
			}
		}
	}
	if cfg.SelfHeal {
		d.installRoutes()
	}
	return d, nil
}

func (d *Deployment) addNode(n tagsim.Node) {
	d.sim.Add(n)
	d.nodes = append(d.nodes, n)
}

// upEntry is one node's current upward hop in the routing table.
type upEntry struct {
	parent tagsim.NodeID
	ok     bool
}

// routable is implemented by every core node behavior.
type routable interface {
	SetRoute(func() (tagsim.NodeID, bool))
}

// installRoutes points every node's uplink (and MGDD downlinks) at the
// deployment routing tables, which prologue rewrites between epochs
// whenever the fault plan changes the live topology.
func (d *Deployment) installRoutes() {
	d.recomputeRoutes(0)
	for _, n := range d.nodes {
		id := n.ID()
		if r, ok := n.(routable); ok {
			r.SetRoute(func() (tagsim.NodeID, bool) {
				e := d.effUp[id]
				return e.parent, e.ok
			})
		}
		if p, ok := n.(*core.MGDDParent); ok {
			p.SetDownlinks(func() []tagsim.NodeID { return d.effCh[id] })
		}
	}
}

// recomputeRoutes rebuilds the live-topology routing tables for epoch:
// every node's uplink becomes its nearest live ancestor, every node's
// downlinks its live children (crashed children replaced by their live
// descendants).
func (d *Deployment) recomputeRoutes(epoch int) {
	down := func(id tagsim.NodeID) bool { return d.plan.Down(int(id), epoch) }
	up := make(map[tagsim.NodeID]upEntry, len(d.nodes))
	ch := make(map[tagsim.NodeID][]tagsim.NodeID, len(d.nodes))
	for _, n := range d.nodes {
		id := n.ID()
		p, ok := d.topo.LiveParent(id, down)
		up[id] = upEntry{parent: p, ok: ok}
		ch[id] = d.topo.LiveChildren(id, down)
	}
	d.effUp, d.effCh = up, ch
}

// prologue runs serially at the top of every epoch; it refreshes the
// routing tables only at epochs where an outage begins or ends, so the
// steady-state cost is one map lookup.
func (d *Deployment) prologue(epoch int) {
	if d.effUp == nil || d.plan == nil {
		return // self-healing off, or nothing to heal from
	}
	if epoch > 0 && !d.plan.TopologyChangedAt(epoch) {
		return
	}
	d.recomputeRoutes(epoch)
}

// Run executes the given number of epochs on the deterministic simulator
// (one reading per sensor per epoch).
func (d *Deployment) Run(epochs int) {
	for e := 0; e < epochs; e++ {
		d.prologue(e)
		d.sim.Step(e)
	}
	d.epochs += epochs
}

// RunParallel executes the given number of epochs like Run, stepping the
// nodes' per-epoch work across at most workers goroutines (workers <= 0
// selects GOMAXPROCS; 1 falls back to Run). It stays fully deterministic:
// for a fixed seed, Reports and Messages are bit-identical to Run. Sends
// and outlier reports raised during the concurrent phase are buffered per
// node and flushed in node order before message delivery, which itself
// remains serial.
func (d *Deployment) RunParallel(epochs, workers int) {
	pool := parallel.New(workers)
	if pool.Workers() <= 1 {
		d.Run(epochs)
		return
	}
	for e := 0; e < epochs; e++ {
		d.prologue(e)
		d.mu.Lock()
		d.buf = make([][]Report, len(d.nodes))
		d.mu.Unlock()
		d.sim.StepParallel(e, pool, func() {
			d.mu.Lock()
			for _, b := range d.buf {
				d.reports = append(d.reports, b...)
			}
			d.buf = nil
			d.mu.Unlock()
		})
	}
	d.epochs += epochs
}

// Reports returns the outliers detected so far, in detection order for
// deterministic runs.
func (d *Deployment) Reports() []Report {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Report, len(d.reports))
	copy(out, d.reports)
	return out
}

// MessageStats is the per-kind message accounting a deterministic run
// accumulates.
type MessageStats = tagsim.Stats

// Messages returns the message accounting of deterministic runs.
func (d *Deployment) Messages() MessageStats { return d.sim.Stats() }

// CheckMessageConservation asserts that every transmitted copy in the
// deterministic engine met exactly one fate (delivered, lost, dropped,
// crash-dropped, duplicate-discarded, or still in flight).
func (d *Deployment) CheckMessageConservation() error { return d.sim.CheckConservation() }

// NodeHealth is one node's robustness snapshot after a run.
type NodeHealth struct {
	Node  int
	Level int
	// Down reports whether the node was crashed at the last stepped
	// epoch; Crashes counts its scheduled outage windows.
	Down    bool
	Crashes int
	// ModelEpoch is the epoch stamp of an MGDD leaf's global-model
	// replica (-1 for other nodes or before the first update), Stale
	// whether the leaf currently awaits a refresh, and TimeToRecover the
	// epochs each completed repair took from staleness/outage onset to
	// the next folded update.
	ModelEpoch    int
	Stale         bool
	TimeToRecover []int
}

// Health reports per-node health: crash state and counts from the fault
// plan, plus model staleness and time-to-recover for MGDD leaves. It is
// fully populated on the zero-fault path too — with no schedule compiled
// every node reports zero-valued health (Down false, zero crashes), and
// MGDD leaves always carry a non-nil TimeToRecover, so callers never
// need a nil guard.
func (d *Deployment) Health() []NodeHealth {
	e := d.sim.Epoch()
	out := make([]NodeHealth, 0, len(d.nodes))
	for _, n := range d.nodes {
		id := n.ID()
		h := NodeHealth{
			Node:       int(id),
			Level:      d.topo.Level(id),
			Down:       d.plan.Down(int(id), e),
			Crashes:    d.plan.CrashCount(int(id)),
			ModelEpoch: -1,
		}
		if leaf, ok := n.(*core.MGDDLeaf); ok {
			h.ModelEpoch, h.Stale, h.TimeToRecover = leaf.Health()
		}
		out = append(out, h)
	}
	return out
}

// Levels returns the number of hierarchy levels (leaves inclusive).
func (d *Deployment) Levels() int { return d.topo.Depth() }

// NodeCount returns the total number of nodes.
func (d *Deployment) NodeCount() int { return d.topo.NodeCount() }

// SensorPosition returns the plane position of leaf sensor i under the
// grid topology (ok=false for hierarchy deployments or non-leaf ids).
func (d *Deployment) SensorPosition(i int) (x, y float64, ok bool) {
	if i < 0 || i >= len(d.topo.Leaves()) {
		return 0, 0, false
	}
	pos, has := d.topo.Pos[d.topo.Leaves()[i]]
	if !has {
		return 0, 0, false
	}
	return pos[0], pos[1], true
}
