package core

import (
	"math/rand"

	"odds/internal/distance"
	"odds/internal/stream"
	"odds/internal/tagsim"
	"odds/internal/window"
)

// IsDistanceOutlier applies the D3 outlier criterion (Figure 4,
// IsOutlier): p is flagged when the estimated neighbor count N(p,r) in the
// node's window falls below the threshold t.
func (e *Estimator) IsDistanceOutlier(p window.Point, prm distance.Params) bool {
	m := e.Model()
	if m == nil {
		return false
	}
	return m.Count(p, prm.Radius) < prm.Threshold
}

// D3Leaf is the leaf-sensor process of the D3 algorithm (Figure 4,
// LeafProcess): per arrival it updates its estimation state, propagates
// sample inclusions to its parent with probability f, checks the value
// against its own model, and reports/forwards outliers.
type D3Leaf struct {
	id  tagsim.NodeID
	up  Uplink
	src stream.Source
	est *Estimator
	prm distance.Params
	f   float64
	rng *rand.Rand

	// Flagged, when set, observes every locally-detected outlier.
	Flagged func(v window.Point, epoch int)
	// OnArrival, when set, observes every arrival and the leaf's decision —
	// the evaluation harness's ground-truth hook.
	OnArrival func(v window.Point, epoch int, flagged bool)
}

// NewD3Leaf wires a leaf sensor. parent is ignored when hasParent is
// false (a standalone sensor).
func NewD3Leaf(id tagsim.NodeID, parent tagsim.NodeID, hasParent bool,
	src stream.Source, cfg Config, prm distance.Params, rng *rand.Rand) *D3Leaf {
	if err := prm.Validate(); err != nil {
		panic(err)
	}
	if src.Dim() != cfg.Dim {
		panic("core: source dimensionality does not match config")
	}
	return &D3Leaf{
		id:  id,
		up:  newUplink(parent, hasParent),
		src: src,
		est: NewEstimator(cfg, cfg.WindowCap, float64(cfg.WindowCap), rng),
		prm: prm,
		f:   cfg.SampleFraction,
		rng: rng,
	}
}

// ID returns the node id.
func (n *D3Leaf) ID() tagsim.NodeID { return n.id }

// SetRoute installs a dynamic uplink resolver (self-healing deployments).
func (n *D3Leaf) SetRoute(fn func() (tagsim.NodeID, bool)) { n.up.SetRoute(fn) }

// Estimator exposes the node's estimation state (memory experiments).
func (n *D3Leaf) Estimator() *Estimator { return n.est }

// OnEpoch draws one reading and runs LeafProcess on it.
func (n *D3Leaf) OnEpoch(s tagsim.Sender, epoch int) {
	parent, hasUp := n.up.Get()
	v := n.src.Next()
	included := n.est.Observe(v)
	if included && hasUp && n.rng.Float64() < n.f {
		s.Send(parent, KindSample, v, 0)
	}
	out := n.est.Warmed() && n.est.IsDistanceOutlier(v, n.prm)
	if out {
		if n.Flagged != nil {
			n.Flagged(v, epoch)
		}
		if hasUp {
			s.Send(parent, KindOutlier, v, 0)
		}
	}
	if n.OnArrival != nil {
		n.OnArrival(v, epoch, out)
	}
}

// OnMessage is a no-op: leaves receive nothing under D3.
func (n *D3Leaf) OnMessage(s tagsim.Sender, msg tagsim.Message) {}

// D3Parent is the leader process (Figure 4, ParentProcess): it maintains
// an estimation model over the values sampled up from its subtree, checks
// child-reported outliers against that model (Theorem 3 guarantees this
// examines a superset of the true outliers), and forwards surviving
// outliers and sample inclusions further up.
type D3Parent struct {
	id  tagsim.NodeID
	up  Uplink
	est *Estimator
	prm distance.Params
	f   float64
	rng *rand.Rand

	// Flagged observes every outlier confirmed at this node's level.
	Flagged func(v window.Point, epoch int)
	// OnCandidate observes every child-reported outlier and this node's
	// verdict (evaluation hook).
	OnCandidate func(v window.Point, epoch int, flagged bool)

	epoch int // tracked for reporting hooks
}

// NewD3Parent wires a leader node responsible for descLeaves leaf sensors.
// The union window it models holds descLeaves·|W| values (Theorem 3); its
// chain sample tracks the stream of received sampled values, of which one
// union-window span contributes about descLeaves·f·|R|.
func NewD3Parent(id tagsim.NodeID, parent tagsim.NodeID, hasParent bool,
	descLeaves int, cfg Config, prm distance.Params, rng *rand.Rand) *D3Parent {
	if err := prm.Validate(); err != nil {
		panic(err)
	}
	if descLeaves <= 0 {
		panic("core: parent needs at least one descendant leaf")
	}
	receiptsPerSpan := int(float64(descLeaves) * cfg.SampleFraction * float64(cfg.SampleSize))
	return &D3Parent{
		id:  id,
		up:  newUplink(parent, hasParent),
		est: NewEstimator(cfg, receiptsPerSpan, float64(descLeaves*cfg.WindowCap), rng),
		prm: prm,
		f:   cfg.SampleFraction,
		rng: rng,
	}
}

// ID returns the node id.
func (n *D3Parent) ID() tagsim.NodeID { return n.id }

// SetRoute installs a dynamic uplink resolver (self-healing deployments).
func (n *D3Parent) SetRoute(fn func() (tagsim.NodeID, bool)) { n.up.SetRoute(fn) }

// Estimator exposes the node's estimation state.
func (n *D3Parent) Estimator() *Estimator { return n.est }

// OnEpoch only records the epoch for reporting purposes; parents are
// purely reactive.
func (n *D3Parent) OnEpoch(s tagsim.Sender, epoch int) { n.epoch = epoch }

// OnMessage implements ParentProcess.
func (n *D3Parent) OnMessage(s tagsim.Sender, msg tagsim.Message) {
	switch msg.Kind {
	case KindOutlier:
		out := n.est.Warmed() && n.est.IsDistanceOutlier(msg.Value, n.prm)
		if out {
			if n.Flagged != nil {
				n.Flagged(msg.Value, n.epoch)
			}
			if parent, hasUp := n.up.Get(); hasUp {
				s.Send(parent, KindOutlier, msg.Value, 0)
			}
		}
		if n.OnCandidate != nil {
			n.OnCandidate(msg.Value, n.epoch, out)
		}
	case KindSample:
		included := n.est.Observe(msg.Value)
		parent, hasUp := n.up.Get()
		if included && hasUp && n.rng.Float64() < n.f {
			s.Send(parent, KindSample, msg.Value, 0)
		}
	}
}
