// Package tagsim is the reproduction's stand-in for the TAG simulator the
// paper builds on (Section 10, Implementation): a deterministic,
// epoch-driven sensor-network simulator with per-message accounting and
// continuous-query semantics.
//
// Each epoch models one sensing interval (the paper assumes one reading
// per second and per sensor): every node's OnEpoch fires in a fixed order,
// and messages sent during the epoch are delivered — possibly cascading —
// before the next epoch begins, mirroring TAG's epoch-synchronized
// communication. Statistics record every message by kind, which is exactly
// what the Figure 11 communication-cost experiment consumes.
//
// The simulator is deterministic: node order is fixed and nodes are
// expected to draw randomness from their own seeded sources, so identical
// runs produce identical message counts and detections. Fault injection
// (node crashes, bursty links, delay, duplication — see internal/fault)
// preserves that: the fault plan draws from per-link streams in the
// serial enqueue/drain phases, so a faulted run replays bit-exactly at
// any worker count.
package tagsim

import (
	"fmt"

	"odds/internal/fault"
	"odds/internal/parallel"
	"odds/internal/window"
)

// NodeID identifies a node in the simulation.
type NodeID int

// Message is one radio transmission between two nodes.
type Message struct {
	From, To NodeID
	Kind     string
	Value    window.Point // payload reading, if any
	Aux      float64      // auxiliary scalar payload (e.g. a sigma update)
}

// Sender lets a node behavior transmit messages; it is implemented by
// this package's epoch-driven simulator.
type Sender interface {
	// Self returns the node the callback is executing on.
	Self() NodeID
	// Send transmits a message; delivery semantics (same-epoch cascade vs
	// asynchronous) are the engine's.
	Send(to NodeID, kind string, value window.Point, aux float64)
}

// Node is the behavior the simulator drives.
type Node interface {
	// ID returns the node's identity; it must be unique and stable.
	ID() NodeID
	// OnEpoch is invoked once per epoch, before message delivery.
	OnEpoch(s Sender, epoch int)
	// OnMessage delivers one message addressed to this node.
	OnMessage(s Sender, msg Message)
}

// Stats accumulates message accounting for a run. Every transmitted copy
// meets exactly one fate, so the conservation equation
//
//	Sent + Duplicated == Delivered + Lost + Dropped + CrashDropped +
//	                     DupDiscarded + InFlight
//
// holds at every epoch boundary (CheckConservation asserts it).
type Stats struct {
	Epochs  int
	Total   int // messages sent, excluding kinds hidden via ExcludeKind
	ByKind  map[string]int
	Dropped int // copies addressed to unknown nodes
	Lost    int // copies destroyed by injected link faults

	Sent         int // every Send, including hidden kinds
	Delivered    int // copies handed to a live node's OnMessage
	Duplicated   int // extra copies created by link duplication
	DupDiscarded int // duplicate copies suppressed at delivery
	Delayed      int // copies held back one or more epochs
	CrashDropped int // copies addressed to a node that was down on arrival
	Bursts       int // Gilbert–Elliott bad-state entries across all links
}

// PerSecond returns the average messages per epoch (the paper equates one
// epoch with one second).
func (s Stats) PerSecond() float64 {
	if s.Epochs == 0 {
		return 0
	}
	return float64(s.Total) / float64(s.Epochs)
}

// KindPerSecond returns the per-epoch rate of one message kind.
func (s Stats) KindPerSecond(kind string) float64 {
	if s.Epochs == 0 {
		return 0
	}
	return float64(s.ByKind[kind]) / float64(s.Epochs)
}

// envelope is one transmitted copy in flight. dup links the copies of a
// duplicated transmission so the receiver sees the message once.
type envelope struct {
	msg Message
	dup int64 // dup-group id; 0 = sole copy
}

// dupTrack follows one duplicated transmission until both copies settle.
type dupTrack struct {
	left      int
	delivered bool
}

// Simulator owns the nodes and the in-flight message queue.
type Simulator struct {
	nodes  map[NodeID]Node
	order  []NodeID
	queue  []envelope
	stats  Stats
	silent map[string]bool // kinds excluded from accounting

	plan      *fault.Plan        // nil = fault-free
	epoch     int                // epoch currently stepping
	delayed   map[int][]envelope // due epoch → copies released then
	inflight  int                // copies in delayed, for conservation
	dups      map[int64]*dupTrack
	nextDup   int64
	burstBase int // plan burst count at last ResetStats
}

// New returns an empty simulator.
func New() *Simulator {
	return &Simulator{
		nodes:  make(map[NodeID]Node),
		silent: make(map[string]bool),
		stats:  Stats{ByKind: make(map[string]int)},
	}
}

// Add registers a node. It panics on duplicate IDs — a wiring bug.
func (s *Simulator) Add(n Node) {
	id := n.ID()
	if _, dup := s.nodes[id]; dup {
		panic(fmt.Sprintf("tagsim: duplicate node id %d", id))
	}
	s.nodes[id] = n
	s.order = append(s.order, id)
}

// NodeCount returns the number of registered nodes.
func (s *Simulator) NodeCount() int { return len(s.nodes) }

// Epoch returns the epoch currently (or last) stepped.
func (s *Simulator) Epoch() int { return s.epoch }

// ExcludeKind removes a message kind from the statistics (still
// delivered). The Figure 11 experiment excludes outlier reports, "since
// these are infrequent".
func (s *Simulator) ExcludeKind(kind string) { s.silent[kind] = true }

// SetFaults installs a compiled fault plan (nil clears it). Crashed
// nodes take no epoch ticks and receive nothing; link faults destroy,
// delay, or duplicate individual copies. With a nil or empty plan the
// simulator behaves bit-identically to a fault-free run.
func (s *Simulator) SetFaults(p *fault.Plan) {
	s.plan = p
	s.burstBase = 0
	if p != nil {
		if s.delayed == nil {
			s.delayed = make(map[int][]envelope)
		}
		if s.dups == nil {
			s.dups = make(map[int64]*dupTrack)
		}
	}
}

// Faults returns the installed fault plan, if any.
func (s *Simulator) Faults() *fault.Plan { return s.plan }

// Context is the send/record surface handed to node callbacks.
type Context struct {
	sim  *Simulator
	self NodeID
}

// Self returns the node the context belongs to.
func (c *Context) Self() NodeID { return c.self }

// Send enqueues a message from the context's node. Delivery happens within
// the current epoch unless a link fault delays it.
func (c *Context) Send(to NodeID, kind string, value window.Point, aux float64) {
	c.sim.enqueue(Message{From: c.self, To: to, Kind: kind, Value: value, Aux: aux})
}

func (s *Simulator) enqueue(m Message) {
	if !s.silent[m.Kind] {
		s.stats.Total++
		s.stats.ByKind[m.Kind]++
	}
	s.stats.Sent++
	if s.plan == nil {
		s.queue = append(s.queue, envelope{msg: m})
		return
	}
	v := s.plan.Transmit(int(m.From), int(m.To), s.epoch)
	if v.N == 2 {
		s.stats.Duplicated++
	}
	// Deduplication state is only needed when both copies survive loss;
	// otherwise the survivor (if any) travels as a sole copy. This keeps
	// the dup map bounded by copies actually in flight.
	var id int64
	if v.N == 2 && !v.Fates[0].Lost && !v.Fates[1].Lost {
		s.nextDup++
		id = s.nextDup
		s.dups[id] = &dupTrack{left: 2}
	}
	for i := 0; i < v.N; i++ {
		f := v.Fates[i]
		if f.Lost {
			s.stats.Lost++
			continue
		}
		env := envelope{msg: m, dup: id}
		if f.Delay > 0 {
			s.stats.Delayed++
			s.inflight++
			s.delayed[s.epoch+f.Delay] = append(s.delayed[s.epoch+f.Delay], env)
			continue
		}
		s.queue = append(s.queue, env)
	}
}

// release moves copies due at epoch from the delay buffers to the front
// of the delivery queue, ahead of anything the epoch itself sends.
func (s *Simulator) release(epoch int) {
	if len(s.delayed) == 0 {
		return
	}
	due := s.delayed[epoch]
	if len(due) == 0 {
		return
	}
	delete(s.delayed, epoch)
	s.inflight -= len(due)
	s.queue = append(due, s.queue...)
}

// maxCascade bounds intra-epoch message cascades; a well-formed hierarchy
// needs at most its depth, so hitting the bound indicates a routing loop.
const maxCascade = 1 << 20

// Step runs a single epoch: delayed copies come due, every live node's
// OnEpoch fires in registration order, then message delivery to
// quiescence. Crashed nodes are skipped entirely — no reading, no sends.
// It is StepParallel's serial path.
func (s *Simulator) Step(epoch int) { s.StepParallel(epoch, nil, nil) }

// bufSender collects one node's epoch sends during StepParallel's
// concurrent phase. Each node callback gets its own bufSender, so sends
// touch no shared simulator state until the post-barrier flush.
type bufSender struct {
	self NodeID
	out  []Message
}

// Self returns the node the sender belongs to.
func (b *bufSender) Self() NodeID { return b.self }

// Send buffers a message for deterministic post-phase enqueueing.
func (b *bufSender) Send(to NodeID, kind string, value window.Point, aux float64) {
	b.out = append(b.out, Message{From: b.self, To: to, Kind: kind, Value: value, Aux: aux})
}

// StepParallel runs a single epoch like Step, but executes the OnEpoch
// callbacks concurrently on the pool. It is observationally identical to
// Step — same message accounting, same fault-coin sequence, same delivery
// order — provided every OnEpoch touches only its own node's state (true
// of all behaviors in this repository; OnMessage may touch shared state
// freely, as delivery stays serial). Sends made during the concurrent
// phase are buffered per node and enter the queue in registration order,
// exactly where Step would have enqueued them; fault decisions happen at
// that serial flush, never inside the concurrent phase. beforeDrain, if
// non-nil, runs after the concurrent phase and before delivery — callers
// use it to flush per-node buffers of their own (e.g. outlier reports)
// in deterministic order.
func (s *Simulator) StepParallel(epoch int, pool *parallel.Pool, beforeDrain func()) {
	s.epoch = epoch
	s.release(epoch)
	if n := len(s.order); pool == nil || pool.Workers() <= 1 || n <= 1 {
		for _, id := range s.order {
			if s.plan.Down(int(id), epoch) {
				continue
			}
			s.nodes[id].OnEpoch(&Context{sim: s, self: id}, epoch)
		}
	} else {
		senders := make([]bufSender, n)
		pool.For(n, func(i int) {
			id := s.order[i]
			if s.plan.Down(int(id), epoch) {
				return
			}
			senders[i].self = id
			s.nodes[id].OnEpoch(&senders[i], epoch)
		})
		for i := range senders {
			for _, m := range senders[i].out {
				s.enqueue(m)
			}
		}
	}
	if beforeDrain != nil {
		beforeDrain()
	}
	s.drain()
	s.stats.Epochs++
}

func (s *Simulator) drain() {
	popped := 0
	for len(s.queue) > 0 {
		env := s.queue[0]
		s.queue = s.queue[1:]
		s.deliver(env)
		popped++
		if popped > maxCascade {
			panic("tagsim: message cascade exceeded bound; routing loop?")
		}
	}
}

// deliver settles one copy: dropped (unknown destination), crash-dropped
// (destination down this epoch), duplicate-discarded, or delivered.
func (s *Simulator) deliver(env envelope) {
	m := env.msg
	dst, ok := s.nodes[m.To]
	if !ok {
		s.stats.Dropped++
		s.settleDup(env.dup, false)
		return
	}
	if s.plan.Down(int(m.To), s.epoch) {
		s.stats.CrashDropped++
		s.settleDup(env.dup, false)
		return
	}
	if env.dup != 0 {
		tr := s.dups[env.dup]
		already := tr.delivered
		s.settleDup(env.dup, true)
		if already {
			s.stats.DupDiscarded++
			return
		}
	}
	s.stats.Delivered++
	dst.OnMessage(&Context{sim: s, self: m.To}, m)
}

// settleDup records one settled copy of a duplicated transmission.
func (s *Simulator) settleDup(id int64, delivered bool) {
	if id == 0 {
		return
	}
	tr := s.dups[id]
	if delivered {
		tr.delivered = true
	}
	tr.left--
	if tr.left == 0 {
		delete(s.dups, id)
	}
}

// InFlight returns the number of copies currently held in delay buffers
// (the queue is empty between epochs).
func (s *Simulator) InFlight() int { return s.inflight + len(s.queue) }

// CheckConservation asserts that every transmitted copy has met exactly
// one fate — the invariant the chaos suite leans on.
func (s *Simulator) CheckConservation() error {
	st := s.stats
	settled := st.Delivered + st.Lost + st.Dropped + st.CrashDropped + st.DupDiscarded
	if st.Sent+st.Duplicated != settled+s.InFlight() {
		return fmt.Errorf(
			"tagsim: message conservation violated: sent %d + duplicated %d != delivered %d + lost %d + dropped %d + crash-dropped %d + dup-discarded %d + in-flight %d",
			st.Sent, st.Duplicated, st.Delivered, st.Lost, st.Dropped, st.CrashDropped, st.DupDiscarded, s.InFlight())
	}
	return nil
}

// Run executes the given number of epochs.
func (s *Simulator) Run(epochs int) {
	for e := 0; e < epochs; e++ {
		s.Step(e)
	}
}

// Stats returns a copy of the accumulated statistics.
func (s *Simulator) Stats() Stats {
	cp := s.stats
	cp.Bursts = s.plan.Bursts() - s.burstBase
	cp.ByKind = make(map[string]int, len(s.stats.ByKind))
	for k, v := range s.stats.ByKind {
		cp.ByKind[k] = v
	}
	return cp
}

// ResetStats zeroes the accounting (e.g. after a warm-up phase) without
// touching node state or in-flight copies.
func (s *Simulator) ResetStats() {
	s.stats = Stats{ByKind: make(map[string]int)}
	s.burstBase = s.plan.Bursts()
}

// Disseminate models continuous-query injection (Section 10): the query
// travels from the root along the tree, one message per link, and every
// node receives it. It returns the number of messages used.
func (s *Simulator) Disseminate(root NodeID, children func(NodeID) []NodeID, kind string) int {
	n := 0
	var walk func(from, at NodeID)
	walk = func(from, at NodeID) {
		if from != at {
			s.enqueue(Message{From: from, To: at, Kind: kind})
			n++
		}
		for _, ch := range children(at) {
			walk(at, ch)
		}
	}
	walk(root, root)
	s.drain()
	return n
}
