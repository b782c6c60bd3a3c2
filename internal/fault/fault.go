// Package fault is the deterministic fault-injection engine for the
// sensor-network engines: seeded schedules of node crashes and link
// faults compiled into a Plan that the epoch-driven tagsim simulator
// consults on every transmission and every epoch tick.
//
// The paper's robustness argument (Sections 7–8) is that model updates
// are probabilistic refreshes, so losing some changes nothing
// structural. The seed repository only exercised uniform i.i.d. radio
// loss; real deployments see node outages, asymmetric links, bursty
// loss, and delayed or duplicated delivery — the regime the in-network
// detection literature (Branch et al.) designs for with dynamic node
// arrival and departure. This package models exactly that:
//
//   - Crash: a node is down for an epoch interval — it takes no
//     readings, sends nothing, and receives nothing. Overlapping crash
//     windows for one node are merged at compile time, so a node can
//     never be "double-crashed". State survives an outage (fail-silent
//     sleep, not a reboot): what a crashed node loses is time and
//     messages, which is what the self-healing layer repairs.
//   - Link: a per-link fault process matched by (From, To) with Any
//     wildcards, combining uniform loss, a Gilbert–Elliott two-state
//     burst process, delivery delay, and duplication. Links are
//     directional, so asymmetric links are two rules.
//
// Determinism contract: every random decision is drawn from a per-link
// stream whose seed is a pure function of (schedule seed, rule index,
// from, to) — the same SplitMix64 construction as stats.Child — and the
// chain of decisions on one link depends only on that link's
// transmission sequence. Engines that enqueue transmissions in a fixed
// order (the tagsim simulator does, at any worker count) therefore
// replay a schedule bit-exactly; nothing depends on which goroutine
// asks, or when.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Any, as a Link rule endpoint, matches every node id.
const Any = -1

// Crash takes one node down starting at epoch At (inclusive) for For
// epochs; For <= 0 means the node never recovers. Node ids follow the
// engine the plan is installed on (tagsim.NodeID numbering).
type Crash struct {
	Node int
	At   int
	For  int
}

// GilbertElliott is the classic two-state burst-loss process: the link
// is in a Good or Bad state, transitions between them with the given
// per-transmission probabilities, and destroys each transmitted copy
// with the loss probability of its current state. Every link starts
// Good. PBadGood = 1 yields degenerate zero-length bursts (one bad
// transmission), which the engine must — and tests do — tolerate.
type GilbertElliott struct {
	PGoodBad, PBadGood float64 // state-transition probability per transmission
	LossGood, LossBad  float64 // per-copy loss probability in each state
}

// enabled reports whether the process does anything at all.
func (g GilbertElliott) enabled() bool {
	return g.PGoodBad > 0 || g.PBadGood > 0 || g.LossGood > 0 || g.LossBad > 0
}

func (g GilbertElliott) validate() error {
	for _, p := range []float64{g.PGoodBad, g.PBadGood, g.LossGood, g.LossBad} {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("fault: Gilbert–Elliott probability %v outside [0,1]", p)
		}
	}
	return nil
}

// Link is one directional link-fault rule. A transmission matches the
// first rule (in Schedule.Links order) whose From and To match the
// endpoints, Any matching everything; unmatched transmissions are
// fault-free. Per transmission the engine draws, in this fixed order:
// the duplication coin (deciding 1 or 2 copies), then per copy the
// burst-state transition and loss, the uniform loss, and — for
// surviving copies — the delay coin and delay length.
type Link struct {
	From, To int
	// Loss destroys each copy independently with this probability
	// (uniform i.i.d. radio loss — the seed repository's only fault).
	Loss float64
	// Burst layers a Gilbert–Elliott process over the link.
	Burst GilbertElliott
	// DelayProb delays a surviving copy by 1..DelayMax epochs (uniform).
	DelayProb float64
	DelayMax  int
	// DupProb transmits an extra copy of the message. Engines
	// deduplicate at delivery — the receiver sees one copy at the
	// earliest arrival, later copies count as DupDiscarded — so
	// duplication acts as redundancy against loss and, combined with
	// delay, as reordering.
	DupProb float64
}

func (l Link) validate() error {
	for _, p := range []float64{l.Loss, l.DelayProb, l.DupProb} {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return fmt.Errorf("fault: link probability %v outside [0,1]", p)
		}
	}
	if l.From < Any || l.To < Any {
		return fmt.Errorf("fault: link endpoint (%d,%d) below Any", l.From, l.To)
	}
	if l.DelayProb > 0 && l.DelayMax < 1 {
		return fmt.Errorf("fault: DelayProb %v needs DelayMax >= 1, got %d", l.DelayProb, l.DelayMax)
	}
	if l.DelayMax < 0 {
		return fmt.Errorf("fault: negative DelayMax %d", l.DelayMax)
	}
	return l.Burst.validate()
}

// Partition cuts one directional process link for an epoch interval —
// the process/link analogue of Crash the cluster chaos suite schedules
// against router↔node links. While cut, every request over the link
// fails at the sender; unlike Link faults nothing is probabilistic, so
// a partition window is exactly reproducible from the schedule alone.
// Endpoints follow the engine the plan is installed on (the cluster
// suite numbers its N serve nodes 0..N-1 and the router N); Any matches
// every endpoint.
type Partition struct {
	From, To int
	At       int // first cut epoch (inclusive)
	For      int // epochs the cut lasts; <= 0 means it never heals
}

func (pt Partition) validate() error {
	if pt.From < Any || pt.To < Any {
		return fmt.Errorf("fault: partition endpoint (%d,%d) below Any", pt.From, pt.To)
	}
	if pt.At < 0 {
		return fmt.Errorf("fault: partition at negative epoch %d", pt.At)
	}
	return nil
}

// Schedule is the declarative fault specification: a seed plus crash,
// link-fault, and partition events. The zero Schedule is empty
// (fault-free).
type Schedule struct {
	Seed       int64
	Crashes    []Crash
	Links      []Link
	Partitions []Partition
}

// Empty reports whether the schedule injects nothing.
func (s Schedule) Empty() bool {
	return len(s.Crashes) == 0 && len(s.Links) == 0 && len(s.Partitions) == 0
}

// UniformLoss is the one-fault schedule: every transmission on every link
// is destroyed independently with probability p.
func UniformLoss(p float64, seed int64) Schedule {
	return Schedule{Seed: seed, Links: []Link{{From: Any, To: Any, Loss: p}}}
}

// GoString renders the schedule as a copy-pasteable Go literal — the
// chaos suite prints shrunken schedules this way.
func (s Schedule) GoString() string {
	out := fmt.Sprintf("fault.Schedule{Seed: %d", s.Seed)
	if len(s.Crashes) > 0 {
		out += ", Crashes: []fault.Crash{"
		for i, c := range s.Crashes {
			if i > 0 {
				out += ", "
			}
			out += fmt.Sprintf("{Node: %d, At: %d, For: %d}", c.Node, c.At, c.For)
		}
		out += "}"
	}
	if len(s.Links) > 0 {
		out += ", Links: []fault.Link{"
		for i, l := range s.Links {
			if i > 0 {
				out += ", "
			}
			out += fmt.Sprintf("{From: %d, To: %d, Loss: %v, Burst: fault.GilbertElliott{PGoodBad: %v, PBadGood: %v, LossGood: %v, LossBad: %v}, DelayProb: %v, DelayMax: %d, DupProb: %v}",
				l.From, l.To, l.Loss, l.Burst.PGoodBad, l.Burst.PBadGood, l.Burst.LossGood, l.Burst.LossBad, l.DelayProb, l.DelayMax, l.DupProb)
		}
		out += "}"
	}
	if len(s.Partitions) > 0 {
		out += ", Partitions: []fault.Partition{"
		for i, pt := range s.Partitions {
			if i > 0 {
				out += ", "
			}
			out += fmt.Sprintf("{From: %d, To: %d, At: %d, For: %d}", pt.From, pt.To, pt.At, pt.For)
		}
		out += "}"
	}
	return out + "}"
}

// interval is one [from, to) outage window in epochs.
type interval struct{ from, to int }

// Fate is the verdict for one transmitted copy.
type Fate struct {
	Lost  bool
	Delay int // epochs the copy is held before delivery; 0 = this epoch
}

// Verdict is the fate of one transmission: N copies (1, or 2 under
// duplication) with their individual fates. Value-typed so the hot path
// allocates nothing.
type Verdict struct {
	N     int
	Fates [2]Fate
}

// linkKey identifies one per-link fault stream: the matched rule and
// the concrete endpoints (a wildcard rule still evolves independent
// state per concrete link).
type linkKey struct{ rule, from, to int }

// linkState is the mutable per-link process state.
type linkState struct {
	rng    *rand.Rand
	bad    bool // Gilbert–Elliott state
	bursts int  // transitions into Bad
}

// Plan is a compiled, runnable schedule. A Plan is safe for concurrent
// use; all methods tolerate a nil receiver, behaving as the empty plan.
type Plan struct {
	seed  int64
	rules []Link
	parts []Partition // validated, in schedule order

	outages map[int][]interval // per node, sorted, disjoint
	edges   map[int]bool       // epochs where some outage begins or ends
	crashes int                // merged outage windows across all nodes
	maxD    int                // largest DelayMax across rules

	mu    sync.Mutex
	links map[linkKey]*linkState
	burst int // total Gilbert–Elliott bad-state entries
}

// Compile validates a schedule and builds its Plan. Overlapping or
// adjacent crash windows for one node are merged, so the compiled
// outage set is disjoint regardless of how the schedule interleaves
// crash and recover events.
func Compile(s Schedule) (*Plan, error) {
	p := &Plan{
		seed:    s.Seed,
		rules:   append([]Link(nil), s.Links...),
		outages: make(map[int][]interval),
		edges:   make(map[int]bool),
		links:   make(map[linkKey]*linkState),
	}
	for i, l := range p.rules {
		if err := l.validate(); err != nil {
			return nil, fmt.Errorf("fault: link %d: %w", i, err)
		}
		if l.DelayMax > p.maxD {
			p.maxD = l.DelayMax
		}
	}
	p.parts = append(p.parts, s.Partitions...)
	for i, pt := range p.parts {
		if err := pt.validate(); err != nil {
			return nil, fmt.Errorf("fault: partition %d: %w", i, err)
		}
	}
	perNode := make(map[int][]interval)
	for i, c := range s.Crashes {
		if c.Node < 0 {
			return nil, fmt.Errorf("fault: crash %d: negative node %d", i, c.Node)
		}
		if c.At < 0 {
			return nil, fmt.Errorf("fault: crash %d: negative epoch %d", i, c.At)
		}
		end := math.MaxInt
		if c.For > 0 {
			end = c.At + c.For
		}
		perNode[c.Node] = append(perNode[c.Node], interval{c.At, end})
	}
	for node, ivs := range perNode {
		sort.Slice(ivs, func(a, b int) bool {
			if ivs[a].from != ivs[b].from {
				return ivs[a].from < ivs[b].from
			}
			return ivs[a].to < ivs[b].to
		})
		merged := ivs[:1]
		for _, iv := range ivs[1:] {
			last := &merged[len(merged)-1]
			if iv.from <= last.to { // overlapping or adjacent: one outage
				if iv.to > last.to {
					last.to = iv.to
				}
				continue
			}
			merged = append(merged, iv)
		}
		p.outages[node] = merged
		p.crashes += len(merged)
		for _, iv := range merged {
			p.edges[iv.from] = true
			if iv.to != math.MaxInt {
				p.edges[iv.to] = true
			}
		}
	}
	return p, nil
}

// MustCompile is Compile for statically-known schedules in tests.
func MustCompile(s Schedule) *Plan {
	p, err := Compile(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Empty reports whether the plan injects nothing at all.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.rules) == 0 && len(p.outages) == 0 && len(p.parts) == 0)
}

// Cut reports whether the directed link from→to is partitioned at
// epoch: a request over it fails at the sender. Unlike Transmit this is
// a pure predicate — partitions carry no randomness, so callers (the
// cluster router's transport in the chaos suite) can consult it any
// number of times without perturbing replay.
func (p *Plan) Cut(from, to, epoch int) bool {
	if p == nil {
		return false
	}
	for i := range p.parts {
		pt := &p.parts[i]
		if pt.From != Any && pt.From != from {
			continue
		}
		if pt.To != Any && pt.To != to {
			continue
		}
		if epoch < pt.At {
			continue
		}
		if pt.For <= 0 || epoch < pt.At+pt.For {
			return true
		}
	}
	return false
}

// Partitions returns the number of partition windows in the plan.
func (p *Plan) Partitions() int {
	if p == nil {
		return 0
	}
	return len(p.parts)
}

// Down reports whether node is crashed at epoch.
func (p *Plan) Down(node, epoch int) bool {
	if p == nil {
		return false
	}
	ivs := p.outages[node]
	i := sort.Search(len(ivs), func(i int) bool { return ivs[i].to > epoch })
	return i < len(ivs) && ivs[i].from <= epoch
}

// TopologyChangedAt reports whether any outage begins or ends exactly at
// epoch — the only epochs at which a self-healing deployment needs to
// recompute its routing tables.
func (p *Plan) TopologyChangedAt(epoch int) bool {
	return p != nil && p.edges[epoch]
}

// Outages returns node's merged outage windows as [from, to) epoch
// pairs (to = MaxInt for a permanent crash). The windows are sorted and
// disjoint — the compiled invariant the fuzzer checks.
func (p *Plan) Outages(node int) [][2]int {
	if p == nil {
		return nil
	}
	out := make([][2]int, 0, len(p.outages[node]))
	for _, iv := range p.outages[node] {
		out = append(out, [2]int{iv.from, iv.to})
	}
	return out
}

// CrashCount returns the number of outage windows scheduled for node.
func (p *Plan) CrashCount(node int) int {
	if p == nil {
		return 0
	}
	return len(p.outages[node])
}

// Crashes returns the total merged outage windows across all nodes.
func (p *Plan) Crashes() int {
	if p == nil {
		return 0
	}
	return p.crashes
}

// HasCrashes reports whether any node ever goes down.
func (p *Plan) HasCrashes() bool { return p != nil && len(p.outages) > 0 }

// MaxDelay returns the largest delay any rule can impose, bounding how
// long a copy stays in flight.
func (p *Plan) MaxDelay() int {
	if p == nil {
		return 0
	}
	return p.maxD
}

// Bursts returns the total number of Gilbert–Elliott bad-state entries
// across all links so far — the loss-burst counter surfaced in message
// statistics.
func (p *Plan) Bursts() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.burst
}

// ruleFor returns the index of the first matching rule, or -1.
func (p *Plan) ruleFor(from, to int) int {
	for i := range p.rules {
		r := &p.rules[i]
		if (r.From == Any || r.From == from) && (r.To == Any || r.To == to) {
			return i
		}
	}
	return -1
}

// linkSeed derives the per-link stream seed as a pure function of
// (plan seed, rule, from, to) with SplitMix64 mixing — the same
// construction as stats.Child, so creation order is irrelevant.
func linkSeed(seed int64, rule, from, to int) int64 {
	x := uint64(seed)
	for _, k := range [3]uint64{uint64(rule), uint64(int64(from)), uint64(int64(to))} {
		x += (k + 1) * 0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x)
}

// state returns the per-link process state, creating it on first use.
// Caller holds p.mu.
func (p *Plan) state(k linkKey) *linkState {
	st, ok := p.links[k]
	if !ok {
		st = &linkState{rng: rand.New(rand.NewSource(linkSeed(p.seed, k.rule, k.from, k.to)))}
		p.links[k] = st
	}
	return st
}

// Transmit decides the fate of one message sent from→to at epoch. The
// empty verdict (one intact copy) is returned for unmatched links and
// nil plans.
func (p *Plan) Transmit(from, to, epoch int) Verdict {
	v := Verdict{N: 1}
	if p == nil || len(p.rules) == 0 {
		return v
	}
	ri := p.ruleFor(from, to)
	if ri < 0 {
		return v
	}
	r := &p.rules[ri]
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.state(linkKey{ri, from, to})
	if r.DupProb > 0 && st.rng.Float64() < r.DupProb {
		v.N = 2
	}
	for i := 0; i < v.N; i++ {
		f := &v.Fates[i]
		if r.Burst.enabled() {
			if st.bad {
				if r.Burst.PBadGood > 0 && st.rng.Float64() < r.Burst.PBadGood {
					st.bad = false
				}
			} else if r.Burst.PGoodBad > 0 && st.rng.Float64() < r.Burst.PGoodBad {
				st.bad = true
				st.bursts++
				p.burst++
			}
			lp := r.Burst.LossGood
			if st.bad {
				lp = r.Burst.LossBad
			}
			if lp > 0 && st.rng.Float64() < lp {
				f.Lost = true
			}
		}
		if !f.Lost && r.Loss > 0 && st.rng.Float64() < r.Loss {
			f.Lost = true
		}
		if !f.Lost && r.DelayProb > 0 && st.rng.Float64() < r.DelayProb {
			f.Delay = 1 + st.rng.Intn(r.DelayMax)
		}
	}
	return v
}
