package tagsim

import (
	"math/rand"
	"reflect"
	"testing"

	"odds/internal/fault"
	"odds/internal/parallel"
	"odds/internal/window"
)

// buildPair wires two identical simulators: a layer of sending leaves, a
// relay layer, and a root sink, with seeded radio loss so the loss-coin
// sequence is part of what must match.
func buildPair() (a, b *Simulator, nodesA, nodesB []*echoNode) {
	mk := func() (*Simulator, []*echoNode) {
		s := New()
		var ns []*echoNode
		const root = NodeID(100)
		for i := 0; i < 9; i++ {
			n := &echoNode{id: NodeID(i + 1), to: root, sendEach: true}
			s.Add(n)
			ns = append(ns, n)
		}
		sink := &echoNode{id: root}
		s.Add(sink)
		ns = append(ns, sink)
		s.SetFaults(fault.MustCompile(fault.UniformLoss(0.3, rand.New(rand.NewSource(77)).Int63())))
		return s, ns
	}
	a, nodesA = mk()
	b, nodesB = mk()
	return
}

// TestStepParallelMatchesStep is the simulator-level determinism
// contract: running epochs through StepParallel must leave the exact
// statistics, delivery sequences, and node states that Step does.
func TestStepParallelMatchesStep(t *testing.T) {
	a, b, nodesA, nodesB := buildPair()
	pool := parallel.New(4)
	for e := 0; e < 200; e++ {
		a.Step(e)
		b.StepParallel(e, pool, nil)
	}
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Errorf("stats diverged:\nserial  %+v\nparallel %+v", a.Stats(), b.Stats())
	}
	for i := range nodesA {
		if nodesA[i].epochs != nodesB[i].epochs {
			t.Errorf("node %d epochs %d vs %d", nodesA[i].id, nodesA[i].epochs, nodesB[i].epochs)
		}
		if !reflect.DeepEqual(nodesA[i].received, nodesB[i].received) {
			t.Errorf("node %d delivery sequences diverged (%d vs %d messages)",
				nodesA[i].id, len(nodesA[i].received), len(nodesB[i].received))
		}
	}
}

// TestStepParallelSerialFallback covers the nil-pool and single-worker
// paths, including the beforeDrain hook which must fire on every path.
func TestStepParallelSerialFallback(t *testing.T) {
	s := New()
	sink := &echoNode{id: 2}
	s.Add(&echoNode{id: 1, to: 2, sendEach: true})
	s.Add(sink)
	hooks := 0
	s.StepParallel(0, nil, func() { hooks++ })
	s.StepParallel(1, parallel.New(1), func() { hooks++ })
	s.StepParallel(2, parallel.New(4), func() { hooks++ })
	if hooks != 3 {
		t.Errorf("beforeDrain fired %d times, want 3", hooks)
	}
	if len(sink.received) != 3 {
		t.Errorf("delivered %d, want 3", len(sink.received))
	}
	if s.Stats().Epochs != 3 {
		t.Errorf("epochs = %d", s.Stats().Epochs)
	}
}

// TestStepParallelBeforeDrainOrdering asserts the hook runs after the
// epoch sends are enqueued and before any delivery happens.
func TestStepParallelBeforeDrainOrdering(t *testing.T) {
	s := New()
	sink := &echoNode{id: 2}
	s.Add(&echoNode{id: 1, to: 2, sendEach: true})
	s.Add(sink)
	s.StepParallel(0, parallel.New(2), func() {
		if len(sink.received) != 0 {
			t.Errorf("delivery before hook: %d messages", len(sink.received))
		}
	})
	if len(sink.received) != 1 {
		t.Errorf("delivered %d after step, want 1", len(sink.received))
	}
}

// concurrentProbe sends from OnEpoch via the handed Sender — under
// StepParallel that must be a per-node buffer, so the probe also acts as
// a race detector target (go test -race).
type concurrentProbe struct {
	id   NodeID
	seen int
}

func (n *concurrentProbe) ID() NodeID { return n.id }
func (n *concurrentProbe) OnEpoch(s Sender, epoch int) {
	if s.Self() != n.id {
		panic("sender identity mismatch")
	}
	s.Send(n.id%8+1, "probe", window.Point{float64(epoch)}, 0)
}
func (n *concurrentProbe) OnMessage(s Sender, m Message) { n.seen++ }

func TestStepParallelSenderIdentity(t *testing.T) {
	s := New()
	total := 0
	probes := make([]*concurrentProbe, 32)
	for i := range probes {
		probes[i] = &concurrentProbe{id: NodeID(i + 1)}
		s.Add(probes[i])
	}
	pool := parallel.New(8)
	for e := 0; e < 50; e++ {
		s.StepParallel(e, pool, nil)
	}
	for _, p := range probes {
		total += p.seen
	}
	if total != 32*50 {
		t.Errorf("delivered %d probes, want %d", total, 32*50)
	}
}
