package tagsim

import (
	"math/rand"
	"testing"

	"odds/internal/fault"
	"odds/internal/window"
)

// echoNode counts epochs and messages; leaves forward readings to a sink.
type echoNode struct {
	id       NodeID
	to       NodeID
	epochs   int
	received []Message
	sendEach bool
}

func (n *echoNode) ID() NodeID { return n.id }

func (n *echoNode) OnEpoch(s Sender, epoch int) {
	n.epochs++
	if n.sendEach {
		s.Send(n.to, "reading", window.Point{float64(epoch)}, 0)
	}
}

func (n *echoNode) OnMessage(s Sender, msg Message) {
	n.received = append(n.received, msg)
}

func TestAddDuplicatePanics(t *testing.T) {
	s := New()
	s.Add(&echoNode{id: 1})
	defer func() {
		if recover() == nil {
			t.Error("duplicate id did not panic")
		}
	}()
	s.Add(&echoNode{id: 1})
}

func TestEpochsInvokeAllNodes(t *testing.T) {
	s := New()
	a := &echoNode{id: 1}
	b := &echoNode{id: 2}
	s.Add(a)
	s.Add(b)
	s.Run(5)
	if a.epochs != 5 || b.epochs != 5 {
		t.Errorf("epochs = %d,%d, want 5,5", a.epochs, b.epochs)
	}
	if s.Stats().Epochs != 5 {
		t.Errorf("stats epochs = %d", s.Stats().Epochs)
	}
	if s.NodeCount() != 2 {
		t.Errorf("NodeCount = %d", s.NodeCount())
	}
}

func TestMessagesDeliveredSameEpoch(t *testing.T) {
	s := New()
	sink := &echoNode{id: 2}
	src := &echoNode{id: 1, to: 2, sendEach: true}
	s.Add(src)
	s.Add(sink)
	s.Step(0)
	if len(sink.received) != 1 {
		t.Fatalf("received %d messages after one epoch, want 1", len(sink.received))
	}
	m := sink.received[0]
	if m.From != 1 || m.To != 2 || m.Kind != "reading" || m.Value[0] != 0 {
		t.Errorf("message = %+v", m)
	}
}

// relayNode forwards everything it receives one hop up.
type relayNode struct {
	id, to NodeID
	got    int
}

func (n *relayNode) ID() NodeID              { return n.id }
func (n *relayNode) OnEpoch(s Sender, e int) {}
func (n *relayNode) OnMessage(s Sender, m Message) {
	n.got++
	if n.to != 0 {
		s.Send(n.to, m.Kind, m.Value, m.Aux)
	}
}

func TestCascadeWithinEpoch(t *testing.T) {
	// leaf → mid → root in a single epoch.
	s := New()
	leaf := &echoNode{id: 1, to: 2, sendEach: true}
	mid := &relayNode{id: 2, to: 3}
	root := &relayNode{id: 3}
	s.Add(leaf)
	s.Add(mid)
	s.Add(root)
	s.Run(4)
	if mid.got != 4 || root.got != 4 {
		t.Errorf("mid/root got %d/%d, want 4/4", mid.got, root.got)
	}
	st := s.Stats()
	if st.Total != 8 {
		t.Errorf("total messages = %d, want 8 (two hops x four epochs)", st.Total)
	}
	if st.ByKind["reading"] != 8 {
		t.Errorf("reading count = %d, want 8", st.ByKind["reading"])
	}
	if got := st.PerSecond(); got != 2 {
		t.Errorf("PerSecond = %v, want 2", got)
	}
	if got := st.KindPerSecond("reading"); got != 2 {
		t.Errorf("KindPerSecond = %v, want 2", got)
	}
}

func TestUnknownDestinationDropped(t *testing.T) {
	s := New()
	s.Add(&echoNode{id: 1, to: 99, sendEach: true})
	s.Run(3)
	st := s.Stats()
	if st.Dropped != 3 {
		t.Errorf("dropped = %d, want 3", st.Dropped)
	}
	// Dropped messages are still accounted as sent.
	if st.Total != 3 {
		t.Errorf("total = %d, want 3", st.Total)
	}
}

func TestExcludeKind(t *testing.T) {
	s := New()
	sink := &echoNode{id: 2}
	s.Add(&echoNode{id: 1, to: 2, sendEach: true})
	s.Add(sink)
	s.ExcludeKind("reading")
	s.Run(3)
	if got := s.Stats().Total; got != 0 {
		t.Errorf("excluded kind counted: total = %d", got)
	}
	if len(sink.received) != 3 {
		t.Errorf("excluded kind not delivered: got %d", len(sink.received))
	}
}

func TestResetStats(t *testing.T) {
	s := New()
	sink := &echoNode{id: 2}
	s.Add(&echoNode{id: 1, to: 2, sendEach: true})
	s.Add(sink)
	s.Run(5)
	s.ResetStats()
	s.Run(2)
	st := s.Stats()
	if st.Total != 2 || st.Epochs != 2 {
		t.Errorf("after reset: total=%d epochs=%d, want 2,2", st.Total, st.Epochs)
	}
}

func TestStatsCopyIsolated(t *testing.T) {
	s := New()
	sink := &echoNode{id: 2}
	s.Add(&echoNode{id: 1, to: 2, sendEach: true})
	s.Add(sink)
	s.Run(1)
	st := s.Stats()
	st.ByKind["reading"] = 999
	if s.Stats().ByKind["reading"] == 999 {
		t.Error("Stats returned shared map")
	}
}

func TestPerSecondEmpty(t *testing.T) {
	var st Stats
	if st.PerSecond() != 0 || st.KindPerSecond("x") != 0 {
		t.Error("zero-epoch rates should be 0")
	}
}

func TestSetLossDestroysShare(t *testing.T) {
	s := New()
	sink := &echoNode{id: 2}
	s.Add(&echoNode{id: 1, to: 2, sendEach: true})
	s.Add(sink)
	s.SetFaults(fault.MustCompile(fault.UniformLoss(0.5, rand.New(rand.NewSource(1)).Int63())))
	s.Run(2000)
	st := s.Stats()
	if st.Total != 2000 {
		t.Fatalf("sent = %d, want 2000 (losses still count as sent)", st.Total)
	}
	frac := float64(st.Lost) / 2000
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("lost fraction = %v, want ≈0.5", frac)
	}
	if len(sink.received)+st.Lost != 2000 {
		t.Errorf("delivered %d + lost %d != sent 2000", len(sink.received), st.Lost)
	}
}

// TestSetLossValidation: a loss probability outside [0,1] never reaches the
// simulator — its schedule does not compile — and a nil plan turns loss off.
func TestSetLossValidation(t *testing.T) {
	for _, p := range []float64{-0.1, 1.1} {
		if _, err := fault.Compile(fault.UniformLoss(p, 1)); err == nil {
			t.Errorf("loss %v accepted", p)
		}
	}
	s := New()
	s.SetFaults(fault.MustCompile(fault.UniformLoss(0.5, 1)))
	s.SetFaults(nil)
	if s.Faults() != nil {
		t.Error("SetFaults(nil) left a plan installed")
	}
}

func TestDisseminate(t *testing.T) {
	s := New()
	nodes := []*relayNode{{id: 1}, {id: 2}, {id: 3}, {id: 4}, {id: 5}}
	for _, n := range nodes {
		s.Add(n)
	}
	children := func(id NodeID) []NodeID {
		switch id {
		case 1:
			return []NodeID{2, 3}
		case 2:
			return []NodeID{4, 5}
		}
		return nil
	}
	n := s.Disseminate(1, children, "query")
	if n != 4 {
		t.Errorf("dissemination used %d messages, want 4 (one per link)", n)
	}
	for _, node := range nodes[1:] {
		if node.got != 1 {
			t.Errorf("node %d got %d query messages, want 1", node.id, node.got)
		}
	}
	if nodes[0].got != 0 {
		t.Error("root should not receive its own query")
	}
}
