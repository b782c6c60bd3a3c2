package sample

// White-box tests for the chain's stale-event paths. Expiry and capture
// events are indexed by arrival; when a slot's sample is superseded (a
// fresh adoption resets the slot), events scheduled for the old sample
// remain in the calendars and must be recognized as stale when they fire.
// These paths are rare under random drive, so the tests construct the
// exact slot states directly.

import (
	"math/rand"
	"slices"
	"testing"

	"odds/internal/window"
)

// zeroSource makes every coin deterministic: Float64 becomes 0 (clamped
// to the smallest positive float by Push, giving a geometric skip far
// past every slot — no adoptions), and Int63n returns 0 (successor draws
// land on the immediately next arrival).
type zeroSource struct{}

func (zeroSource) Int63() int64 { return 0 }
func (zeroSource) Seed(int64)   {}

func zeroRng() *rand.Rand { return rand.New(zeroSource{}) }

// TestChainExpiryWithEmptyChainRefills walks the slot-goes-empty path:
// a sample expires before any successor was captured, the slot reports
// no points, and the next capture event refills it as the sample
// directly (not as a chain entry).
func TestChainExpiryWithEmptyChainRefills(t *testing.T) {
	c := NewChain(1, 10, 1, zeroRng())
	c.n = 10
	sl := &c.slots[0]
	sl.sampleIdx, sl.sample = 1, window.Point{0.5}
	sl.chain = nil
	sl.wantIdx = 12
	c.expire.add(11, 0)
	c.want.add(12, 0)

	// Arrival 11: the sample expires with nothing chained — slot empties.
	if c.Push(window.Point{0.1}) {
		t.Error("arrival 11 reported adoption under a no-adopt rng")
	}
	if sl.sample != nil {
		t.Fatalf("sample survived its expiry: %v", sl.sample)
	}
	if got := len(c.Points()); got != 0 {
		t.Fatalf("empty slot still reported %d points", got)
	}
	if c.StoredPoints() != 0 {
		t.Errorf("StoredPoints = %d, want 0", c.StoredPoints())
	}

	// Arrival 12: the awaited successor arrives and becomes the sample
	// directly (the sample==nil branch). Capture is not an adoption coin,
	// so Push still reports false — propagation triggers only on fresh
	// adoptions.
	if c.Push(window.Point{0.9}) {
		t.Error("capture refill reported as adoption")
	}
	if sl.sample == nil || sl.sample[0] != 0.9 || sl.sampleIdx != 12 {
		t.Fatalf("slot not refilled: idx=%d sample=%v", sl.sampleIdx, sl.sample)
	}
	if !slices.Contains(slotsAt(&c.expire, 22), 0) {
		t.Error("refilled sample has no expiry scheduled at 12+w")
	}

	// Arrival 13 (wantIdx drawn as 13 by the zero rng): with a live
	// sample the capture appends to the chain instead.
	c.Push(window.Point{0.7})
	if len(sl.chain) != 1 || sl.chain[0].idx != 13 || sl.chain[0].val[0] != 0.7 {
		t.Fatalf("chain after live-sample capture = %+v", sl.chain)
	}
}

// TestChainStaleExpiryIgnored fires an expiry event left behind by a
// superseded sample: the slot's current sample (a later adoption) must
// survive, for both the sampleIdx mismatch and the empty-slot variants.
func TestChainStaleExpiryIgnored(t *testing.T) {
	c := NewChain(2, 10, 1, zeroRng())
	c.n = 10
	// Slot 0: readopted at arrival 5, so the event at 11 (scheduled by a
	// sample from arrival 1) is stale — 5+10 != 11.
	s0 := &c.slots[0]
	s0.sampleIdx, s0.sample = 5, window.Point{0.4}
	s0.wantIdx = 20
	// Slot 1: empty (expired earlier); a stale event fires into it too.
	s1 := &c.slots[1]
	s1.sampleIdx, s1.sample = 0, nil
	s1.wantIdx = 20
	c.expire.add(11, 0)
	c.expire.add(11, 1)

	c.Push(window.Point{0.1})
	if s0.sample == nil || s0.sample[0] != 0.4 || s0.sampleIdx != 5 {
		t.Errorf("stale expiry evicted a live sample: idx=%d sample=%v", s0.sampleIdx, s0.sample)
	}
	if s1.sample != nil {
		t.Errorf("stale expiry resurrected an empty slot: %v", s1.sample)
	}
	if left := slotsAt(&c.expire, 11); len(left) > 0 {
		t.Errorf("fired expiry events %v still pending", left)
	}
}

// TestChainStaleWantIgnored fires a capture event whose slot has since
// been rescheduled (wantIdx moved by a readoption): the chain must not
// grow and the pending draw must stay pending.
func TestChainStaleWantIgnored(t *testing.T) {
	c := NewChain(1, 10, 1, zeroRng())
	c.n = 10
	sl := &c.slots[0]
	sl.sampleIdx, sl.sample = 8, window.Point{0.6}
	sl.wantIdx = 15 // the live draw
	c.want.add(11, 0)
	c.want.add(15, 0)

	c.Push(window.Point{0.2})
	if len(sl.chain) != 0 {
		t.Errorf("stale capture appended to chain: %+v", sl.chain)
	}
	if sl.wantIdx != 15 {
		t.Errorf("stale capture rescheduled wantIdx to %d", sl.wantIdx)
	}

	// Advance to arrival 15: the live capture appends and redraws.
	for i := 0; i < 4; i++ {
		c.Push(window.Point{0.3})
	}
	if len(sl.chain) != 1 || sl.chain[0].idx != 15 {
		t.Fatalf("live capture missing: chain=%+v", sl.chain)
	}
	if sl.wantIdx != 16 {
		t.Errorf("redraw after capture gave wantIdx=%d, want 16", sl.wantIdx)
	}
}

// TestChainAdoptionSupersedesEvents checks the origin of staleness: a
// fresh adoption clears the chain and schedules new events while the old
// ones stay behind in the calendars, which the guards must then skip — the
// end-to-end loop the targeted tests above pin piecewise.
func TestChainAdoptionSupersedesEvents(t *testing.T) {
	c := NewChain(1, 10, 1, rand.New(rand.NewSource(42)))
	sl := &c.slots[0]
	for i := 0; i < 5000; i++ {
		c.Push(window.Point{float64(i%97) / 97})
		if sl.sample == nil {
			continue
		}
		if sl.sampleIdx+c.w <= c.n {
			t.Fatalf("arrival %d: sample from %d outlived the window", c.n, sl.sampleIdx)
		}
		for j := 1; j < len(sl.chain); j++ {
			if sl.chain[j-1].idx >= sl.chain[j].idx {
				t.Fatalf("chain indexes out of order: %+v", sl.chain)
			}
		}
		if len(sl.chain) > 0 && sl.chain[0].idx <= sl.sampleIdx {
			t.Fatalf("chained successor predates sample: %+v vs %d", sl.chain, sl.sampleIdx)
		}
	}
}
