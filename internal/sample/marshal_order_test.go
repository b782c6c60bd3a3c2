package sample

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"odds/internal/window"
)

type countingSrc struct {
	src rand.Source64
	n   uint64
}

func (c *countingSrc) Int63() int64   { c.n++; return c.src.Int63() }
func (c *countingSrc) Uint64() uint64 { c.n++; return c.src.Uint64() }
func (c *countingSrc) Seed(s int64)   { c.src.Seed(s); c.n = 0 }

// TestChainRestoreDrawStreamExact pins the chain marshal format's
// strongest guarantee: a restored chain whose rng source is positioned at
// the original's draw count continues bit-exactly — same draws, same
// events, same samples. The subtle part is per-index event order: slots
// whose events fire at the same arrival receive rng draws in scheduling
// order, so the calendars are serialized in that order instead of being
// reconstructed from slot state (reconstruction would permute draw
// assignment and diverge; the serving layer's checkpoint/restore depends
// on this).
func TestChainRestoreDrawStreamExact(t *testing.T) {
	cs := &countingSrc{src: rand.NewSource(77).(rand.Source64)}
	c := NewChain(20, 60, 1, rand.New(cs))
	data := rand.New(rand.NewSource(13))
	p := make(window.Point, 1)
	for i := 0; i < 95; i++ {
		p[0] = data.Float64()
		c.Push(p)
	}
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cs2 := &countingSrc{src: rand.NewSource(77).(rand.Source64)}
	for cs2.n < cs.n {
		cs2.Uint64()
	}
	r, err := UnmarshalChain(blob, rand.New(cs2))
	if err != nil {
		t.Fatal(err)
	}
	// Compare live (effective) events: for each future arrival, which slots
	// would actually act?
	liveWant := func(ch *Chain, idx uint64) []int {
		var out []int
		for _, s := range slotsAt(&ch.want, idx) {
			if ch.slots[s].wantIdx == idx {
				out = append(out, s)
			}
		}
		return out
	}
	liveExp := func(ch *Chain, idx uint64) []int {
		var out []int
		for _, s := range slotsAt(&ch.expire, idx) {
			if sl := ch.slots[s]; sl.sample != nil && sl.sampleIdx+ch.w == idx {
				out = append(out, s)
			}
		}
		return out
	}
	for idx := c.n + 1; idx <= c.n+c.w; idx++ {
		if a, b := liveWant(c, idx), liveWant(r, idx); !slices.Equal(a, b) {
			t.Errorf("capture events at %d: live %v restored %v", idx, a, b)
		}
		if a, b := liveExp(c, idx), liveExp(r, idx); !slices.Equal(a, b) {
			t.Errorf("expiry events at %d: live %v restored %v", idx, a, b)
		}
	}
	// Also: continue both and find first draw divergence.
	d1 := rand.New(rand.NewSource(99))
	d2 := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		arrival := c.n + 1
		// Capture pending events for this arrival before pushing.
		dump := func(ch *Chain, label string) []string {
			var out []string
			for _, s := range slotsAt(&ch.expire, arrival) {
				sl := ch.slots[s]
				out = append(out, fmt.Sprintf("%s expiry at %d: slot %d sampleIdx=%d live=%v chainLen=%d",
					label, arrival, s, sl.sampleIdx, sl.sample != nil && sl.sampleIdx+ch.w == arrival, len(sl.chain)))
			}
			for _, s := range slotsAt(&ch.want, arrival) {
				sl := ch.slots[s]
				out = append(out, fmt.Sprintf("%s capture at %d: slot %d wantIdx=%d live=%v sampleNil=%v",
					label, arrival, s, sl.wantIdx, sl.wantIdx == arrival, sl.sample == nil))
			}
			return out
		}
		pre := append(dump(c, "live"), dump(r, "restored")...)
		n1, n2 := cs.n, cs2.n
		p[0] = d1.Float64()
		c.Push(p)
		p[0] = d2.Float64()
		r.Push(p)
		if cs.n-n1 != cs2.n-n2 {
			for _, l := range pre {
				t.Log(l)
			}
			t.Fatalf("step %d (arrival %d): draw delta live %d restored %d", i, arrival, cs.n-n1, cs2.n-n2)
		}
	}
}
