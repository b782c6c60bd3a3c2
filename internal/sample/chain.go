// Package sample implements the stream sampling the paper's estimation
// framework builds on: chain sampling over sliding windows (Babcock,
// Datar, Motwani [4]) for the per-sensor sample R of the current window.
// It has no reservoir sampler: the global MGDD replica replaces a random
// slot per pushed update itself (core.GlobalModel.Update).
package sample

import (
	"fmt"
	"math"
	"math/rand"

	"odds/internal/window"
)

// chainEntry is one element of a slot's replacement chain: a stored future
// value together with its arrival index.
type chainEntry struct {
	idx uint64
	val window.Point
}

// slot is one independent chain-sample maintaining a single uniform sample
// of the last |W| stream items. When the current sample expires, the head
// of the chain replaces it; the chain is extended whenever the awaited
// successor index arrives.
type slot struct {
	sampleIdx uint64
	sample    window.Point
	chain     []chainEntry
	wantIdx   uint64 // arrival index of the next successor to capture
}

// Chain maintains a with-replacement uniform sample of size k over a
// count-based sliding window of capacity |W|, as |R| independent chains.
// Expected memory is O(k) stored points (the paper's Theorem 1 charges
// O(d|R|) for this component).
//
// Push costs O(1) per arrival plus O(log E) per event, for E pending
// events: the per-slot adoption coins are drawn with geometric
// skip-sampling (one draw per adopting slot instead of one per slot), and
// expiry/successor events wait in two calendars (min-heaps by arrival
// index) whose top alone is checked at each arrival, so only the slots
// with an event at the current arrival are touched.
//
// A Chain is single-goroutine-owned (it owns an rng and mutates on
// Push); the parallel evaluation harness keeps each sensor's chain on
// that sensor's index.
type Chain struct {
	slots []slot
	w     uint64 // window capacity
	dim   int
	n     uint64 // arrivals so far
	rng   *rand.Rand

	expire calendar // slots whose sample expires, by arrival index
	want   calendar // slots awaiting a successor, by arrival index

	// Recycling mode (EnableRecycling): dead points return to a free pool
	// instead of the garbage collector, making steady-state Push
	// allocation-free. Off by default because recycled point storage is
	// mutated in place: callers that let sample points escape (MGDD
	// refresh batches ride in delayed messages) must keep the default
	// drop-on-expiry behavior.
	recycle bool
	freePts []window.Point

	// Change tracking: slots whose current sample changed — adoption,
	// expiry promotion, going empty, or a direct successor capture —
	// accumulate in a dedup set drained by DrainChangedSlots. The kernel
	// model is patched in exactly these slots. Both buffers are sized once
	// in NewChain, so the steady-state Push path stays allocation-free; an
	// undrained set stays bounded by Size.
	changed    []int32
	changedSet []bool
}

// markChanged records that slot s's current sample changed.
func (c *Chain) markChanged(s int) {
	if c.changedSet[s] {
		return
	}
	c.changedSet[s] = true
	c.changed = append(c.changed, int32(s))
}

// DrainChangedSlots moves the accumulated changed-slot set into the
// caller's dedup set (set[s] true when slot s is already pending) and
// list, returning the extended list. The chain's own set is left empty,
// so a marshal after a drain carries no tracking state to re-encode.
func (c *Chain) DrainChangedSlots(list []int32, set []bool) []int32 {
	for _, s := range c.changed {
		c.changedSet[s] = false
		if !set[s] {
			set[s] = true
			list = append(list, s)
		}
	}
	c.changed = c.changed[:0]
	return list
}

// SampleAt returns slot s's current sample (nil while the slot is
// momentarily empty). The point is shared; callers must not mutate it.
func (c *Chain) SampleAt(s int) window.Point { return c.slots[s].sample }

// Occupied returns the number of slots currently holding a sample.
func (c *Chain) Occupied() int {
	n := 0
	for s := range c.slots {
		if c.slots[s].sample != nil {
			n++
		}
	}
	return n
}

// EnableRecycling switches the chain to pooled storage: expired points
// are reused by later arrivals. The sampled state and every rng draw are
// identical with recycling on or off — only the ownership of dead storage
// changes. Points returned by Points become invalid once a subsequent
// Push recycles them, so callers must copy anything they keep (the kernel
// model deep-copies its centers).
//
// Call it before the first Push or directly after UnmarshalChain (decoded
// points are uniquely owned). Enabling it later is unsafe: pre-recycling
// arrivals may share one clone across slots, and a shared point must not
// enter the free pool twice.
func (c *Chain) EnableRecycling() { c.recycle = true }

// release returns a dead point to the free pool in recycling mode.
func (c *Chain) release(p window.Point) {
	if c.recycle && p != nil {
		c.freePts = append(c.freePts, p)
	}
}

// NewChain returns a chain sample of size k over windows of capacity wcap,
// for dim-dimensional points, drawing randomness from rng. It panics on
// non-positive sizes, matching the window package's contract.
func NewChain(k, wcap, dim int, rng *rand.Rand) *Chain {
	if k <= 0 {
		panic(fmt.Sprintf("sample: size %d must be positive", k))
	}
	if wcap <= 0 {
		panic(fmt.Sprintf("sample: window capacity %d must be positive", wcap))
	}
	if dim <= 0 {
		panic(fmt.Sprintf("sample: dim %d must be positive", dim))
	}
	if rng == nil {
		panic("sample: nil rng")
	}
	return &Chain{
		slots:      make([]slot, k),
		w:          uint64(wcap),
		dim:        dim,
		rng:        rng,
		changed:    make([]int32, 0, k),
		changedSet: make([]bool, k),
	}
}

// Size returns k, the number of sample slots.
func (c *Chain) Size() int { return len(c.slots) }

// WindowCap returns |W|, the window capacity the sample tracks.
func (c *Chain) WindowCap() int { return int(c.w) }

// Dim returns the dimensionality of sampled points.
func (c *Chain) Dim() int { return c.dim }

// Seen returns the number of arrivals pushed so far.
func (c *Chain) Seen() uint64 { return c.n }

// drawWant schedules slot s to capture a successor drawn uniformly from
// the window following arrival i.
func (c *Chain) drawWant(s int, i uint64) {
	sl := &c.slots[s]
	sl.wantIdx = i + 1 + uint64(c.rng.Int63n(int64(c.w)))
	c.want.add(sl.wantIdx, s)
}

// Push feeds the next stream value and reports whether it was adopted as
// the current sample of at least one slot. The D3 leaf process uses that
// signal to decide whether to propagate the value to its parent (Figure 4,
// line 14). The point is cloned at most once. It costs O(1) plus
// O(log E) for each event it pops or schedules, E events pending.
func (c *Chain) Push(p window.Point) bool {
	if len(p) != c.dim {
		panic(fmt.Sprintf("sample: point dim %d, sample dim %d", len(p), c.dim))
	}
	c.n++
	i := c.n
	// Without recycling, every structure capturing this arrival shares one
	// clone (the "cloned at most once" contract above). With recycling each
	// capture gets its own pooled copy, so expiry can return storage to the
	// free pool without reference-counting shared clones.
	var clone window.Point
	cloneOf := func() window.Point {
		if c.recycle {
			var cp window.Point
			if n := len(c.freePts); n > 0 {
				cp = c.freePts[n-1]
				c.freePts[n-1] = nil
				c.freePts = c.freePts[:n-1]
			} else {
				cp = make(window.Point, c.dim)
			}
			copy(cp, p)
			return cp
		}
		if clone == nil {
			clone = p.Clone()
		}
		return clone
	}

	// 1. Expiries scheduled for this arrival: the chained successor
	// (guaranteed unexpired) takes over; a slot with no captured successor
	// yet goes empty until its awaited arrival comes.
	// Every event scheduled while handling arrival i lands after i, so the
	// loop sees exactly the events pending when the arrival came.
	for c.expire.due(i) {
		s := c.expire.pop()
		sl := &c.slots[s]
		if sl.sample == nil || sl.sampleIdx+c.w != i {
			continue // stale event from a superseded sample
		}
		c.markChanged(s) // promotion or going empty: the sample changes
		c.release(sl.sample)
		if len(sl.chain) > 0 {
			head := sl.chain[0]
			copy(sl.chain, sl.chain[1:])
			sl.chain = sl.chain[:len(sl.chain)-1]
			sl.sampleIdx, sl.sample = head.idx, head.val
			c.expire.add(head.idx+c.w, s)
		} else {
			sl.sample = nil
		}
	}
	c.expire.fit()

	// 2. Successor captures scheduled for this arrival: append to the
	// chain (or, for a slot that went empty, become the sample directly)
	// and draw the next successor.
	for c.want.due(i) {
		s := c.want.pop()
		sl := &c.slots[s]
		if sl.wantIdx != i {
			continue // stale event
		}
		if sl.sample == nil {
			c.markChanged(s) // direct capture into an empty slot
			sl.sampleIdx, sl.sample = i, cloneOf()
			c.expire.add(i+c.w, s)
		} else {
			sl.chain = append(sl.chain, chainEntry{idx: i, val: cloneOf()})
		}
		c.drawWant(s, i)
	}
	c.want.fit()

	// 3. Adoptions: each slot takes the new arrival as its sample with
	// probability 1/min(i,|W|), sampled via geometric skips.
	included := false
	adopt := func(s int) {
		sl := &c.slots[s]
		c.markChanged(s)
		c.release(sl.sample)
		for j := range sl.chain {
			c.release(sl.chain[j].val)
			sl.chain[j].val = nil
		}
		sl.sampleIdx, sl.sample = i, cloneOf()
		sl.chain = sl.chain[:0]
		c.expire.add(i+c.w, s)
		c.drawWant(s, i)
		included = true
	}
	denom := i
	if denom > c.w {
		denom = c.w
	}
	if denom == 1 {
		for s := range c.slots {
			adopt(s)
		}
		return included
	}
	pAdopt := 1 / float64(denom)
	lg := math.Log1p(-pAdopt)
	for j := 0; ; j++ {
		u := c.rng.Float64()
		if u <= 0 {
			u = math.SmallestNonzeroFloat64
		}
		j += int(math.Log(u) / lg)
		if j >= len(c.slots) {
			break
		}
		adopt(j)
	}
	return included
}

// Points returns the current sample values. Slots that are momentarily
// empty (expired with no successor captured yet) are skipped, so the
// result may be shorter than Size. The returned points are shared; callers
// must not mutate them.
func (c *Chain) Points() []window.Point {
	out := make([]window.Point, 0, len(c.slots))
	for s := range c.slots {
		if c.slots[s].sample != nil {
			out = append(out, c.slots[s].sample)
		}
	}
	return out
}

// StoredPoints returns the actual number of points held across all slots
// and chains. The memory experiment (Section 10.3) compares this against
// the theoretical bound.
func (c *Chain) StoredPoints() int {
	n := 0
	for s := range c.slots {
		if c.slots[s].sample != nil {
			n++
		}
		n += len(c.slots[s].chain)
	}
	return n
}

// MemoryBytes returns the storage footprint in bytes under the paper's
// 16-bit architecture assumption (2 bytes per number).
func (c *Chain) MemoryBytes() int {
	return c.StoredPoints() * c.dim * 2
}
