package sample

import "slices"

// event is one calendar entry: slot acts at arrival idx. seq is the
// calendar's scheduling counter at the time the event was added, so
// events sharing an index keep the order they were scheduled in.
type event struct {
	idx  uint64
	seq  uint64
	slot int32
}

func (a event) before(b event) bool {
	return a.idx < b.idx || (a.idx == b.idx && a.seq < b.seq)
}

// calendar is a chain's schedule of one event kind (expiry or successor
// capture): a binary min-heap ordered by (arrival index, scheduling
// sequence). Push only ever asks for the events of the current arrival,
// which sit at the top, so an arrival with no event costs one comparison
// and each event O(log E) for E pending. Stale events (scheduled for a
// sample or draw since superseded) stay until their index comes: Push
// skips them there, and the marshaled schedule carries them, because
// their place among an index's events decides which slot gets which
// rng draw.
type calendar struct {
	ev  []event
	seq uint64
}

// minCalendarCap is the capacity below which fit never shrinks: tiny
// calendars would otherwise reallocate on every swing of a few events.
const minCalendarCap = 64

// add schedules slot s at arrival idx, after every event already
// scheduled there.
func (c *calendar) add(idx uint64, s int) {
	c.ev = append(c.ev, event{idx: idx, seq: c.seq, slot: int32(s)})
	c.seq++
	// Sift up.
	ev := c.ev
	j := len(ev) - 1
	e := ev[j]
	for j > 0 {
		p := (j - 1) / 2
		if !e.before(ev[p]) {
			break
		}
		ev[j] = ev[p]
		j = p
	}
	ev[j] = e
}

// due reports whether the earliest pending event is at arrival idx.
func (c *calendar) due(idx uint64) bool {
	return len(c.ev) > 0 && c.ev[0].idx == idx
}

// pop removes the earliest event and returns its slot.
func (c *calendar) pop() int {
	ev := c.ev
	s := int(ev[0].slot)
	n := len(ev) - 1
	e := ev[n]
	ev = ev[:n]
	c.ev = ev
	if n == 0 {
		return s
	}
	// Sift the former last element down from the root.
	j := 0
	for {
		l := 2*j + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && ev[r].before(ev[l]) {
			l = r
		}
		if !ev[l].before(e) {
			break
		}
		ev[j] = ev[l]
		j = l
	}
	ev[j] = e
	return s
}

// fit drops the backing array's slack once fewer than half of it is in
// use, keeping a quarter of headroom: the first |W| arrivals adopt at
// probability 1/i, so the schedule peaks early and must not keep that
// peak for the chain's lifetime.
func (c *calendar) fit() {
	if n := len(c.ev); cap(c.ev) > minCalendarCap && 2*n < cap(c.ev) {
		c.ev = append(make([]event, 0, n+n/4), c.ev...)
	}
}

// sorted returns a copy of the pending events in (index, sequence) order:
// ascending arrival, and per arrival the order Push will act on them.
func (c *calendar) sorted() []event {
	out := slices.Clone(c.ev)
	slices.SortFunc(out, func(a, b event) int {
		switch {
		case a.before(b):
			return -1
		case b.before(a):
			return 1
		}
		return 0
	})
	return out
}
