package sample

import (
	"fmt"
	"math"
	"math/rand"

	"odds/internal/binfmt"
	"odds/internal/window"
)

// Chain samples are part of the estimation state handed over when a
// cell's leadership rotates (Section 2). MarshalBinary encodes the slots,
// their chains, and the event schedule; the restored sample continues
// with the caller-provided coin source.
//
// The two event calendars are serialized explicitly — per-index order
// included — rather than reconstructed from slot state: when several
// slots' events fire at the same arrival, each is assigned one rng draw
// in scheduling order, so the order is part of the deterministic state. A
// restore that merely rebuilt the events in slot order would permute draw
// assignment and silently diverge from the original stream (the serving
// layer's checkpoint/restore relies on bit-exact continuation).
//
// Each calendar is written as an event map: its distinct indexes in
// ascending order, each with the slots scheduled there in sequence order,
// stale entries included. These are the bytes the chain wrote when its
// schedule was a hash map of slot lists; the format is unchanged.
// Decoding adds the events in the order it reads them, which restores the
// per-index order, and refuses what no encoder writes: an index not after
// the stream position or more than one window past it, an index not above
// the one before it, and an empty list. A calendar would act on the first
// of these: an index already passed sits at its top for good and blocks
// every later event.

const marshalMagic = uint32(0x4f445342) // "ODSB"

// Smallest encodings, which bound the header's counts by the bytes that
// follow them: an empty slot is its flag, awaited index and chain length.
const (
	slotMinBytes  = 4 + 8 + 4
	eventMinBytes = 8 + 4
)

// maxChainWindow is the largest window a decoded chain may declare. Push
// skips -ln(u)·min(i, w) slots for a uniform u ≥ 2⁻¹⁰⁷⁴, at most
// 745·w, and that must fit an int.
const maxChainWindow = 1 << 53

// MarshalBinary encodes the sample.
func (c *Chain) MarshalBinary() ([]byte, error) {
	w := binfmt.Writer{B: make([]byte, 0, 64+len(c.slots)*(32+c.dim*8))}
	w.U32(marshalMagic)
	w.U32(uint32(len(c.slots)))
	w.U64(c.w)
	w.U32(uint32(c.dim))
	w.U64(c.n)
	for i := range c.slots {
		sl := &c.slots[i]
		if sl.sample != nil {
			w.U32(1)
			w.U64(sl.sampleIdx)
			w.F64s(sl.sample)
		} else {
			w.U32(0)
		}
		w.U64(sl.wantIdx)
		w.U32(uint32(len(sl.chain)))
		for _, ce := range sl.chain {
			w.U64(ce.idx)
			w.F64s(ce.val)
		}
	}
	appendCalendar(&w, &c.expire)
	appendCalendar(&w, &c.want)
	return w.B, nil
}

// appendCalendar encodes a calendar as an event map: ascending indexes,
// each with its slots in scheduling order.
func appendCalendar(w *binfmt.Writer, c *calendar) {
	ev := c.sorted()
	idxs := 0
	for j := range ev {
		if j == 0 || ev[j].idx != ev[j-1].idx {
			idxs++
		}
	}
	w.U32(uint32(idxs))
	for j := 0; j < len(ev); {
		end := j + 1
		for end < len(ev) && ev[end].idx == ev[j].idx {
			end++
		}
		w.U64(ev[j].idx)
		w.U32(uint32(end - j))
		for ; j < end; j++ {
			w.U32(uint32(ev[j].slot))
		}
	}
}

// UnmarshalChain decodes a sample encoded by MarshalBinary, attaching the
// given random source for future coin flips. Every count in the encoding
// (slots, chain entries, event-map entries, event-list entries) is
// admitted only if that many smallest-possible elements fit in the bytes
// that remain, so the decoder never allocates more than a small multiple
// of len(data).
func UnmarshalChain(data []byte, rng *rand.Rand) (*Chain, error) {
	if rng == nil {
		return nil, fmt.Errorf("sample: nil rng")
	}
	r := binfmt.NewReader(data)
	if r.U32() != marshalMagic {
		return nil, fmt.Errorf("sample: bad chain magic")
	}
	k := r.Count(slotMinBytes, 1<<24)
	w := r.U64()
	dim := int(r.U32())
	n := r.U64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("sample: chain header: %w", err)
	}
	if k <= 0 || dim <= 0 || dim > 1<<10 || w == 0 || w > maxChainWindow {
		return nil, fmt.Errorf("sample: implausible chain header (k=%d dim=%d w=%d)", k, dim, w)
	}
	// Every index Push derives from the blob's positions (idx + w, and
	// i + 1 + a draw below w) must fit an int64, or it wraps and the next
	// arrival indexes a slot out of range.
	if n > math.MaxInt64-w {
		return nil, fmt.Errorf("sample: stream position %d overflows window arithmetic (w=%d)", n, w)
	}
	c := NewChain(k, int(w), dim, rng)
	c.n = n
	readPoint := func() window.Point {
		p := make(window.Point, dim)
		r.F64s(p)
		return p
	}
	for i := 0; i < k && r.Err() == nil; i++ {
		sl := &c.slots[i]
		if r.U32() == 1 {
			sl.sampleIdx = r.U64()
			sl.sample = readPoint()
			if r.Err() == nil && (sl.sampleIdx > n || sl.sampleIdx+w <= n) {
				r.Fail(fmt.Errorf("slot %d index %d inconsistent with stream position %d", i, sl.sampleIdx, n))
			}
		}
		sl.wantIdx = r.U64()
		for j, nc := 0, r.Count(8+8*dim, 1<<20); j < nc; j++ {
			idx := r.U64()
			if idx > n {
				r.Fail(fmt.Errorf("slot %d successor index %d beyond stream position %d", i, idx, n))
			}
			sl.chain = append(sl.chain, chainEntry{idx: idx, val: readPoint()})
		}
	}
	readCalendar := func(cal *calendar) {
		prev := n
		for e, cnt := 0, r.Count(eventMinBytes, 1<<24); e < cnt && r.Err() == nil; e++ {
			idx := r.U64()
			switch {
			case idx <= n || idx > n+w:
				r.Fail(fmt.Errorf("event index %d outside the window after stream position %d (w=%d)", idx, n, w))
			case idx <= prev:
				r.Fail(fmt.Errorf("event index %d not above the previous index %d", idx, prev))
			}
			prev = idx
			m := r.Count(4, 1<<24)
			if m == 0 {
				r.Fail(fmt.Errorf("empty event list at index %d", idx))
			}
			for j := 0; j < m && r.Err() == nil; j++ {
				s := int(r.U32())
				if s >= k {
					r.Fail(fmt.Errorf("event references slot %d of %d", s, k))
				}
				cal.add(idx, s)
			}
		}
	}
	readCalendar(&c.expire)
	readCalendar(&c.want)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("sample: chain encoding: %w", err)
	}
	return c, nil
}
