package sample

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"odds/internal/binfmt"
	"odds/internal/window"
)

// Chain samples are part of the estimation state handed over when a
// cell's leadership rotates (Section 2). MarshalBinary encodes the slots,
// their chains, and the event schedule; the restored sample continues
// with the caller-provided coin source.
//
// The event maps are serialized explicitly — list order included —
// rather than reconstructed from slot state: when several slots' events
// fire at the same arrival, each is assigned one rng draw in list order,
// so the order is part of the deterministic state. A restore that merely
// rebuilt the lists in slot order would permute draw assignment and
// silently diverge from the original stream (the serving layer's
// checkpoint/restore relies on bit-exact continuation). Indexes are
// written in ascending order so encoding is deterministic; per-index
// list order is preserved verbatim, stale entries included.

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
	appendEventMap(&w, c.expireAt)
	appendEventMap(&w, c.wantAt)
	return w.B, nil
}

// appendEventMap encodes an event map with ascending indexes and verbatim
// per-index slot lists.
func appendEventMap(w *binfmt.Writer, m map[uint64][]int) {
	idxs := make([]uint64, 0, len(m))
	for idx := range m {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(a, b int) bool { return idxs[a] < idxs[b] })
	w.U32(uint32(len(idxs)))
	for _, idx := range idxs {
		lst := m[idx]
		w.U64(idx)
		w.U32(uint32(len(lst)))
		for _, s := range lst {
			w.U32(uint32(s))
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
	readEventMap := func(m map[uint64][]int) {
		for e, cnt := 0, r.Count(eventMinBytes, 1<<24); e < cnt && r.Err() == nil; e++ {
			idx := r.U64()
			lst := make([]int, r.Count(4, 1<<24))
			for j := range lst {
				if lst[j] = int(r.U32()); lst[j] >= k {
					r.Fail(fmt.Errorf("event references slot %d of %d", lst[j], k))
				}
			}
			m[idx] = lst
		}
	}
	readEventMap(c.expireAt)
	readEventMap(c.wantAt)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("sample: chain encoding: %w", err)
	}
	return c, nil
}
