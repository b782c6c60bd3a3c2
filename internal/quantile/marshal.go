package quantile

import (
	"fmt"
	"math"

	"odds/internal/binfmt"
)

// Binary codec for GK summaries. The encoding captures the summary
// mid-stream — tuples AND the un-flushed pending buffer — so a restored
// summary is bit-identical to the original: subsequent inserts hit the
// same flush boundaries, produce the same tuple structure, and answer
// every query with the same value. (Encoding only the flushed form would
// be rank-equivalent but not bit-equivalent: flushing early shifts every
// later batch boundary.)
//
// Layout (little-endian):
//
//	u32 magic "ODGK"
//	f64 eps
//	u64 n
//	u32 tuple count, then per tuple: f64 v, u64 g, u64 d
//	u32 pending count, then f64 per pending value
const gkMagic = uint32(0x4f44474b) // "ODGK"

// MarshalBinary encodes the summary, pending buffer included.
func (s *GK) MarshalBinary() ([]byte, error) {
	w := binfmt.Writer{B: make([]byte, 0, 16+24*len(s.tuples)+8*len(s.pending))}
	w.U32(gkMagic)
	w.F64(s.eps)
	w.U64(uint64(s.n))
	w.U32(uint32(len(s.tuples)))
	for _, t := range s.tuples {
		w.F64(t.v)
		w.U64(uint64(t.g))
		w.U64(uint64(t.d))
	}
	w.U32(uint32(len(s.pending)))
	w.F64s(s.pending)
	return w.B, nil
}

// UnmarshalGK decodes a summary encoded by MarshalBinary.
func UnmarshalGK(data []byte) (*GK, error) {
	fail := func(msg string) (*GK, error) { return nil, fmt.Errorf("quantile: unmarshal: %s", msg) }
	r := binfmt.NewReader(data)
	if r.U32() != gkMagic {
		return fail("bad magic")
	}
	eps := r.F64()
	n64 := r.U64()
	nt := r.Count(24, math.MaxInt32)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("quantile: unmarshal: header: %w", err)
	}
	if !(eps > 0 && eps <= 0.5) {
		return fail("eps outside (0, 0.5]")
	}
	if n64 > uint64(math.MaxInt32) {
		return fail("bad n")
	}
	s := New(eps)
	s.n = int(n64)
	sum := 0
	s.tuples = make([]tuple, nt)
	for i := range s.tuples {
		v, g, d := r.F64(), r.U64(), r.U64()
		if math.IsNaN(v) || g == 0 || g > n64 || d > n64 {
			return fail("invalid tuple")
		}
		if i > 0 && v < s.tuples[i-1].v {
			return fail("tuples out of order")
		}
		s.tuples[i] = tuple{v: v, g: int(g), d: int(d)}
		sum += int(g)
	}
	if sum != s.n {
		return fail("tuple ranks do not cover n")
	}
	s.pending = make([]float64, r.Count(8, math.MaxInt32))
	r.F64s(s.pending)
	for _, x := range s.pending {
		if math.IsNaN(x) {
			return fail("NaN pending value")
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("quantile: unmarshal: %w", err)
	}
	return s, nil
}

// Grow pre-allocates capacity for about n summary tuples (plus matching
// flush scratch and pending headroom), so a summary whose steady-state
// size is known in advance never allocates on the insert path — the
// detector hot paths assert zero allocations per reading.
func (s *GK) Grow(n int) {
	if cap(s.tuples) < n {
		t := make([]tuple, len(s.tuples), n)
		copy(t, s.tuples)
		s.tuples = t
	}
	if cap(s.scratch) < n {
		s.scratch = make([]tuple, 0, n)
	}
	if b := s.batch * 2; cap(s.pending) < b {
		p := make([]float64, len(s.pending), b)
		copy(p, s.pending)
		s.pending = p
	}
}

// MemoryBytes reports the summary's current in-memory footprint (tuples
// plus pending buffer) without flushing — unlike Tuples/MemoryNumbers it
// never mutates the summary, so stats paths can call it concurrently
// with nothing and deterministically between identical twins.
func (s *GK) MemoryBytes() int {
	return 24*len(s.tuples) + 8*len(s.pending)
}
