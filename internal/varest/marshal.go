package varest

import (
	"fmt"
	"math"

	"odds/internal/binfmt"
)

// Leader rotation (Section 2 of the paper: the leadership role rotates
// among the nodes of a cell for energy balance) requires handing the
// incumbent's estimation state to its successor. MarshalBinary encodes a
// sketch compactly — header plus four scalars per bucket, the same
// O((1/eps)·log|W|) the sketch occupies in memory.

const marshalMagic = uint32(0x4f445645) // "ODVE"

// bucketBytes is one encoded bucket: first, last, mean, v.
const bucketBytes = 32

// MarshalBinary encodes the sketch.
func (e *Estimator) MarshalBinary() ([]byte, error) {
	w := binfmt.Writer{B: make([]byte, 0, 4+8+8+8+4+bucketBytes*len(e.buckets))}
	w.U32(marshalMagic)
	w.U64(e.w)
	w.F64(e.eps)
	w.U64(e.now)
	w.U32(uint32(len(e.buckets)))
	for _, b := range e.buckets {
		w.U64(b.first)
		w.U64(b.last)
		w.F64(b.mean)
		w.F64(b.v)
	}
	return w.B, nil
}

// UnmarshalEstimator decodes a sketch encoded by MarshalBinary. The
// restored sketch continues exactly where the original stopped.
func UnmarshalEstimator(data []byte) (*Estimator, error) {
	r := binfmt.NewReader(data)
	if r.U32() != marshalMagic {
		return nil, fmt.Errorf("varest: bad sketch magic")
	}
	w := r.U64()
	eps := r.F64()
	now := r.U64()
	nb := r.Count(bucketBytes, math.MaxInt32)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("varest: sketch header: %w", err)
	}
	if w == 0 || w > 1<<40 || !(eps > 0 && eps <= 1) {
		return nil, fmt.Errorf("varest: implausible header (w=%d eps=%v)", w, eps)
	}
	e := New(int(w), eps)
	if nb > e.hardCap {
		return nil, fmt.Errorf("varest: %d buckets exceed the sketch's cap of %d", nb, e.hardCap)
	}
	e.now = now
	e.buckets = make([]bucket, nb)
	var prevLast uint64
	for i := range e.buckets {
		b := bucket{first: r.U64(), last: r.U64(), mean: r.F64(), v: r.F64()}
		if b.first == 0 || b.last < b.first || b.last > now || (i > 0 && b.first != prevLast+1) {
			return nil, fmt.Errorf("varest: bucket %d range [%d,%d] inconsistent", i, b.first, b.last)
		}
		if !(b.v >= 0) || math.IsInf(b.v, 0) || math.IsNaN(b.mean) || math.IsInf(b.mean, 0) {
			return nil, fmt.Errorf("varest: bucket %d moments (mean=%v, v=%v) would poison the estimate", i, b.mean, b.v)
		}
		prevLast = b.last
		e.buckets[i] = b
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("varest: sketch encoding: %w", err)
	}
	return e, nil
}
