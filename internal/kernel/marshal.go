package kernel

import (
	"fmt"
	"math"

	"odds/internal/binfmt"
)

// The Section 9 applications have sensors transmitting their estimator
// models — a parent "can compute the difference between the estimator
// models received from its children, to determine if any of them is
// faulty". MarshalBinary and UnmarshalEstimator provide the wire format:
// a fixed header, the per-dimension bandwidths, then the kernel centers
// with their slot keys, all little-endian. The size is dominated by the
// d·|R| center coordinates, i.e. exactly the O(d|R|) the paper charges
// for a model.

// modelMagic frames an estimator ("ODKM"): the physical layout — slot
// keys, tombstones, prune dimension — is captured verbatim so a restored
// model continues patching bit-identically to the original (and
// re-marshals to the same bytes, which the serving layer's snapshot
// determinism contract relies on).
const modelMagic = uint32(0x4f444b4d)

// MarshaledSize returns the encoded size in bytes.
func (e *Estimator) MarshaledSize() int {
	return 4 + 4 + 4 + 4 + 4 + 8 + 8*e.dim + len(e.dead)*(4+1+8*e.dim)
}

// MarshalBinary encodes the model: header (magic, dim, maxSlots, physN,
// pruneDim), window count, bandwidths, then every physical entry — slot
// key, tombstone flag, coordinates — in layout order, tombstones included
// verbatim.
func (e *Estimator) MarshalBinary() ([]byte, error) {
	if e.mnt.active {
		return nil, fmt.Errorf("kernel: marshal during an open maintenance cycle")
	}
	w := binfmt.Writer{B: make([]byte, 0, e.MarshaledSize())}
	w.U32(modelMagic)
	w.U32(uint32(e.dim))
	w.U32(uint32(e.mnt.maxSlots))
	w.U32(uint32(len(e.dead)))
	w.U32(uint32(int32(e.pruneDim)))
	w.F64(e.wcount)
	w.F64s(e.bw)
	for j, dead := range e.dead {
		w.U32(uint32(e.mnt.slots[j]))
		w.Bool(dead)
		for _, col := range e.cols {
			w.F64(col[j])
		}
	}
	return w.B, nil
}

// UnmarshalEstimator decodes a model encoded by MarshalBinary and
// revalidates the layout invariants the query engine depends on. maxSlots
// is the restoring caller's own slot capacity (its sample size). The
// header alone sizes nothing: the declared slot capacity must fit
// maxSlots and the payload must be exactly physN entries long before
// newMaint allocates its arrays.
func UnmarshalEstimator(data []byte, maxSlots int) (*Estimator, error) {
	fail := func(form string, args ...any) (*Estimator, error) {
		return nil, fmt.Errorf("kernel: "+form, args...)
	}
	r := binfmt.NewReader(data)
	if magic := r.U32(); r.Err() != nil {
		return fail("model encoding: %w", r.Err())
	} else if magic != modelMagic {
		return fail("bad model magic %#x", magic)
	}
	dim := int(r.U32())
	slotCap := int(r.U32())
	physN := int(r.U32())
	pruneDim := int(int32(r.U32()))
	wcount := r.F64()
	if err := r.Err(); err != nil {
		return fail("model header: %w", err)
	}
	if dim <= 0 || dim > 1<<10 {
		return fail("implausible dimensionality %d", dim)
	}
	if slotCap <= 0 || slotCap > maxSlots {
		return fail("slot capacity %d outside (0, %d]", slotCap, maxSlots)
	}
	if pruneDim < -1 || pruneDim >= dim {
		return fail("prune dimension %d out of range", pruneDim)
	}
	if wcount <= 0 || math.IsNaN(wcount) || math.IsInf(wcount, 0) {
		return fail("window count %v must be positive and finite", wcount)
	}
	bw := make([]float64, dim)
	r.F64s(bw)
	for i := range bw {
		bw[i] = clampBandwidth(bw[i])
	}
	if capN := slotCap + tombLimitFor(slotCap); physN <= 0 || physN > capN {
		return fail("physical length %d exceeds capacity %d", physN, capN)
	}
	if r.Len() != physN*(4+1+8*dim) {
		return fail("model payload %d bytes, want %d", r.Len(), physN*(4+1+8*dim))
	}
	e := &Estimator{
		bw:       bw,
		wcount:   wcount,
		dim:      dim,
		pruneDim: pruneDim,
		cols:     make([][]float64, dim),
		mnt:      newMaint(slotCap, dim),
	}
	m := &e.mnt
	e.resize(physN)
	for j := 0; j < physN; j++ {
		slot := int(r.U32())
		if slot >= slotCap {
			return fail("entry %d references slot %d of %d", j, slot, slotCap)
		}
		deadB := r.U8()
		if deadB > 1 {
			return fail("bad tombstone flag")
		}
		m.slots[j] = int32(slot)
		if deadB == 1 {
			m.deadBuf[j] = true
			m.nDead++
		} else {
			if m.posOf[slot] >= 0 {
				return fail("slot %d owned by two live entries", slot)
			}
			m.posOf[slot] = int32(j)
			e.live++
		}
		for _, col := range e.cols {
			col[j] = r.F64()
		}
	}
	if e.live == 0 {
		return fail("model has no live centers")
	}
	if pruneDim >= 0 {
		col := e.cols[pruneDim]
		for j := 1; j < physN; j++ {
			if col[j] < col[j-1] {
				return fail("prune column not sorted")
			}
		}
	}
	e.rescanExtremes()
	return e, nil
}

// Clone returns a deep copy of e through its deterministic binary round
// trip, answering every query bit-identically and sharing no storage.
// Callers that keep a model across its owner's patches (a drift or
// JS-gate reference) keep a Clone. It panics during an open maintenance
// cycle.
func (e *Estimator) Clone() *Estimator {
	blob, err := e.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("kernel: clone: %v", err))
	}
	c, err := UnmarshalEstimator(blob, e.MaxSlots())
	if err != nil {
		// A blob this package just wrote always decodes.
		panic(fmt.Sprintf("kernel: clone: %v", err))
	}
	return c
}
