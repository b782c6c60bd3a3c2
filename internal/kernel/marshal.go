package kernel

import (
	"fmt"
	"math"

	"odds/internal/binfmt"
	"odds/internal/window"
)

// The Section 9 applications have sensors transmitting their estimator
// models — a parent "can compute the difference between the estimator
// models received from its children, to determine if any of them is
// faulty". MarshalBinary and UnmarshalEstimator provide the wire format:
// a fixed header (magic, dimensionality, window count), the per-dimension
// bandwidths, then the kernel centers, all little-endian float64. The
// size is dominated by the d·|R| center coordinates, i.e. exactly the
// O(d|R|) the paper charges for a model.

const (
	marshalMagic = uint32(0x4f444453) // "ODDS": immutable estimator
	// maintainedMagic frames a maintained estimator: the physical layout —
	// slot keys, tombstones, prune dimension — is captured verbatim so a
	// restored model continues patching bit-identically to the original
	// (and re-marshals to the same bytes, which the serving layer's
	// snapshot determinism contract relies on).
	maintainedMagic = uint32(0x4f444b4d) // "ODKM"
)

// MarshaledSize returns the encoded size in bytes.
func (e *Estimator) MarshaledSize() int {
	if e.mnt != nil {
		return 4 + 4 + 4 + 4 + 4 + 8 + 8*e.dim + len(e.centers)*(4+1+8*e.dim)
	}
	return 4 + 4 + 8 + 8*e.dim + 4 + 8*e.dim*len(e.centers)
}

// MarshalBinary encodes the model.
func (e *Estimator) MarshalBinary() ([]byte, error) {
	if e.mnt != nil {
		return e.marshalMaintained()
	}
	w := binfmt.Writer{B: make([]byte, 0, e.MarshaledSize())}
	w.U32(marshalMagic)
	w.U32(uint32(e.dim))
	w.F64(e.wcount)
	w.F64s(e.bw)
	w.U32(uint32(len(e.centers)))
	for _, c := range e.centers {
		w.F64s(c)
	}
	return w.B, nil
}

// marshalMaintained encodes the maintained wire format: header (magic,
// dim, maxSlots, physN, pruneDim), window count, bandwidths, then every
// physical entry — slot key, tombstone flag, coordinates — in layout
// order, tombstones included verbatim.
func (e *Estimator) marshalMaintained() ([]byte, error) {
	if e.mnt.active {
		return nil, fmt.Errorf("kernel: marshal during an open maintenance cycle")
	}
	w := binfmt.Writer{B: make([]byte, 0, e.MarshaledSize())}
	w.U32(maintainedMagic)
	w.U32(uint32(e.dim))
	w.U32(uint32(e.mnt.maxSlots))
	w.U32(uint32(len(e.centers)))
	w.U32(uint32(int32(e.pruneDim)))
	w.F64(e.wcount)
	w.F64s(e.bw)
	for j, c := range e.centers {
		w.U32(uint32(e.mnt.slots[j]))
		w.Bool(e.dead[j])
		w.F64s(c)
	}
	return w.B, nil
}

// unmarshalMaintained decodes the maintained wire format (magic already
// consumed) and revalidates the layout invariants the query engine
// depends on. The header alone sizes nothing: the declared slot capacity
// must fit the caller's maxSlots and the payload must be exactly physN
// entries long before newMaint allocates its arrays.
func unmarshalMaintained(r *binfmt.Reader, maxSlots int) (*Estimator, error) {
	fail := func(form string, args ...any) (*Estimator, error) {
		return nil, fmt.Errorf("kernel: "+form, args...)
	}
	dim := int(r.U32())
	slotCap := int(r.U32())
	physN := int(r.U32())
	pruneDim := int(int32(r.U32()))
	wcount := r.F64()
	if err := r.Err(); err != nil {
		return fail("maintained model header: %w", err)
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
		return fail("maintained payload %d bytes, want %d", r.Len(), physN*(4+1+8*dim))
	}
	m := newMaint(slotCap, dim)
	e := &Estimator{
		bw:       bw,
		wcount:   wcount,
		dim:      dim,
		pruneDim: pruneDim,
		mnt:      m,
	}
	e.cols = make([][]float64, dim)
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
		row := m.aosFlat[j*dim : (j+1)*dim]
		r.F64s(row)
		for i := 0; i < dim; i++ {
			m.colFlat[i*m.capN+j] = row[i]
		}
	}
	if e.live == 0 {
		return fail("maintained model has no live centers")
	}
	if pruneDim >= 0 {
		col := m.colFlat[pruneDim*m.capN : pruneDim*m.capN+physN]
		for j := 1; j < physN; j++ {
			if col[j] < col[j-1] {
				return fail("prune column not sorted")
			}
		}
	}
	e.resize(physN)
	e.rescanExtremes()
	return e, nil
}

// UnmarshalEstimator decodes a model encoded by MarshalBinary. maxSlots
// is the restoring caller's own slot capacity (its sample size): a
// maintained model declaring more fails closed before anything is sized
// by the declaration. An immutable model's size is bounded by len(data).
func UnmarshalEstimator(data []byte, maxSlots int) (*Estimator, error) {
	r := binfmt.NewReader(data)
	switch magic := r.U32(); {
	case r.Err() != nil:
		return nil, fmt.Errorf("kernel: model encoding: %w", r.Err())
	case magic == maintainedMagic:
		return unmarshalMaintained(&r, maxSlots)
	case magic != marshalMagic:
		return nil, fmt.Errorf("kernel: bad model magic %#x", magic)
	}
	dim := int(r.U32())
	wcount := r.F64()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("kernel: model header: %w", err)
	}
	if dim <= 0 || dim > 1<<10 {
		return nil, fmt.Errorf("kernel: implausible dimensionality %d", dim)
	}
	bw := make([]float64, dim)
	r.F64s(bw)
	n := int(r.U32())
	if n <= 0 || r.Len() != 8*dim*n {
		return nil, fmt.Errorf("kernel: center payload %d bytes, want %d", r.Len(), 8*dim*n)
	}
	centers := make([]window.Point, n)
	for i := range centers {
		centers[i] = make(window.Point, dim)
		r.F64s(centers[i])
	}
	return New(centers, bw, wcount)
}
