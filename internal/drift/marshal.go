package drift

import (
	"errors"
	"fmt"

	"odds/internal/binfmt"
)

// Monitor snapshot blob ("ODDM"). The serving layer embeds it in pipeline
// snapshots so a restored shard resumes drift detection exactly where the
// original left off: same references, same cumulative statistics, same
// cooldowns — post-restore detections land on the same arrivals as an
// uninterrupted run.
//
// Ring buffers are serialized in arrival order and restored at head 0;
// the ring origin is not observable (eviction depends only on arrival
// order), so the canonical layout is behavior-preserving.
const monitorMagic = uint32(0x4f44444d) // "ODDM"

// MarshalBinary encodes the monitor's complete state.
func (m *Monitor) MarshalBinary() ([]byte, error) {
	w := binfmt.Writer{B: make([]byte, 0, 64+len(m.dets)*(3*m.cfg.Window+8)*8)}
	w.U32(monitorMagic)
	w.U32(uint32(len(m.dets)))
	c := m.cfg
	w.U32(uint32(c.Window))
	w.U32(uint32(c.CheckEvery))
	w.U32(uint32(c.Cooldown))
	w.F64(c.KSD)
	w.F64(c.PHDelta)
	w.F64(c.PHLambda)
	w.F64(c.MKZ)
	s := m.stats
	w.U64(s.Observed)
	w.U64(s.Detections)
	w.U64(s.KSFires)
	w.U64(s.PHFires)
	w.U64(s.MKFires)
	w.U64(s.LastFire)

	var scratch []float64
	for _, d := range m.dets {
		w.U32(uint32(d.cfg.Window))
		w.U32(uint32(d.since))
		w.U32(uint32(d.cooldown))
		w.U64(d.skipped)
		if d.ks != nil {
			scratch = d.ks.CurWindow(scratch[:0])
			w.U32(uint32(len(scratch)))
			w.F64s(scratch)
			w.Bool(d.ks.refSet)
			if d.ks.refSet {
				w.F64s(d.ks.ref)
			}
		}
		if d.ph != nil {
			w.U64(d.ph.t)
			w.F64(d.ph.sum)
			w.F64(d.ph.mUp)
			w.F64(d.ph.mDn)
			w.F64(d.ph.mMin)
			w.F64(d.ph.mMax)
		}
		if d.mk != nil {
			w.U32(uint32(d.mk.count))
			for i := 0; i < d.mk.count; i++ {
				w.F64(d.mk.ring[(d.mk.arrivalIndex(i))])
			}
			w.U64(uint64(d.mk.s))
		}
	}
	return w.B, nil
}

// arrivalIndex maps arrival position i (0 = oldest resident) to its ring
// slot.
func (m *MannKendall) arrivalIndex(i int) int {
	if m.count < m.w {
		return i
	}
	j := m.head + i
	if j >= m.w {
		j -= m.w
	}
	return j
}

// UnmarshalMonitor reconstructs a monitor from a MarshalBinary blob taken
// under the caller's own dim and cfg. The monitor is sized from those —
// never from the blob, whose header must agree with them — and a
// per-dimension bank resized below cfg.Window is accepted while one
// claiming more fails closed, so a blob cannot make the restore allocate
// beyond what the caller's configuration already implies.
func UnmarshalMonitor(data []byte, dim int, cfg Config) (*Monitor, error) {
	m, err := NewMonitor(dim, cfg)
	if err != nil {
		return nil, err
	}
	r := binfmt.NewReader(data)
	if r.U32() != monitorMagic {
		return nil, errors.New("drift: snapshot: bad magic")
	}
	gotDim := int(r.U32())
	got := Config{
		Window:     int(r.U32()),
		CheckEvery: int(r.U32()),
		Cooldown:   int(r.U32()),
		KSD:        r.F64(),
		PHDelta:    r.F64(),
		PHLambda:   r.F64(),
		MKZ:        r.F64(),
	}
	if r.Err() == nil && (gotDim != dim || got != cfg) {
		return nil, errors.New("drift: snapshot: taken under a different dim or detector config")
	}
	m.stats = Stats{
		Observed:   r.U64(),
		Detections: r.U64(),
		KSFires:    r.U64(),
		PHFires:    r.U64(),
		MKFires:    r.U64(),
		LastFire:   r.U64(),
	}
	// window decodes one test's resident values (count-prefixed, arrival
	// order) into its ring and rebuilds the sorted copy.
	window := func(w int, ring []float64, sorted *[]float64) (count, head int) {
		n := r.Count(8, w)
		r.F64s(ring[:n])
		for _, x := range ring[:n] {
			if !finite(x) {
				r.Fail(errors.New("non-finite window value"))
			}
		}
		*sorted = append((*sorted)[:0], ring[:n]...)
		sortFloats(*sorted)
		return n, n % w
	}
	for _, d := range m.dets {
		dw := int(r.U32())
		if r.Err() != nil {
			break
		}
		if dw < minWindow || dw > cfg.Window {
			r.Fail(fmt.Errorf("bank window %d outside [%d, %d]", dw, minWindow, cfg.Window))
			break
		}
		if dw != cfg.Window {
			d.Resize(dw)
		}
		d.since, d.cooldown, d.skipped = int(r.U32()), int(r.U32()), r.U64()
		if ks := d.ks; ks != nil {
			ks.count, ks.head = window(ks.w, ks.ring, &ks.sorted)
			switch r.U8() {
			case 0:
			case 1:
				ks.ref = ks.ref[:ks.w]
				r.F64s(ks.ref)
				ks.refSet = true
			default:
				r.Fail(errors.New("bad KS reference flag"))
			}
		}
		if ph := d.ph; ph != nil {
			ph.t = r.U64()
			ph.sum, ph.mUp, ph.mDn, ph.mMin, ph.mMax = r.F64(), r.F64(), r.F64(), r.F64(), r.F64()
		}
		if mk := d.mk; mk != nil {
			mk.count, mk.head = window(mk.w, mk.ring, &mk.sorted)
			mk.s = int64(r.U64())
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("drift: snapshot: %w", err)
	}
	return m, nil
}
