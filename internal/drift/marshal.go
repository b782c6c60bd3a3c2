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
// Each test's window is written by window.Sorted.Append, oldest value first.
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

	for _, d := range m.dets {
		w.U32(uint32(d.cfg.Window))
		w.U32(uint32(d.since))
		w.U32(uint32(d.cooldown))
		w.U64(d.skipped)
		if d.ks != nil {
			d.ks.win.Append(&w)
			w.Bool(d.ks.refSet)
			w.F64s(d.ks.ref)
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
			d.mk.win.Append(&w)
			w.U64(uint64(d.mk.s))
		}
	}
	return w.B, nil
}

// UnmarshalMonitor reconstructs a monitor from a MarshalBinary blob taken
// under the caller's own dim and cfg. The monitor is sized from those —
// never from the blob, whose header and per-bank windows must agree with
// them — so a blob cannot make the restore allocate beyond what the
// caller's configuration already implies. State no encoder writes fails
// closed: a cadence or cooldown counter beyond the configuration, a KS
// reference that is not finite and ascending (a NaN would stall the KS
// merge scan forever), or a Mann–Kendall S beyond its window's pair
// count. Page–Hinkley sums go unchecked: honest extreme readings can
// overflow them.
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
	for _, d := range m.dets {
		dw := int(r.U32())
		d.since, d.cooldown, d.skipped = int(r.U32()), int(r.U32()), r.U64()
		if r.Err() == nil && (dw != cfg.Window || d.since >= cfg.CheckEvery || d.cooldown > cfg.cooldown()) {
			r.Fail(fmt.Errorf("bank window %d, since %d, cooldown %d outside the configuration", dw, d.since, d.cooldown))
		}
		if ks := d.ks; ks != nil {
			ks.win.Load(&r)
			switch r.U8() {
			case 0:
			case 1:
				ks.ref = ks.ref[:cfg.Window]
				r.F64s(ks.ref)
				ks.refSet = true
				for i, x := range ks.ref {
					if !finite(x) || i > 0 && x < ks.ref[i-1] {
						r.Fail(errors.New("KS reference not finite and ascending"))
						break
					}
				}
			default:
				r.Fail(errors.New("bad KS reference flag"))
			}
		}
		if ph := d.ph; ph != nil {
			ph.t = r.U64()
			ph.sum, ph.mUp, ph.mDn, ph.mMin, ph.mMax = r.F64(), r.F64(), r.F64(), r.F64(), r.F64()
		}
		if mk := d.mk; mk != nil {
			mk.win.Load(&r)
			mk.s = int64(r.U64())
			if pairs := int64(mk.win.Len()) * int64(mk.win.Len()-1) / 2; mk.s > pairs || mk.s < -pairs {
				r.Fail(fmt.Errorf("Mann–Kendall S %d beyond %d pairs", mk.s, pairs))
			}
		}
		if r.Err() != nil {
			break
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("drift: snapshot: %w", err)
	}
	return m, nil
}
