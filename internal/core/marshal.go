package core

import (
	"fmt"
	"math/rand"
	"slices"

	"odds/internal/binfmt"
	"odds/internal/sample"
	"odds/internal/varest"
)

// Leader handoff (Section 2: leadership rotates within a cell for energy
// balance) transfers the incumbent's estimation state to the successor:
// configuration, stream position, the chain sample, and the per-dimension
// variance sketches. MarshalBinary/UnmarshalEstimator implement that wire
// format; the successor resumes with a fresh coin source, which does not
// affect the sampled state.

const estimatorMagic = uint32(0x4f444553) // "ODES"

// MarshalBinary encodes the estimator's full handoff state.
func (e *Estimator) MarshalBinary() ([]byte, error) {
	smp, err := e.smp.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w := binfmt.Writer{B: make([]byte, 0, 128+len(smp))}
	w.U32(estimatorMagic)
	w.U32(uint32(e.cfg.Dim))
	w.U64(uint64(e.cfg.WindowCap))
	w.U64(uint64(e.cfg.SampleSize))
	w.F64(e.cfg.Eps)
	w.F64(e.cfg.SampleFraction)
	w.U64(uint64(e.cfg.RebuildEvery))
	w.F64(e.cfg.BandwidthScale)
	w.F64(e.wcount)
	w.U64(e.arrivals)
	w.Bytes(smp)
	for d := 0; d < e.cfg.Dim; d++ {
		vd, err := e.vars.Dimension(d).MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.Bytes(vd)
	}
	// Incremental-maintenance queue: sample slots that changed after the
	// last model build and are still waiting to be patched in. Written in
	// ascending slot order — the order patches are applied in — so a
	// restored estimator resumes maintenance bit-identically. Empty (and
	// the flag itself unset) for estimators without incremental mode.
	pending := slices.Clone(e.pendingList)
	slices.Sort(pending)
	w.U32(uint32(len(pending)))
	for _, s := range pending {
		w.U32(uint32(s))
	}
	return w.B, nil
}

// UnmarshalEstimator decodes handoff state; the successor supplies its own
// random source.
func UnmarshalEstimator(data []byte, rng *rand.Rand) (*Estimator, error) {
	fail := func(msg string) (*Estimator, error) { return nil, fmt.Errorf("core: %s", msg) }
	r := binfmt.NewReader(data)
	if r.U32() != estimatorMagic {
		return fail("bad estimator magic")
	}
	cfg := Config{
		Dim:            int(r.U32()),
		WindowCap:      int(r.U64()),
		SampleSize:     int(r.U64()),
		Eps:            r.F64(),
		SampleFraction: r.F64(),
		RebuildEvery:   int(r.U64()),
		BandwidthScale: r.F64(),
	}
	wcount := r.F64()
	arrivals := r.U64()
	smpBlob := r.Bytes()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: estimator header: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	smp, err := sample.UnmarshalChain(smpBlob, rng)
	if err != nil {
		return nil, err
	}
	if smp.Dim() != cfg.Dim {
		return fail("sample dimensionality mismatch")
	}

	sketches := make([]*varest.Estimator, cfg.Dim)
	for d := range sketches {
		blob := r.Bytes()
		if r.Err() != nil {
			break
		}
		if sketches[d], err = varest.UnmarshalEstimator(blob); err != nil {
			return nil, err
		}
	}
	var pendingList []int32
	var pendingSet []bool
	if nPend := r.Count(4, smp.Size()); nPend > 0 {
		pendingList = make([]int32, 0, smp.Size())
		pendingSet = make([]bool, smp.Size())
		prev := int32(-1)
		for i := 0; i < nPend; i++ {
			s := int32(r.U32())
			if s <= prev || int(s) >= smp.Size() {
				return fail("pending slots not ascending in range")
			}
			prev = s
			pendingList = append(pendingList, s)
			pendingSet[s] = true
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("core: estimator encoding: %w", err)
	}

	e := &Estimator{
		cfg:         cfg,
		smp:         smp,
		vars:        varest.NewMultiFrom(sketches),
		wcount:      wcount,
		arrivals:    arrivals,
		dirty:       true,
		pendingList: pendingList,
		pendingSet:  pendingSet,
	}
	return e, nil
}
