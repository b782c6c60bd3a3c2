package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"odds/internal/binfmt"
	"odds/internal/detector"
	"odds/internal/drift"
	"odds/internal/kernel"
)

// Snapshot formats. A pipeline snapshot ("ODPS" v2) is the complete
// deterministic state of one shard: per-shard sequence number, the true
// window oldest→newest (the exact index is rebuilt from it on restore),
// and one fingerprinted detector blob per armed backend in armedKinds
// order. Everything backend-specific — rng draw counts, estimator and
// cached-model blobs, sketches, reservoirs — lives inside the detector
// blobs (internal/detector's "ODDB" framing), which fail closed on
// backend-kind or config mismatch; per-backend bit-exactness across
// checkpoint/restore, ODSH migration, and replica chains follows from
// every backend's own snapshot contract.
//
// A server snapshot file ("ODSV") frames one pipeline snapshot per shard
// behind a config fingerprint and a CRC, written via temp-file + rename
// so a crash mid-checkpoint never corrupts the previous snapshot.
const (
	pipelineMagic   = uint32(0x4f445053) // "ODPS"
	pipelineVersion = uint32(2)
	fileMagic       = uint32(0x4f445356) // "ODSV"
	fileVersion     = uint32(1)
)

// Snapshot encodes the pipeline's complete deterministic state.
func (p *Pipeline) Snapshot() ([]byte, error) {
	w := binfmt.Writer{B: make([]byte, 0, 64+p.count*p.cfg.Core.Dim*8)}
	w.U32(pipelineMagic)
	w.U32(pipelineVersion)
	w.U64(p.seq)
	w.U32(uint32(p.count))
	for i, n := p.oldest(), 0; n < p.count; i, n = p.next(i), n+1 {
		w.F64s(p.slot(i))
	}
	w.U32(uint32(len(p.dets)))
	for _, d := range p.dets {
		blob, err := d.Snapshot()
		if err != nil {
			return nil, err
		}
		w.Bytes(blob)
	}
	if p.drift != nil {
		// Drift section, present iff the config arms the monitor (the
		// fingerprint covers the config, so presence always agrees): the
		// detector-bank state, the frozen JS reference model, and the
		// action counters — everything the adaptive path needs to resume
		// firing at the same sequence numbers.
		d := p.drift
		mon, err := d.mon.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.Bytes(mon)
		var ref []byte
		if d.ref != nil {
			if ref, err = d.ref.MarshalBinary(); err != nil {
				return nil, err
			}
		}
		w.Bytes(ref)
		w.U64(d.jsChecks)
		w.U64(d.jsTrips)
		w.F64(d.lastJS)
		w.U64(d.refresh)
		w.U64(d.shrinks)
		w.U64(d.lastSeq)
	}
	return w.B, nil
}

// RestorePipeline rebuilds a pipeline from a snapshot taken under the same
// configuration. The restored pipeline is seed-exact: every backend
// continues the original's rng stream, rebuild cadence, and sketch state,
// so subsequent verdicts are bit-identical to an uninterrupted run. Each
// detector blob is opened by its own backend, which fails closed when the
// blob's backend kind or config fingerprint disagrees — a snapshot can
// never silently restore into a pipeline running a different engine.
func RestorePipeline(cfg PipelineConfig, data []byte) (*Pipeline, error) {
	p, err := NewPipeline(cfg)
	if err != nil {
		return nil, err
	}
	fail := func(msg string) (*Pipeline, error) { return nil, fmt.Errorf("serve: %s", msg) }
	r := binfmt.NewReader(data)
	if r.U32() != pipelineMagic {
		return fail("bad pipeline snapshot magic")
	}
	if r.U32() != pipelineVersion {
		return fail("unsupported pipeline snapshot version")
	}
	p.seq = r.U64()
	dim := cfg.Core.Dim
	count := r.Count(8*dim, cfg.Core.WindowCap)
	for i := 0; i < count; i++ {
		slot := p.slot(p.head)
		r.F64s(slot)
		for _, x := range slot {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				// Nothing the wire admits; a NaN equals nothing, so the
				// exact index could never evict it.
				return fail("non-finite window value")
			}
		}
		p.exactAdd(slot)
		p.head = p.next(p.head)
	}
	p.count = count
	if ndets := int(r.U32()); r.Err() == nil && ndets != len(p.dets) {
		return fail("detector count mismatch (snapshot taken under different backends)")
	}
	for _, d := range p.dets {
		blob := r.Bytes()
		if r.Err() != nil {
			break
		}
		if err := d.Restore(blob); err != nil {
			return nil, err
		}
	}
	if d := p.drift; d != nil && r.Err() == nil {
		monBlob, refBlob := r.Bytes(), r.Bytes()
		d.jsChecks, d.jsTrips, d.lastJS = r.U64(), r.U64(), r.F64()
		d.refresh, d.shrinks, d.lastSeq = r.U64(), r.U64(), r.U64()
		if r.Err() == nil {
			if d.mon, err = drift.UnmarshalMonitor(monBlob, d.mon.Dim(), d.mon.Config()); err != nil {
				return nil, err
			}
			if len(refBlob) > 0 {
				if d.ref, err = kernel.UnmarshalEstimator(refBlob, cfg.Core.SampleSize); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("serve: pipeline snapshot: %w", err)
	}
	return p, nil
}

// fingerprint is the configuration a snapshot file, ship frame or wire
// frame was built under: the JSON of the shard count and the canonical
// config. Canonical means a defaulted and an explicit spelling of the
// same setup encode identically, and dead config (a disarmed drift
// monitor's knobs, an engine nothing routes to) encodes as zero, so it
// cannot invalidate a snapshot. Restore, install and ODWP decode refuse
// a fingerprint that differs from the server's.
func fingerprint(shards int, cfg PipelineConfig) []byte {
	if cfg.Drift = cfg.Drift.withDefaults(); !cfg.Drift.Enabled {
		cfg.Drift = DriftConfig{}
	}
	cfg.Backend = cfg.DefaultBackend()
	filled := cfg.Backends.WithDefaults()
	cfg.Backends = detector.Params{}
	for _, k := range cfg.armedKinds() {
		switch k {
		case detector.KindQn:
			cfg.Backends.Qn = filled.Qn
		case detector.KindCoreset:
			cfg.Backends.Coreset = filled.Coreset
		case detector.KindEWMA:
			cfg.Backends.EWMA = filled.EWMA
		}
	}
	b, err := json.Marshal(struct {
		Shards int `json:"shards"`
		PipelineConfig
	}{shards, cfg})
	if err != nil {
		// Validate refuses every config JSON cannot carry.
		panic(fmt.Sprintf("serve: fingerprint of an unvalidated config: %v", err))
	}
	return b
}

// encodeFile frames per-shard snapshots into one server snapshot file.
func encodeFile(shards int, cfg PipelineConfig, blobs [][]byte) []byte {
	fp := fingerprint(shards, cfg)
	size := 16 + len(fp)
	for _, b := range blobs {
		size += 4 + len(b)
	}
	w := binfmt.Writer{B: make([]byte, 0, size+4)}
	w.U32(fileMagic)
	w.U32(fileVersion)
	w.Bytes(fp)
	w.U32(uint32(len(blobs)))
	for _, b := range blobs {
		w.Bytes(b)
	}
	return binfmt.SealCRC(w.B, 0)
}

// decodeFile validates framing, CRC, and fingerprint, returning the
// per-shard snapshots.
func decodeFile(data []byte, shards int, cfg PipelineConfig) ([][]byte, error) {
	fail := func(msg string) ([][]byte, error) { return nil, fmt.Errorf("serve: snapshot file: %s", msg) }
	body, err := binfmt.OpenCRC(data, 0)
	if err != nil {
		return nil, fmt.Errorf("serve: snapshot file: %w", err)
	}
	r := binfmt.NewReader(body)
	if r.U32() != fileMagic {
		return fail("bad magic")
	}
	if r.U32() != fileVersion {
		return fail("unsupported version")
	}
	fp := r.Bytes()
	if r.Err() == nil && string(fp) != string(fingerprint(shards, cfg)) {
		return fail("configuration fingerprint mismatch (snapshot taken under different settings)")
	}
	if n := int(r.U32()); r.Err() == nil && n != shards {
		return fail("shard count mismatch")
	}
	blobs := make([][]byte, shards)
	for i := range blobs {
		blobs[i] = r.Bytes()
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("serve: snapshot file: %w", err)
	}
	return blobs, nil
}

// writeFileAtomic writes data to path via a temp file + rename in the
// same directory, so an interrupted checkpoint never clobbers the last
// good snapshot.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snap-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}
