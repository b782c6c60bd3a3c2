package detector

import (
	"fmt"
	"math/rand"

	"odds/internal/binfmt"
	"odds/internal/core"
	"odds/internal/kernel"
	"odds/internal/mdef"
	"odds/internal/window"
)

// KernelChain is the paper's estimate path — chain sample, variance
// sketch, kernel model, distance or MDEF criterion — extracted verbatim
// from the original serve.Pipeline so the default backend's verdict
// stream (and golden figures) stays byte-for-byte what it was before
// backends existed. The countedSource rng-replay snapshot trick moved
// here with it.
type KernelChain struct {
	cfg Config
	fp  []byte

	cs  *countedSource
	est *core.Estimator
	ev  mdef.Evaluator

	flagged uint64
}

func newKernelChain(cfg Config) *KernelChain {
	cs := newCountedSource(cfg.Seed)
	est := core.NewEstimator(cfg.Core, cfg.Core.WindowCap, float64(cfg.Core.WindowCap), rand.New(cs))
	est.EnableSampleRecycling()
	return &KernelChain{
		cfg: cfg,
		fp:  cfg.kernelChainFingerprint(),
		cs:  cs,
		est: est,
	}
}

// kernelChainFingerprint covers exactly what the engine reads.
func (c Config) kernelChainFingerprint() []byte {
	e := fingerprintPrefix(c)
	e.Str(string(c.Criterion))
	e.U64(uint64(c.Core.WindowCap))
	e.U64(uint64(c.Core.SampleSize))
	e.F64(c.Core.Eps)
	e.F64(c.Core.SampleFraction)
	e.U64(uint64(c.Core.Dim))
	e.U64(uint64(c.Core.RebuildEvery))
	e.F64(c.Core.BandwidthScale)
	e.F64(c.Distance.Radius)
	e.F64(c.Distance.Threshold)
	e.F64(c.MDEF.R)
	e.F64(c.MDEF.AlphaR)
	e.F64(c.MDEF.KSigma)
	return e.B
}

func (k *KernelChain) Kind() Kind { return KindKernelChain }

func (k *KernelChain) Ingest(v []float64) Verdict {
	k.est.Observe(window.Point(v))
	ver := Verdict{Warmed: k.est.Warmed()}
	if ver.Warmed {
		ver.Outlier = k.outlier(k.est.Model(), window.Point(v))
	}
	if ver.Outlier {
		k.flagged++
	}
	return ver
}

// QueryOutlier and QueryProb answer from the model the last arrival left
// (core.Estimator.CachedModel): refreshing it here would move state that
// a twin which saw no reads — a replica — does not move.
func (k *KernelChain) QueryOutlier(v []float64) Verdict {
	ver := Verdict{Warmed: k.est.Warmed()}
	if ver.Warmed {
		ver.Outlier = k.outlier(k.est.CachedModel(), window.Point(v))
	}
	return ver
}

// outlier applies the configured criterion to pt against m; no model yet
// means no verdict.
func (k *KernelChain) outlier(m *kernel.Estimator, pt window.Point) bool {
	if m == nil {
		return false
	}
	if k.cfg.Criterion == CriterionMDEF {
		return k.ev.IsOutlier(m, pt, k.cfg.MDEF)
	}
	return m.Count(pt, k.cfg.Distance.Radius) < k.cfg.Distance.Threshold
}

// QueryProb reports the model's probability mass within L∞ radius r of v
// (0 before the first model exists).
func (k *KernelChain) QueryProb(v []float64, r float64) float64 {
	m := k.est.CachedModel()
	if m == nil {
		return 0
	}
	return m.Prob(window.Point(v), r)
}

// Warmed, Model, ForceRefresh, ModelBuildStats, and Arrivals expose the
// estimator hooks the pipeline's drift arm and stats endpoints rely on —
// they live on the concrete KernelChain, not the interface, because
// drift adaptation is defined against the kernel model.
func (k *KernelChain) Warmed() bool { return k.est.Warmed() }

func (k *KernelChain) Model() *kernel.Estimator { return k.est.Model() }

func (k *KernelChain) ForceRefresh() { k.est.ForceRefresh() }

func (k *KernelChain) ModelBuildStats() (fullBuilds, patchBuilds uint64) {
	return k.est.ModelBuildStats()
}

func (k *KernelChain) Arrivals() uint64 { return k.est.Arrivals() }

// SetSource swaps the underlying rng source. Test hook: the zero-alloc
// harness freezes the chain sample's replacement draws to pin the hot
// path into steady state.
func (k *KernelChain) SetSource(src rand.Source64) { k.cs.src = src }

func (k *KernelChain) Stats() Stats {
	return Stats{
		Kind:       KindKernelChain,
		Arrivals:   k.est.Arrivals(),
		Warmed:     k.est.Warmed(),
		Flagged:    k.flagged,
		StateBytes: k.est.MemoryBytes(),
	}
}

// Snapshot state layout (inside the ODDB frame): u64 rng draw count,
// u64 flagged, estimator blob, cached-model blob (empty when no model),
// f64 model window count, u8 dirty, u64 since-build. The cached model is
// captured explicitly for the same reason the original pipeline snapshot
// did: a restore-time rebuild would use restore-time sigmas, while the
// uninterrupted original may still serve a model built under older ones.
func (k *KernelChain) Snapshot() ([]byte, error) {
	estBlob, err := k.est.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("detector: kernelchain estimator: %w", err)
	}
	m, wc, dirty, sinceBuild := k.est.ModelSnapshot()
	var modelBlob []byte
	if m != nil {
		if modelBlob, err = m.MarshalBinary(); err != nil {
			return nil, fmt.Errorf("detector: kernelchain model: %w", err)
		}
	}
	w := binfmt.Writer{B: make([]byte, 0, 64+len(estBlob)+len(modelBlob))}
	w.U64(k.cs.n)
	w.U64(k.flagged)
	w.Bytes(estBlob)
	w.Bytes(modelBlob)
	w.F64(wc)
	w.Bool(dirty)
	w.U64(uint64(sinceBuild))
	return sealBlob(KindKernelChain, k.fp, w.B), nil
}

func (k *KernelChain) Restore(blob []byte) error {
	r, err := openBlob(blob, KindKernelChain, k.fp)
	if err != nil {
		return err
	}
	rngN, flagged := r.U64(), r.U64()
	estBlob, modelBlob := r.Bytes(), r.Bytes()
	wc, dirtyB, sinceBuild := r.F64(), r.U8(), r.U64()
	if err := r.Done(); err != nil {
		return fmt.Errorf("detector: kernelchain snapshot: %w", err)
	}
	cs := newCountedSource(k.cfg.Seed)
	est, err := core.UnmarshalEstimator(estBlob, rand.New(cs))
	if err != nil {
		return fmt.Errorf("detector: kernelchain estimator: %w", err)
	}
	est.EnableSampleRecycling()
	// Rng replay costs O(draws); gate the claimed position against the
	// estimator's own arrival counter (the chain draws a small multiple per
	// arrival — the factor below is orders of magnitude above it) so a
	// corrupt blob fails closed instead of buying an unbounded restore.
	if maxDraws := (est.Arrivals() + 2) * 64 * uint64(k.cfg.Core.SampleSize+16); rngN > maxDraws {
		return fmt.Errorf("detector: kernelchain snapshot claims %d rng draws over %d arrivals", rngN, est.Arrivals())
	}
	cs.replayTo(k.cfg.Seed, rngN)
	var model *kernel.Estimator
	if len(modelBlob) > 0 {
		if model, err = kernel.UnmarshalEstimator(modelBlob, k.cfg.Core.SampleSize); err != nil {
			return fmt.Errorf("detector: kernelchain model: %w", err)
		}
	}
	if err := est.RestoreModelSnapshot(model, wc, dirtyB != 0, int(sinceBuild)); err != nil {
		return fmt.Errorf("detector: kernelchain model: %w", err)
	}
	k.cs = cs
	k.est = est
	k.flagged = flagged
	return nil
}
