// Package detector defines the serving layer's pluggable estimate-path
// backends: a Detector interface at the shard-pipeline boundary, plus
// four engines behind it occupying different points on the cost/accuracy
// curve.
//
//   - kernelchain — the paper's stack (chain sample + variance sketch +
//     kernel model), extracted verbatim from the original serve.Pipeline.
//     Most precise, most expensive; the default.
//   - qn — a windowed, exact-rank Q_n robust-scale detector (after FQN,
//     Cafaro et al.): per dimension, the last Window finite values kept
//     sorted; a reading is an outlier when its distance from the window
//     median exceeds K robust scales, the scale being a pairwise
//     difference within ⌊Eps·C(n,2)⌋ ranks of the differences' first
//     quartile. Resistant to the masking that inflates moment-based
//     limits, and it forgets a regime Window readings after it ends.
//   - coreset — a sensitivity-sampling coreset (Lucic et al.): a
//     linear-time biased reservoir in which an arrival's admission
//     probability is proportional to its squared distance from the
//     current coreset, feeding the existing kernel model. A lighter
//     substitute for the chain sample.
//   - ewma — exponentially-weighted moving average with dynamic process
//     limits (mean ± K·sigma recomputed per arrival): O(1) state, the
//     cheapest engine, for fleets where cost dominates accuracy.
//
// Every backend is a deterministic function of (Config, ingest history):
// two detectors built from the same config and fed the same readings are
// bit-identical, which is what lets the serving layer's twin, replica,
// and snapshot contracts hold per backend. Snapshots are fingerprinted
// binary blobs (see Snapshot/Restore): Restore fails closed when the
// blob's backend kind or config fingerprint does not match the restoring
// detector, so a snapshot can never silently resurrect under a different
// engine or tuning.
//
// A product that feeds a sum is written float64(x*y), a rounding the Go
// spec forbids the compiler to fuse into a multiply-add, so every
// architecture computes what amd64 does, bit for bit (DESIGN.md §7).
package detector

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"odds/internal/binfmt"
	"odds/internal/core"
	"odds/internal/distance"
	"odds/internal/mdef"
)

// Kind names a detector backend.
type Kind string

const (
	// KindKernelChain is the paper's chain-sample + kernel-model stack.
	KindKernelChain Kind = "kernelchain"
	// KindQn is the streaming Q_n robust-scale detector.
	KindQn Kind = "qn"
	// KindCoreset is the sensitivity-sampling coreset detector.
	KindCoreset Kind = "coreset"
	// KindEWMA is the EWMA dynamic-process-limits detector.
	KindEWMA Kind = "ewma"
)

// AllKinds lists every backend in canonical order (the order backend
// sections are fingerprinted and snapshotted in).
func AllKinds() []Kind {
	return []Kind{KindKernelChain, KindQn, KindCoreset, KindEWMA}
}

// ValidKind reports whether k names a backend.
func ValidKind(k Kind) bool {
	switch k {
	case KindKernelChain, KindQn, KindCoreset, KindEWMA:
		return true
	}
	return false
}

// Criterion selects the outlier criterion for backends that support more
// than one (today: kernelchain serves both paper criteria; coreset serves
// distance; qn and ewma define their own robust-limit criterion).
type Criterion string

const (
	CriterionDistance Criterion = "distance"
	CriterionMDEF     Criterion = "mdef"
)

// Verdict is one reading's estimate-path outcome.
type Verdict struct {
	// Outlier is the backend's estimate verdict, gated on warm-up.
	Outlier bool
	// Warmed reports whether the backend is past warm-up.
	Warmed bool
}

// Stats is a backend's counter block, reported per shard in /stats.
type Stats struct {
	Kind     Kind   `json:"kind"`
	Arrivals uint64 `json:"arrivals"`
	Warmed   bool   `json:"warmed"`
	// Flagged counts ingested readings the backend flagged as outliers.
	Flagged uint64 `json:"flagged"`
	// StateBytes is the backend's approximate in-memory state footprint —
	// a deterministic function of the ingest history, so twins agree and
	// the figbackends cost columns are reproducible.
	StateBytes int `json:"state_bytes"`
}

// Detector is the estimate path of one shard pipeline. Implementations
// are single-goroutine-owned, like the pipeline that embeds them.
type Detector interface {
	// Kind names the backend.
	Kind() Kind
	// Ingest judges one reading and folds it into the backend's state,
	// returning its estimate verdict: one judgement and one call of the
	// state transition Fold makes, so Ingest(v) is Fold(v, judge(v)).
	// The judgement reads the state before v (qn, coreset, ewma) or the
	// model v's own observation refreshed (kernelchain). v is only read
	// during the call.
	Ingest(v []float64) Verdict
	// Fold is Ingest with the judgement supplied: it moves the state as
	// Ingest would — model refreshes included — and
	// counts outlier as the verdict, without running the estimate query.
	// It is what a replica runs with the bit its primary's Ingest
	// returned. The bit counts only once the backend is warmed (Outlier is
	// outlier && Warmed), and Ingest never sets it before then, so a
	// backend fed its twin's Ingest bits ends in the twin's state bit for
	// bit, flagged counter included.
	Fold(v []float64, outlier bool) Verdict
	// QueryOutlier answers a read-only outlier check of v against the
	// current state without ingesting it. It must not perturb subsequent
	// verdicts: a served query stream leaves a pipeline bit-identical to
	// a twin that never saw the queries.
	QueryOutlier(v []float64) Verdict
	// Snapshot encodes the backend's complete deterministic state as a
	// fingerprinted blob.
	Snapshot() ([]byte, error)
	// Restore replaces the backend's state from a Snapshot blob. It fails
	// closed — ErrKindMismatch / ErrFingerprintMismatch — when the blob
	// was taken by a different backend kind or under a different config.
	Restore(blob []byte) error
	// Stats reports the backend's counters.
	Stats() Stats
}

// fold is the verdict half every Fold shares: the bit counts only once
// the backend is warmed, and a counted bit moves the flagged counter.
func fold(warmed, outlier bool, flagged *uint64) Verdict {
	ver := Verdict{Outlier: outlier && warmed, Warmed: warmed}
	if ver.Outlier {
		*flagged++
	}
	return ver
}

// ProbEstimator is the optional capability behind /query/prob: backends
// with a kernel model report the probability mass within L∞ radius r.
type ProbEstimator interface {
	QueryProb(v []float64, r float64) float64
}

// Config configures one backend instance. Kind selects the engine; the
// remaining fields parameterize it (each engine reads only its own
// section, and fingerprints only what it reads, so tuning one backend
// never invalidates another backend's snapshots).
type Config struct {
	Kind Kind
	// Dim is the reading dimensionality (every backend).
	Dim int
	// Seed seeds the backend's rng (kernelchain chain sample, coreset
	// admission draws); pure-deterministic backends ignore it.
	Seed int64
	// Criterion, Core, Distance, MDEF configure the kernelchain engine
	// exactly as the original pipeline did; Distance also configures the
	// coreset model's distance criterion.
	Criterion Criterion
	Core      core.Config
	Distance  distance.Params
	MDEF      mdef.Params
	// Qn, Coreset, EWMA parameterize the new engines.
	Qn      QnConfig
	Coreset CoresetConfig
	EWMA    EWMAConfig
}

// Params bundles the new backends' tunings for embedding in a serving
// pipeline configuration (the kernelchain engine is parameterized by the
// pipeline's existing Core/Distance/MDEF fields).
type Params struct {
	Qn      QnConfig      `json:"qn"`
	Coreset CoresetConfig `json:"coreset"`
	EWMA    EWMAConfig    `json:"ewma"`
}

// WithDefaults fills every section's zero-value holes. Fingerprints and
// constructors use the filled form, so a defaulted and an explicit
// spelling of the same tuning are the same backend.
func (p Params) WithDefaults() Params {
	p.Qn = p.Qn.WithDefaults()
	p.Coreset = p.Coreset.WithDefaults()
	p.EWMA = p.EWMA.WithDefaults()
	return p
}

// withDefaults fills the per-engine sections of a Config.
func (c Config) withDefaults() Config {
	c.Qn = c.Qn.WithDefaults()
	c.Coreset = c.Coreset.WithDefaults()
	c.EWMA = c.EWMA.WithDefaults()
	return c
}

// Validate reports unusable configurations for the selected kind.
func (c Config) Validate() error {
	if c.Dim <= 0 {
		return fmt.Errorf("detector: dim %d must be positive", c.Dim)
	}
	c = c.withDefaults()
	switch c.Kind {
	case KindKernelChain:
		if err := c.Core.Validate(); err != nil {
			return err
		}
		switch c.Criterion {
		case CriterionDistance:
			return c.Distance.Validate()
		case CriterionMDEF:
			return c.MDEF.Validate()
		default:
			return fmt.Errorf("detector: unknown criterion %q", c.Criterion)
		}
	case KindQn:
		return c.Qn.validate()
	case KindCoreset:
		if err := c.Distance.Validate(); err != nil {
			return err
		}
		if c.Criterion != CriterionDistance {
			return fmt.Errorf("detector: coreset backend serves only the distance criterion, not %q", c.Criterion)
		}
		return c.Coreset.validate()
	case KindEWMA:
		return c.EWMA.validate()
	default:
		return fmt.Errorf("detector: unknown backend kind %q", c.Kind)
	}
}

// New constructs the configured backend, empty.
func New(cfg Config) (Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	fp, err := cfg.fingerprint()
	if err != nil {
		return nil, fmt.Errorf("detector: config does not encode: %w", err)
	}
	switch cfg.Kind {
	case KindKernelChain:
		return newKernelChain(cfg, fp), nil
	case KindQn:
		return newQn(cfg, fp), nil
	case KindCoreset:
		return newCoreset(cfg, fp), nil
	default:
		return newEWMA(cfg, fp), nil
	}
}

// fingerprint is the configuration a backend's snapshots are bound to:
// the JSON of Kind, Dim, Seed and the filled sections the engine reads,
// every other section zero — so tuning one backend never invalidates
// another backend's snapshots. It fails only on a value JSON cannot
// carry (NaN, ±Inf) in a section Validate leaves unchecked.
func (c Config) fingerprint() ([]byte, error) {
	c = c.withDefaults()
	read := Config{Kind: c.Kind, Dim: c.Dim, Seed: c.Seed}
	switch c.Kind {
	case KindKernelChain:
		read.Criterion, read.Core, read.Distance, read.MDEF = c.Criterion, c.Core, c.Distance, c.MDEF
	case KindQn:
		read.Qn = c.Qn
	case KindCoreset:
		read.Coreset, read.Distance = c.Coreset, c.Distance
	case KindEWMA:
		read.EWMA = c.EWMA
	}
	return json.Marshal(read)
}

// countedSource wraps math/rand's seeded source and counts draws, making
// rng state snapshotable: a restore re-seeds and replays the recorded
// number of draws. Every Rand method the backends use (Int63n, Float64,
// Intn) bottoms out in Int63/Uint64, and the underlying source advances
// exactly one step per call, so draw count is a complete description of
// rng position. (Moved here from serve.Pipeline with the kernelchain
// extraction.)
type countedSource struct {
	src rand.Source64
	n   uint64
}

func newCountedSource(seed int64) *countedSource {
	return &countedSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countedSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countedSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countedSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// replayTo re-seeds and replays draws until the source is at position n.
func (c *countedSource) replayTo(seed int64, n uint64) {
	c.src = rand.NewSource(seed).(rand.Source64)
	c.n = 0
	for c.n < n {
		c.Uint64()
	}
}

// splitmix64 is a serializable rand.Source64 (Vigna's SplitMix64): the
// whole rng position is one u64, so snapshots capture it directly and
// restores are O(1) — no draw replay, no way for a corrupt blob to buy an
// unbounded restore. Backends introduced with this package (coreset) use
// it; kernelchain keeps the counted math/rand source it inherited, whose
// draw sequence the golden figures pin.
type splitmix64 struct{ s uint64 }

func newSplitmix(seed int64) *splitmix64 { return &splitmix64{s: uint64(seed)} }

func (s *splitmix64) Uint64() uint64 {
	s.s += 0x9e3779b97f4a7c15
	z := s.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *splitmix64) Seed(seed int64) { s.s = uint64(seed) }

// Snapshot blob framing ("ODDB"): every backend snapshot opens with the
// backend kind and a fingerprint of the configuration it was taken
// under, and Restore fails closed on either mismatching — the
// fail-closed half of the pipeline snapshot/migration contract.
const (
	blobMagic   = uint32(0x4f444442) // "ODDB"
	blobVersion = uint32(1)
)

// Fail-closed restore errors, matchable with errors.Is.
var (
	ErrKindMismatch        = errors.New("detector: snapshot backend kind mismatch")
	ErrFingerprintMismatch = errors.New("detector: snapshot config fingerprint mismatch")
)

// sealBlob frames a backend's state bytes behind its kind and config
// fingerprint.
func sealBlob(kind Kind, fp, state []byte) []byte {
	w := binfmt.Writer{B: make([]byte, 0, 20+len(kind)+len(fp)+len(state))}
	w.U32(blobMagic)
	w.U32(blobVersion)
	w.Str(string(kind))
	w.Bytes(fp)
	w.Bytes(state)
	return w.B
}

// openBlob validates the framing against the restoring backend's kind and
// fingerprint and returns a cursor over the state bytes. Kind and
// fingerprint failures are distinguishable (ErrKindMismatch,
// ErrFingerprintMismatch) so operators can tell "wrong engine" from "same
// engine, different tuning".
func openBlob(blob []byte, kind Kind, fp []byte) (binfmt.Reader, error) {
	fail := func(err error) (binfmt.Reader, error) { return binfmt.Reader{}, err }
	r := binfmt.NewReader(blob)
	if r.U32() != blobMagic {
		return fail(errors.New("detector: bad snapshot magic"))
	}
	if r.U32() != blobVersion {
		return fail(errors.New("detector: unsupported snapshot version"))
	}
	gotKind, gotFP, state := r.Bytes(), r.Bytes(), r.Bytes()
	if err := r.Done(); err != nil {
		return fail(fmt.Errorf("detector: snapshot framing: %w", err))
	}
	if string(gotKind) != string(kind) {
		return fail(fmt.Errorf("%w: blob %q, detector %q", ErrKindMismatch, gotKind, kind))
	}
	if string(gotFP) != string(fp) {
		return fail(fmt.Errorf("%w: backend %q", ErrFingerprintMismatch, kind))
	}
	return binfmt.NewReader(state), nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// allFinite reports whether every coordinate of v is finite.
func allFinite(v []float64) bool {
	for _, x := range v {
		if !finite(x) {
			return false
		}
	}
	return true
}
