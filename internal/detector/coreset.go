package detector

import (
	"fmt"
	"math"
	"math/rand"

	"odds/internal/binfmt"
	"odds/internal/kernel"
	"odds/internal/window"
)

// CoresetConfig parameterizes the sensitivity-sampling coreset backend.
type CoresetConfig struct {
	// Size is the coreset capacity (number of kept points).
	Size int `json:"size,omitempty"`
	// RebuildEvery is the arrival interval between kernel-model rebuilds
	// once the coreset has changed.
	RebuildEvery int `json:"rebuild_every,omitempty"`
	// WindowCount caps the |W| scaling count queries multiply kernel mass
	// by, standing in for the sliding window the chain sample would track.
	WindowCount int `json:"window_count,omitempty"`
	// MinN is the warm-up arrival count before verdicts fire.
	MinN int `json:"min_n,omitempty"`
}

// WithDefaults fills zero-value holes.
func (c CoresetConfig) WithDefaults() CoresetConfig {
	if c.Size == 0 {
		c.Size = 128
	}
	if c.RebuildEvery == 0 {
		c.RebuildEvery = 64
	}
	if c.WindowCount == 0 {
		c.WindowCount = 1024
	}
	if c.MinN == 0 {
		c.MinN = 64
	}
	return c
}

func (c CoresetConfig) validate() error {
	c = c.WithDefaults()
	if c.Size < 1 {
		return fmt.Errorf("detector: coreset size %d must be positive", c.Size)
	}
	if c.RebuildEvery < 1 {
		return fmt.Errorf("detector: coreset rebuild_every %d must be positive", c.RebuildEvery)
	}
	if c.WindowCount < 1 {
		return fmt.Errorf("detector: coreset window_count %d must be positive", c.WindowCount)
	}
	if c.MinN < 2 {
		return fmt.Errorf("detector: coreset min_n %d must be at least 2", c.MinN)
	}
	return nil
}

// Coreset is the sensitivity-sampling backend (Lucic et al.,
// linear-time): a biased reservoir of Size points in which an arrival's
// admission probability is proportional to its squared distance from the
// current coreset — points far from everything kept are exactly the ones
// a density summary cannot afford to drop — feeding the existing kernel
// model as a lighter substitute for the chain sample. Bandwidths come
// from a running Welford sketch over all arrivals (Scott's rule inside
// kernel.FromSample), and the distance criterion is the paper's:
// estimated neighbors within L∞ Radius below Threshold.
//
// Determinism: admissions draw from a seeded splitmix64 source whose
// entire position is one u64, so snapshots capture the rng state directly
// and restores are O(1) — seed-exact without draw replay.
type Coreset struct {
	cfg Config
	fp  []byte

	src *splitmix64
	rng *rand.Rand

	flat   []float64      // stable backing for pts
	pts    []window.Point // pts[:filled] is the coreset
	filled int
	mass   float64 // running sum of admission d² sensitivities

	// Welford moments over all arrivals, for bandwidth sigmas.
	mean []float64
	m2   []float64

	n          uint64
	dirty      bool
	sinceBuild int

	model *kernel.Estimator

	sigmaBuf []float64

	flagged uint64
}

func newCoreset(cfg Config) *Coreset {
	src := newSplitmix(cfg.Seed)
	dim, size := cfg.Dim, cfg.Coreset.Size
	flat := make([]float64, size*dim)
	pts := make([]window.Point, size)
	for i := range pts {
		pts[i] = flat[i*dim : (i+1)*dim]
	}
	return &Coreset{
		cfg:      cfg,
		fp:       cfg.coresetFingerprint(),
		src:      src,
		rng:      rand.New(src),
		flat:     flat,
		pts:      pts,
		mean:     make([]float64, dim),
		m2:       make([]float64, dim),
		sigmaBuf: make([]float64, dim),
	}
}

func (c Config) coresetFingerprint() []byte {
	e := fingerprintPrefix(c)
	cs := c.Coreset.WithDefaults()
	e.U64(uint64(cs.Size))
	e.U64(uint64(cs.RebuildEvery))
	e.U64(uint64(cs.WindowCount))
	e.U64(uint64(cs.MinN))
	e.F64(c.Distance.Radius)
	e.F64(c.Distance.Threshold)
	return e.B
}

func (c *Coreset) Kind() Kind { return KindCoreset }

func (c *Coreset) warmed() bool { return c.n >= uint64(c.cfg.Coreset.MinN) && c.model != nil }

func (c *Coreset) outlier(v []float64) bool {
	return c.model.Count(window.Point(v), c.cfg.Distance.Radius) < c.cfg.Distance.Threshold
}

// dist2 is the squared Euclidean distance from v to the nearest coreset
// point (non-finite coordinates contribute nothing).
func (c *Coreset) dist2(v []float64) float64 {
	best := math.Inf(1)
	for i := 0; i < c.filled; i++ {
		p := c.pts[i]
		sum := 0.0
		for d, x := range v {
			if !finite(x) {
				continue
			}
			diff := x - p[d]
			sum += diff * diff
		}
		if sum < best {
			best = sum
		}
	}
	return best
}

func (c *Coreset) Ingest(v []float64) Verdict {
	ver := Verdict{Warmed: c.warmed()}
	if ver.Warmed {
		ver.Outlier = c.outlier(v)
	}
	if ver.Outlier {
		c.flagged++
	}
	c.n++
	// Welford moments feed the bandwidth sigmas at rebuild time.
	for d, x := range v {
		if !finite(x) {
			continue
		}
		delta := x - c.mean[d]
		c.mean[d] += delta / float64(c.n)
		c.m2[d] += delta * (x - c.mean[d])
	}
	// Admission: fill the reservoir first-come, then admit with
	// probability Size·d²/mass — the sensitivity-sampling bias toward
	// points the current coreset summarizes worst. An admitted point
	// replaces a uniformly drawn victim.
	if c.filled < len(c.pts) {
		copy(c.pts[c.filled], v)
		c.filled++
		c.dirty = true
	} else if d2 := c.dist2(v); d2 > 0 && finite(d2) {
		c.mass += d2
		if p := float64(len(c.pts)) * d2 / c.mass; c.rng.Float64() < p {
			copy(c.pts[c.rng.Intn(len(c.pts))], v)
			c.dirty = true
		}
	}
	c.sinceBuild++
	c.maybeRebuild()
	return ver
}

// maybeRebuild refreshes the kernel model once enough arrivals are in
// and the coreset changed since the last build (first build as soon as
// warm-up count is reached).
func (c *Coreset) maybeRebuild() {
	if c.n < uint64(c.cfg.Coreset.MinN) || c.filled == 0 {
		return
	}
	if c.model != nil && (!c.dirty || c.sinceBuild < c.cfg.Coreset.RebuildEvery) {
		return
	}
	c.rebuild()
}

func (c *Coreset) rebuild() {
	for d := range c.sigmaBuf {
		if c.n > 1 {
			c.sigmaBuf[d] = math.Sqrt(c.m2[d] / float64(c.n-1))
		} else {
			c.sigmaBuf[d] = 0
		}
	}
	wc := float64(c.cfg.Coreset.WindowCount)
	if float64(c.n) < wc {
		wc = float64(c.n)
	}
	m, err := kernel.FromSample(c.pts[:c.filled], c.sigmaBuf, wc)
	if err != nil {
		// Only ErrNoSample is reachable and filled > 0 excludes it; keep
		// the previous model rather than crash the shard on a surprise.
		return
	}
	c.model = m
	c.dirty = false
	c.sinceBuild = 0
}

func (c *Coreset) QueryOutlier(v []float64) Verdict {
	ver := Verdict{Warmed: c.warmed()}
	if ver.Warmed {
		ver.Outlier = c.outlier(v)
	}
	return ver
}

// QueryProb reports the model's probability mass within L∞ radius r of v
// (0 before the first model exists).
func (c *Coreset) QueryProb(v []float64, r float64) float64 {
	if c.model == nil {
		return 0
	}
	return c.model.Prob(window.Point(v), r)
}

// SetSource swaps the underlying rng source. Test hook: the zero-alloc
// harness freezes admission draws to pin the hot path into steady state
// (a frozen instance's snapshots are not replayable — tests only).
func (c *Coreset) SetSource(src rand.Source64) { c.rng = rand.New(src) }

func (c *Coreset) Stats() Stats {
	bytes := 8*len(c.flat) + 16*len(c.mean)
	if c.model != nil {
		bytes += 8 * c.filled * (c.cfg.Dim + 1) // model centers + bandwidths, approx
	}
	return Stats{
		Kind:       KindCoreset,
		Arrivals:   c.n,
		Warmed:     c.warmed(),
		Flagged:    c.flagged,
		StateBytes: bytes,
	}
}

// Snapshot state layout: u64 rng state, u64 n, u64 flagged, u32
// filled, u8 dirty, u64 since-build, f64 mass, filled·dim point f64s,
// dim means, dim m2s, model blob (empty when none). The cached model is
// captured explicitly for the same reason kernelchain's is: a
// restore-time rebuild would use restore-time sigmas.
func (c *Coreset) Snapshot() ([]byte, error) {
	var modelBlob []byte
	if c.model != nil {
		var err error
		if modelBlob, err = c.model.MarshalBinary(); err != nil {
			return nil, fmt.Errorf("detector: coreset model: %w", err)
		}
	}
	dim := c.cfg.Dim
	w := binfmt.Writer{B: make([]byte, 0, 64+8*(c.filled*dim+2*dim)+len(modelBlob))}
	w.U64(c.src.s)
	w.U64(c.n)
	w.U64(c.flagged)
	w.U32(uint32(c.filled))
	w.Bool(c.dirty)
	w.U64(uint64(c.sinceBuild))
	w.F64(c.mass)
	for i := 0; i < c.filled; i++ {
		w.F64s(c.pts[i])
	}
	w.F64s(c.mean)
	w.F64s(c.m2)
	w.Bytes(modelBlob)
	return sealBlob(KindCoreset, c.fp, w.B), nil
}

func (c *Coreset) Restore(blob []byte) error {
	r, err := openBlob(blob, KindCoreset, c.fp)
	if err != nil {
		return err
	}
	fresh := newCoreset(c.cfg)
	fresh.src.s = r.U64()
	n, flagged := r.U64(), r.U64()
	fresh.filled = r.Count(8*c.cfg.Dim, len(fresh.pts))
	dirtyB, sinceBuild, mass := r.U8(), r.U64(), r.F64()
	for i := 0; i < fresh.filled; i++ {
		r.F64s(fresh.pts[i])
	}
	r.F64s(fresh.mean)
	r.F64s(fresh.m2)
	modelBlob := r.Bytes()
	if err := r.Done(); err != nil {
		return fmt.Errorf("detector: coreset snapshot: %w", err)
	}
	if len(modelBlob) > 0 {
		m, err := kernel.UnmarshalEstimator(modelBlob, c.cfg.Coreset.Size)
		if err != nil {
			return fmt.Errorf("detector: coreset model: %w", err)
		}
		if m.Dim() != c.cfg.Dim {
			return fmt.Errorf("detector: coreset model dim %d != config dim %d", m.Dim(), c.cfg.Dim)
		}
		fresh.model = m
	}
	fresh.n, fresh.flagged, fresh.mass = n, flagged, mass
	fresh.dirty, fresh.sinceBuild = dirtyB != 0, int(sinceBuild)
	*c = *fresh
	return nil
}
