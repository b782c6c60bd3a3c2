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
// model as a lighter substitute for the chain sample. Reservoir slot i is
// model slot i: every rebuild patches the one model in place, answering
// exactly as kernel.FromSample over the reservoir would. Bandwidths come
// from a running Welford sketch over all arrivals (Scott's rule), and the
// distance criterion is the paper's: estimated neighbors within L∞
// Radius below Threshold.
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
	bwBuf    []float64
	slotBuf  window.Point // the model's copy of one slot, read by rebuild

	flagged uint64
}

func newCoreset(cfg Config, fp []byte) *Coreset {
	src := newSplitmix(cfg.Seed)
	dim, size := cfg.Dim, cfg.Coreset.Size
	flat := make([]float64, size*dim)
	pts := make([]window.Point, size)
	for i := range pts {
		pts[i] = flat[i*dim : (i+1)*dim]
	}
	return &Coreset{
		cfg:      cfg,
		fp:       fp,
		src:      src,
		rng:      rand.New(src),
		flat:     flat,
		pts:      pts,
		mean:     make([]float64, dim),
		m2:       make([]float64, dim),
		sigmaBuf: make([]float64, dim),
		bwBuf:    make([]float64, dim),
		slotBuf:  make(window.Point, dim),
	}
}

func (c *Coreset) Kind() Kind { return KindCoreset }

func (c *Coreset) warmed() bool { return c.n >= uint64(c.cfg.Coreset.MinN) && c.model != nil }

func (c *Coreset) outlier(v []float64) bool {
	return c.model.Count(window.Point(v), c.cfg.Distance.Radius) < c.cfg.Distance.Threshold
}

// dist2 is the squared Euclidean distance from the finite reading v to
// the nearest coreset point.
func (c *Coreset) dist2(v []float64) float64 {
	best := math.Inf(1)
	for i := 0; i < c.filled; i++ {
		p := c.pts[i]
		sum := 0.0
		for d, x := range v {
			diff := x - p[d]
			sum += float64(diff * diff)
		}
		if sum < best {
			best = sum
		}
	}
	return best
}

func (c *Coreset) Ingest(v []float64) Verdict {
	return c.Fold(v, c.warmed() && c.outlier(v))
}

func (c *Coreset) Fold(v []float64, outlier bool) Verdict {
	ver := fold(c.warmed(), outlier, &c.flagged)
	c.n++
	// Welford moments feed the bandwidth sigmas at rebuild time.
	for d, x := range v {
		if !finite(x) {
			continue
		}
		delta := x - c.mean[d]
		c.mean[d] += delta / float64(c.n)
		c.m2[d] += float64(delta * (x - c.mean[d]))
	}
	// Admission: fill the reservoir first-come, then admit with
	// probability Size·d²/mass — the sensitivity-sampling bias toward
	// points the current coreset summarizes worst. An admitted point
	// replaces a uniformly drawn victim. A reading with a non-finite
	// coordinate is never admitted, so every kept point — and every model
	// center — is finite.
	switch {
	case !allFinite(v):
		// Counted and judged above, never kept.
	case c.filled < len(c.pts):
		copy(c.pts[c.filled], v)
		c.filled++
		c.dirty = true
	default:
		if d2 := c.dist2(v); d2 > 0 && finite(d2) {
			c.mass += d2
			if p := float64(len(c.pts)) * d2 / c.mass; c.rng.Float64() < p {
				copy(c.pts[c.rng.Intn(len(c.pts))], v)
				c.dirty = true
			}
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

// modelInputs fills sigmaBuf with the arrivals' standard deviations and
// returns the window count the model scales by — with pts[:filled], the
// inputs a from-scratch kernel.FromSample build would take.
func (c *Coreset) modelInputs() (wc float64) {
	for d := range c.sigmaBuf {
		if c.n > 1 {
			c.sigmaBuf[d] = math.Sqrt(c.m2[d] / float64(c.n-1))
		} else {
			c.sigmaBuf[d] = 0
		}
	}
	wc = float64(c.cfg.Coreset.WindowCount)
	if float64(c.n) < wc {
		wc = float64(c.n)
	}
	return wc
}

// rebuild brings the model up to the reservoir in one patch cycle,
// setting in ascending order every slot whose point differs bitwise from
// the model's copy — every filled slot the first time, on an empty model
// — and, once a model exists, allocates nothing. The model is kept only
// after its first cycle succeeds.
func (c *Coreset) rebuild() {
	wc := c.modelInputs()
	c.bwBuf = kernel.BandwidthsInto(c.bwBuf, c.sigmaBuf, c.filled)
	m := c.model
	if m == nil {
		m = kernel.NewEmpty(len(c.pts), c.cfg.Dim)
	}
	m.BeginMaintain()
	for s, p := range c.pts[:c.filled] {
		if !m.SlotPoint(s, c.slotBuf) || !sameBits(p, c.slotBuf) {
			m.SetSlot(s, p)
		}
	}
	if err := m.FinishMaintain(c.bwBuf, wc); err != nil {
		// filled > 0 and wc ≥ 1 make this unreachable; on a surprise the
		// shard keeps running and the next rebuild retries.
		return
	}
	c.model = m
	c.dirty = false
	c.sinceBuild = 0
}

// sameBits reports whether a and b hold bitwise-identical coordinates.
func sameBits(a, b window.Point) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
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

// adoptModel installs a decoded model after checking rebuild can patch
// it: one slot per reservoir slot, the configured dimensionality, and no
// center in a slot the reservoir has not filled (patches never visit
// those, so such a center would stay in the model for good).
func (c *Coreset) adoptModel(m *kernel.Estimator) error {
	switch {
	case m.MaxSlots() != len(c.pts):
		return fmt.Errorf("detector: coreset model has %d slots, reservoir has %d", m.MaxSlots(), len(c.pts))
	case m.Dim() != c.cfg.Dim:
		return fmt.Errorf("detector: coreset model dim %d != config dim %d", m.Dim(), c.cfg.Dim)
	}
	for s := c.filled; s < len(c.pts); s++ {
		if m.SlotPoint(s, c.slotBuf) {
			return fmt.Errorf("detector: coreset model holds slot %d of %d filled", s, c.filled)
		}
	}
	c.model = m
	return nil
}

func (c *Coreset) Restore(blob []byte) error {
	r, err := openBlob(blob, KindCoreset, c.fp)
	if err != nil {
		return err
	}
	fresh := newCoreset(c.cfg, c.fp)
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
	for i := 0; i < fresh.filled; i++ {
		if !allFinite(fresh.pts[i]) {
			return fmt.Errorf("detector: coreset point %d is not finite", i)
		}
	}
	if len(modelBlob) > 0 {
		m, err := kernel.UnmarshalEstimator(modelBlob, c.cfg.Coreset.Size)
		if err != nil {
			return fmt.Errorf("detector: coreset model: %w", err)
		}
		if err := fresh.adoptModel(m); err != nil {
			return err
		}
	}
	fresh.n, fresh.flagged, fresh.mass = n, flagged, mass
	fresh.dirty, fresh.sinceBuild = dirtyB != 0, int(sinceBuild)
	*c = *fresh
	return nil
}
