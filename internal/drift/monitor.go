package drift

// Firing reports which tests crossed their thresholds at a check. The
// zero value means "no detection".
type Firing struct {
	KS, PH, MK bool
}

// Any reports whether any test fired.
func (f Firing) Any() bool { return f.KS || f.PH || f.MK }

// Detector is the per-scalar-stream bank: the three tests plus the check
// cadence, cooldown, and non-finite filtering. On a detection the bank
// rebases itself — the current window becomes the KS reference and the
// sequential tests restart — so the post-adaptation regime is the new
// null hypothesis and a single shift cannot fire forever.
type Detector struct {
	cfg      Config
	ks       *KS
	ph       *PageHinkley
	mk       *MannKendall
	since    int // observations since last check
	cooldown int // remaining suppressed observations
	skipped  uint64
}

// NewDetector returns a bank for one scalar stream. cfg must validate.
func NewDetector(cfg Config) *Detector {
	d := &Detector{cfg: cfg}
	if cfg.KSD > 0 {
		d.ks = NewKS(cfg.Window)
	}
	if cfg.PHLambda > 0 {
		d.ph = NewPageHinkley(cfg.PHDelta)
	}
	if cfg.MKZ > 0 {
		d.mk = NewMannKendall(cfg.Window)
	}
	return d
}

// Skipped returns the number of non-finite inputs ignored so far.
func (d *Detector) Skipped() uint64 { return d.skipped }

// KSDetector returns the underlying KS test (nil when disabled).
func (d *Detector) KSDetector() *KS { return d.ks }

// PHDetector returns the underlying Page–Hinkley test (nil when disabled).
func (d *Detector) PHDetector() *PageHinkley { return d.ph }

// MKDetector returns the underlying Mann–Kendall test (nil when disabled).
func (d *Detector) MKDetector() *MannKendall { return d.mk }

// Observe feeds one value, maintaining every enabled statistic, and
// evaluates the thresholds at the configured cadence. When a test fires
// the bank auto-rebases and enters cooldown; the caller's job is only to
// act on the returned Firing.
func (d *Detector) Observe(x float64) Firing {
	if !finite(x) {
		d.skipped++
		return Firing{}
	}
	if d.ks != nil {
		d.ks.Observe(x)
	}
	if d.ph != nil {
		d.ph.Observe(x)
	}
	if d.mk != nil {
		d.mk.Observe(x)
	}
	if d.cooldown > 0 {
		d.cooldown--
		return Firing{}
	}
	d.since++
	if d.since < d.cfg.CheckEvery {
		return Firing{}
	}
	d.since = 0
	f := Firing{
		KS: d.ks != nil && d.ks.Stat() > d.cfg.KSD,
		PH: d.ph != nil && d.ph.Stat() > d.cfg.PHLambda,
		MK: d.mk != nil && d.mk.Stat() > d.cfg.MKZ,
	}
	if f.Any() {
		d.Rebase()
		d.cooldown = d.cfg.cooldown()
	}
	return f
}

// Rebase re-anchors the bank on the current regime: the KS reference
// becomes the current window and the sequential tests restart.
func (d *Detector) Rebase() {
	if d.ks != nil {
		d.ks.Rebase()
	}
	if d.ph != nil {
		d.ph.Reset()
	}
	if d.mk != nil {
		d.mk.Reset()
	}
	d.since = 0
}

// Stats is the cumulative counter block a Monitor exposes; the serving
// layer copies it into /stats and /metrics.
type Stats struct {
	Observed   uint64 `json:"observed"`
	Skipped    uint64 `json:"skipped"`
	Detections uint64 `json:"detections"`
	KSFires    uint64 `json:"ks_fires"`
	PHFires    uint64 `json:"ph_fires"`
	MKFires    uint64 `json:"mk_fires"`
	// LastFire is the 1-based observation index of the most recent
	// detection, 0 if none yet.
	LastFire uint64 `json:"last_fire"`
}

// Monitor runs one Detector bank per value dimension and aggregates
// fires and counters. It is not safe for concurrent use; in the serving
// layer each pipeline (single shard goroutine) owns one.
type Monitor struct {
	cfg   Config
	dets  []*Detector
	stats Stats
}

// NewMonitor returns a monitor over dim-dimensional readings. cfg must
// validate.
func NewMonitor(dim int, cfg Config) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dim <= 0 {
		return nil, errConfigDim
	}
	m := &Monitor{cfg: cfg, dets: make([]*Detector, dim)}
	for i := range m.dets {
		m.dets[i] = NewDetector(cfg)
	}
	return m, nil
}

// Dim returns the number of per-dimension banks.
func (m *Monitor) Dim() int { return len(m.dets) }

// Config returns the monitor's configuration.
func (m *Monitor) Config() Config { return m.cfg }

// Observe feeds one reading (len >= Dim; extra coordinates are ignored)
// and returns the OR of the per-dimension firings. Counters update as a
// side effect.
func (m *Monitor) Observe(p []float64) Firing {
	m.stats.Observed++
	var agg Firing
	for i, d := range m.dets {
		f := d.Observe(p[i])
		if f.KS {
			agg.KS = true
			m.stats.KSFires++
		}
		if f.PH {
			agg.PH = true
			m.stats.PHFires++
		}
		if f.MK {
			agg.MK = true
			m.stats.MKFires++
		}
	}
	if agg.Any() {
		m.stats.Detections++
		m.stats.LastFire = m.stats.Observed
	}
	return agg
}

// Rebase re-anchors every dimension's bank on the current regime. The
// serving layer calls it after an adaptation that the monitor itself did
// not trigger (e.g. a JS-divergence model fire).
func (m *Monitor) Rebase() {
	for _, d := range m.dets {
		d.Rebase()
	}
}

// Stats returns the cumulative counters, folding in per-dimension
// skipped counts.
func (m *Monitor) Stats() Stats {
	s := m.stats
	for _, d := range m.dets {
		s.Skipped += d.skipped
	}
	return s
}
