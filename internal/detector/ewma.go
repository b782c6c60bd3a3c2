package detector

import (
	"fmt"
	"math"

	"odds/internal/binfmt"
)

// EWMAConfig parameterizes the EWMA dynamic-process-limits backend.
type EWMAConfig struct {
	// Lambda is the exponential smoothing factor in (0, 1]: the weight of
	// the newest reading in the running mean and variance.
	Lambda float64 `json:"lambda,omitempty"`
	// K is the control-limit width: a reading is an outlier when it falls
	// outside mean ± K·sigma on any dimension.
	K float64 `json:"k,omitempty"`
	// MinN is the warm-up arrival count before verdicts fire.
	MinN int `json:"min_n,omitempty"`
}

// WithDefaults fills zero-value holes.
func (c EWMAConfig) WithDefaults() EWMAConfig {
	if c.Lambda == 0 {
		c.Lambda = 0.25
	}
	if c.K == 0 {
		c.K = 3
	}
	if c.MinN == 0 {
		c.MinN = 32
	}
	return c
}

func (c EWMAConfig) validate() error {
	c = c.WithDefaults()
	if !(c.Lambda > 0 && c.Lambda <= 1) || math.IsNaN(c.Lambda) {
		return fmt.Errorf("detector: ewma lambda %v must be in (0, 1]", c.Lambda)
	}
	if c.K <= 0 || math.IsNaN(c.K) {
		return fmt.Errorf("detector: ewma k %v must be positive", c.K)
	}
	if c.MinN < 1 {
		return fmt.Errorf("detector: ewma min_n %d must be positive", c.MinN)
	}
	return nil
}

// EWMA is the dynamic-process-limits backend: per dimension it maintains
// an exponentially-weighted mean and variance, and flags a reading that
// falls outside mean ± K·sigma on any dimension — with the limits
// computed from the state BEFORE the reading folds in, so an extreme
// value cannot mask itself by inflating the very limits that judge it.
// O(1) state and work per reading: the cheapest backend, for fleets
// where cost dominates accuracy.
type EWMA struct {
	cfg Config
	fp  []byte

	mean []float64
	vari []float64
	n    uint64

	flagged uint64
}

func newEWMA(cfg Config) *EWMA {
	return &EWMA{
		cfg:  cfg,
		fp:   cfg.ewmaFingerprint(),
		mean: make([]float64, cfg.Dim),
		vari: make([]float64, cfg.Dim),
	}
}

func (c Config) ewmaFingerprint() []byte {
	e := fingerprintPrefix(c)
	w := c.EWMA.WithDefaults()
	e.F64(w.Lambda)
	e.F64(w.K)
	e.U64(uint64(w.MinN))
	return e.B
}

func (e *EWMA) Kind() Kind { return KindEWMA }

func (e *EWMA) warmed() bool { return e.n >= uint64(e.cfg.EWMA.MinN) }

// outlier judges v against the current limits without folding it in.
func (e *EWMA) outlier(v []float64) bool {
	k := e.cfg.EWMA.K
	for d, x := range v {
		if !finite(x) {
			continue
		}
		if diff := math.Abs(x - e.mean[d]); diff > k*math.Sqrt(e.vari[d]) {
			return true
		}
	}
	return false
}

func (e *EWMA) Ingest(v []float64) Verdict {
	ver := Verdict{Warmed: e.warmed()}
	if ver.Warmed {
		ver.Outlier = e.outlier(v)
	}
	if ver.Outlier {
		e.flagged++
	}
	// Fold the reading into the limits. The first reading initializes the
	// means directly (zero variance), matching the classic EWMA start-up;
	// non-finite coordinates never fold.
	lam := e.cfg.EWMA.Lambda
	for d, x := range v {
		if !finite(x) {
			continue
		}
		if e.n == 0 {
			e.mean[d] = x
			continue
		}
		diff := x - e.mean[d]
		e.mean[d] += lam * diff
		e.vari[d] = (1 - lam) * (e.vari[d] + lam*diff*diff)
	}
	e.n++
	return ver
}

func (e *EWMA) QueryOutlier(v []float64) Verdict {
	ver := Verdict{Warmed: e.warmed()}
	if ver.Warmed {
		ver.Outlier = e.outlier(v)
	}
	return ver
}

func (e *EWMA) Stats() Stats {
	return Stats{
		Kind:       KindEWMA,
		Arrivals:   e.n,
		Warmed:     e.warmed(),
		Flagged:    e.flagged,
		StateBytes: 16 * len(e.mean),
	}
}

// Snapshot state layout: u64 n, u64 flagged, dim f64 means, dim f64
// variances.
func (e *EWMA) Snapshot() ([]byte, error) {
	var w binfmt.Writer
	w.U64(e.n)
	w.U64(e.flagged)
	w.F64s(e.mean)
	w.F64s(e.vari)
	return sealBlob(KindEWMA, e.fp, w.B), nil
}

func (e *EWMA) Restore(blob []byte) error {
	r, err := openBlob(blob, KindEWMA, e.fp)
	if err != nil {
		return err
	}
	n, flagged := r.U64(), r.U64()
	mean := make([]float64, e.cfg.Dim)
	vari := make([]float64, e.cfg.Dim)
	r.F64s(mean)
	r.F64s(vari)
	if err := r.Done(); err != nil {
		return fmt.Errorf("detector: ewma snapshot: %w", err)
	}
	e.n, e.flagged = n, flagged
	e.mean, e.vari = mean, vari
	return nil
}
