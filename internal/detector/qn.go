package detector

import (
	"fmt"
	"math"

	"odds/internal/binfmt"
	"odds/internal/quantile"
)

// qnConsistency scales the first quartile of pairwise absolute
// differences to a consistent estimate of the standard deviation under
// Gaussian data — the d→∞ constant of Rousseeuw–Croux Q_n (the
// finite-sample correction is negligible at streaming window sizes).
const qnConsistency = 2.2219

// QnConfig parameterizes the streaming Q_n robust-scale backend.
type QnConfig struct {
	// Eps is the GK sketch error for the value and difference summaries.
	Eps float64 `json:"eps,omitempty"`
	// Lag is how many most-recent predecessors each arrival is paired
	// with: the difference sketch summarizes |x_i − x_j| for
	// i−Lag ≤ j < i, a windowed subsample of the full pairwise set.
	Lag int `json:"lag,omitempty"`
	// K is the limit width: a reading is an outlier when it sits more
	// than K robust scales from the streaming median on any dimension.
	K float64 `json:"k,omitempty"`
	// MinN is the warm-up arrival count before verdicts fire.
	MinN int `json:"min_n,omitempty"`
}

// WithDefaults fills zero-value holes.
func (c QnConfig) WithDefaults() QnConfig {
	if c.Eps == 0 {
		c.Eps = 0.02
	}
	if c.Lag == 0 {
		c.Lag = 32
	}
	if c.K == 0 {
		c.K = 3
	}
	if c.MinN == 0 {
		c.MinN = 64
	}
	return c
}

func (c QnConfig) validate() error {
	c = c.WithDefaults()
	if !(c.Eps > 0 && c.Eps <= 0.5) || math.IsNaN(c.Eps) {
		return fmt.Errorf("detector: qn eps %v must be in (0, 0.5]", c.Eps)
	}
	if c.Lag < 1 {
		return fmt.Errorf("detector: qn lag %d must be positive", c.Lag)
	}
	if !(c.K > 0) || math.IsInf(c.K, 1) {
		return fmt.Errorf("detector: qn k %v must be positive and finite", c.K)
	}
	if c.MinN < 2 {
		return fmt.Errorf("detector: qn min_n %d must be at least 2", c.MinN)
	}
	return nil
}

// qnDim is one dimension's streaming state: a GK summary of the values
// (median), a GK summary of lagged pairwise absolute differences (robust
// scale), and a ring of the Lag most recent finite values the next
// arrival pairs against.
type qnDim struct {
	vals  *quantile.GK
	diffs *quantile.GK
	ring  []float64
	rhead int
	rcnt  int
}

// Qn is the FQN-style streaming Q_n robust-scale backend (Cafaro et
// al.): per dimension, the median comes from a GK sketch over the values
// and the scale from qnConsistency times the first quartile of a GK
// sketch over lagged pairwise differences. A reading is an outlier when
// it sits more than K scales from the median on any dimension — judged
// against the sketches BEFORE the reading is inserted, so an extreme
// value cannot widen the limits that judge it. Median/Q1-of-differences
// is resistant to the masking that inflates moment-based limits under
// bursts of outliers, at sketch (not O(1)) state cost.
//
// Determinism: verdicts and sketch state are a pure function of the
// ingest sequence. GK queries flush pending inserts, so a query can move
// a flush boundary — pre-warm-up, ingests never query and QueryOutlier
// returns unwarmed without touching the sketches, keeping boundaries
// insert-driven; post-warm-up, every Ingest queries before inserting, so
// a read-only query between arrivals merely flushes the exact pending
// set the next ingest's own query would flush, leaving the tuple state
// on the same trajectory either way. Flush boundaries are state: Fold,
// which skips the queries, still flushes what they would have.
type Qn struct {
	cfg Config
	fp  []byte

	dims []qnDim
	n    uint64

	flagged uint64
}

// qnGrowTuples is headroom for GK tuple growth (it grows with log(εn)),
// so steady-state inserts never reallocate sketch storage: a sketch at
// the default ε holds ≈ 50 tuples at 10⁶ readings, and each of a
// dimension's two sketches pre-allocates this many twice (tuples and
// flush scratch, 24 B each). A sketch that outgrows it pays an amortised
// append.
const qnGrowTuples = 512

func newQn(cfg Config, fp []byte) *Qn {
	q := &Qn{
		cfg:  cfg,
		fp:   fp,
		dims: make([]qnDim, cfg.Dim),
	}
	for d := range q.dims {
		q.dims[d] = newQnDim(cfg.Qn)
	}
	return q
}

func newQnDim(c QnConfig) qnDim {
	vals := quantile.New(c.Eps)
	vals.Grow(qnGrowTuples)
	diffs := quantile.New(c.Eps)
	diffs.Grow(qnGrowTuples)
	return qnDim{vals: vals, diffs: diffs, ring: make([]float64, c.Lag)}
}

func (q *Qn) Kind() Kind { return KindQn }

func (q *Qn) warmed() bool { return q.n >= uint64(q.cfg.Qn.MinN) }

// outlier judges v against the current sketches. The implicit flush
// inside Query is transparent post-warm-up (see the type comment), so
// this is read-only in effect.
func (q *Qn) outlier(v []float64) bool {
	k := q.cfg.Qn.K
	out := false
	// Every dimension is evaluated — no short-circuit — so the number and
	// order of sketch queries (and their implicit flushes) per arrival is
	// a function of the reading's finite-dimension pattern alone, never of
	// which dimension tripped first. BruteQn replays the same protocol.
	for d, x := range v {
		if !finite(x) {
			continue
		}
		qd := &q.dims[d]
		if qd.vals.N() == 0 || qd.diffs.N() == 0 {
			continue
		}
		med := qd.vals.Query(0.5)
		scale := qnConsistency * qd.diffs.Query(0.25)
		if math.Abs(x-med) > k*scale {
			out = true
		}
	}
	return out
}

func (q *Qn) Ingest(v []float64) Verdict {
	return q.Fold(v, q.warmed() && q.outlier(v))
}

// Fold keeps the flush boundaries a judgement sets: once warmed, it
// flushes every sketch the judgement of v queries (a no-op after Ingest's
// own queries), so a replica that skips the two lookups stays on its
// primary's tuple trajectory.
func (q *Qn) Fold(v []float64, outlier bool) Verdict {
	ver := fold(q.warmed(), outlier, &q.flagged)
	if ver.Warmed {
		for d, x := range v {
			if qd := &q.dims[d]; finite(x) && qd.vals.N() > 0 && qd.diffs.N() > 0 {
				qd.vals.Flush()
				qd.diffs.Flush()
			}
		}
	}
	// Fold the reading in: value into the median sketch, one absolute
	// difference per ringed predecessor (most recent first) into the
	// scale sketch, then the value into the ring. Non-finite coordinates
	// skip their dimension entirely — nothing enters a sketch or ring, so
	// no later pairing can see them.
	for d, x := range v {
		if !finite(x) {
			continue
		}
		qd := &q.dims[d]
		qd.vals.Insert(x)
		lag := len(qd.ring)
		for j := 1; j <= qd.rcnt; j++ {
			i := qd.rhead - j
			if i < 0 {
				i += lag
			}
			qd.diffs.Insert(math.Abs(x - qd.ring[i]))
		}
		qd.ring[qd.rhead] = x
		qd.rhead++
		if qd.rhead == lag {
			qd.rhead = 0
		}
		if qd.rcnt < lag {
			qd.rcnt++
		}
	}
	q.n++
	return ver
}

func (q *Qn) QueryOutlier(v []float64) Verdict {
	ver := Verdict{Warmed: q.warmed()}
	if ver.Warmed {
		ver.Outlier = q.outlier(v)
	}
	return ver
}

func (q *Qn) Stats() Stats {
	bytes := 0
	for d := range q.dims {
		qd := &q.dims[d]
		bytes += qd.vals.MemoryBytes() + qd.diffs.MemoryBytes() + 8*len(qd.ring)
	}
	return Stats{
		Kind:       KindQn,
		Arrivals:   q.n,
		Warmed:     q.warmed(),
		Flagged:    q.flagged,
		StateBytes: bytes,
	}
}

// Snapshot state layout: u64 n, u64 flagged, then per dimension: values
// sketch blob, differences sketch blob, u32 ring head, u32 ring count,
// Lag f64 ring slots.
func (q *Qn) Snapshot() ([]byte, error) {
	var w binfmt.Writer
	w.U64(q.n)
	w.U64(q.flagged)
	for d := range q.dims {
		qd := &q.dims[d]
		vb, err := qd.vals.MarshalBinary()
		if err != nil {
			return nil, err
		}
		db, err := qd.diffs.MarshalBinary()
		if err != nil {
			return nil, err
		}
		w.Bytes(vb)
		w.Bytes(db)
		w.U32(uint32(qd.rhead))
		w.U32(uint32(qd.rcnt))
		w.F64s(qd.ring)
	}
	return sealBlob(KindQn, q.fp, w.B), nil
}

func (q *Qn) Restore(blob []byte) error {
	r, err := openBlob(blob, KindQn, q.fp)
	if err != nil {
		return err
	}
	n, flagged := r.U64(), r.U64()
	lag := q.cfg.Qn.Lag
	dims := make([]qnDim, q.cfg.Dim)
	for d := range dims {
		vb, db := r.Bytes(), r.Bytes()
		rhead, rcnt := r.U32(), r.U32()
		if r.Err() != nil {
			break
		}
		if int(rhead) >= lag || int(rcnt) > lag {
			return fmt.Errorf("detector: qn snapshot: ring position %d/%d outside lag %d", rhead, rcnt, lag)
		}
		vals, err := q.restoreSketch(vb)
		if err != nil {
			return fmt.Errorf("detector: qn values sketch: %w", err)
		}
		diffs, err := q.restoreSketch(db)
		if err != nil {
			return fmt.Errorf("detector: qn differences sketch: %w", err)
		}
		ring := make([]float64, lag)
		r.F64s(ring)
		dims[d] = qnDim{vals: vals, diffs: diffs, ring: ring, rhead: int(rhead), rcnt: int(rcnt)}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("detector: qn snapshot: %w", err)
	}
	// Pre-grow only once the whole blob has been accepted, so a rejected
	// one costs no more than its own decoded size.
	for d := range dims {
		dims[d].vals.Grow(qnGrowTuples)
		dims[d].diffs.Grow(qnGrowTuples)
	}
	q.n, q.flagged, q.dims = n, flagged, dims
	return nil
}

// restoreSketch decodes one GK blob. Its eps must be the configured one:
// Grow sizes the pending buffer by 1/eps, so the blob's own claim is
// checked before anything is sized by it.
func (q *Qn) restoreSketch(blob []byte) (*quantile.GK, error) {
	s, err := quantile.UnmarshalGK(blob)
	if err != nil {
		return nil, err
	}
	if s.Eps() != q.cfg.Qn.Eps {
		return nil, fmt.Errorf("eps %v, configured %v", s.Eps(), q.cfg.Qn.Eps)
	}
	return s, nil
}
