package detector

import (
	"fmt"
	"math"
	"slices"

	"odds/internal/binfmt"
	"odds/internal/window"
)

// qnConsistency scales the first quartile of pairwise absolute
// differences to a consistent estimate of the standard deviation under
// Gaussian data — the d→∞ constant of Rousseeuw–Croux Q_n (the
// finite-sample correction is negligible at streaming window sizes).
const qnConsistency = 2.2219

// QnConfig parameterizes the windowed Q_n robust-scale backend.
type QnConfig struct {
	// Eps is the scale's rank error: the scale is taken from a pairwise
	// difference of the window whose rank among the window's C(n,2)
	// differences is within ⌊Eps·C(n,2)⌋ of the first quartile's.
	Eps float64 `json:"eps,omitempty"`
	// Window is how many most recent finite values each dimension keeps.
	// The median and the scale are those of this window, so a regime is
	// forgotten Window finite readings after it ends.
	Window int `json:"window,omitempty"`
	// K is the limit width: a reading is an outlier when it sits more
	// than K robust scales from the window median on any dimension.
	K float64 `json:"k,omitempty"`
	// MinN is the warm-up arrival count before verdicts fire.
	MinN int `json:"min_n,omitempty"`
}

// WithDefaults fills zero-value holes.
func (c QnConfig) WithDefaults() QnConfig {
	if c.Eps == 0 {
		c.Eps = 0.02
	}
	if c.Window == 0 {
		c.Window = 256
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
	if c.Window < 2 {
		return fmt.Errorf("detector: qn window %d must be at least 2", c.Window)
	}
	if !(c.K > 0) || math.IsInf(c.K, 1) {
		return fmt.Errorf("detector: qn k %v must be positive and finite", c.K)
	}
	if c.MinN < 2 {
		return fmt.Errorf("detector: qn min_n %d must be at least 2", c.MinN)
	}
	return nil
}

// qnDim is one dimension's state: the window of its last Window finite
// values, the pairwise difference s the scale is read from, and how many
// of the window's pairs differ by at most s (le) and by less than s (lt).
// A pair's difference is fl(y−x) for its larger value y and smaller x.
type qnDim struct {
	win    window.Sorted
	s      float64
	lt, le int
}

// Qn is a windowed, exact-rank Q_n robust-scale backend (after FQN,
// Cafaro et al.): per dimension, the median of the last Window finite
// values and qnConsistency times a pairwise difference s of them whose
// rank among the C(n,2) differences is within ⌊Eps·C(n,2)⌋ of the first
// quartile's, k = ⌈C(n,2)/4⌉. A reading is an outlier when it sits more
// than K scales from the median on any dimension, judged BEFORE it
// enters the window, so an extreme value cannot widen the limits that
// judge it.
//
// A slide moves one value out and one in, and the pair counts at s move
// by each value's neighbours within s. s is re-selected, as the exact
// k-th difference, only when its rank interval [lt+1, le] leaves the
// band. Everything is a function of the windows and s alone, and a
// judgement writes nothing: QueryOutlier is pure and Fold is the slide.
type Qn struct {
	cfg Config
	fp  []byte

	dims []qnDim
	n    uint64

	flagged uint64

	sel       qnSelector
	reselects uint64 // re-selections so far; a diagnostic, not state
}

func newQn(cfg Config, fp []byte) *Qn {
	return &Qn{cfg: cfg, fp: fp, dims: newQnDims(cfg), sel: newQnSelector(cfg.Qn.Window)}
}

func newQnDims(cfg Config) []qnDim {
	dims := make([]qnDim, cfg.Dim)
	for d := range dims {
		dims[d].win = window.NewSorted(cfg.Qn.Window)
	}
	return dims
}

func (q *Qn) Kind() Kind { return KindQn }

func (q *Qn) warmed() bool { return q.n >= uint64(q.cfg.Qn.MinN) }

// outlier judges v against the current windows; it reads nothing it
// writes. A dimension whose window holds no pair yet has no scale and
// never trips.
func (q *Qn) outlier(v []float64) bool {
	k := q.cfg.Qn.K
	for d, x := range v {
		qd := &q.dims[d]
		n := qd.win.Len()
		if !finite(x) || n < 2 {
			continue
		}
		med := qd.win.Values()[(n-1)/2] // rank ⌈n/2⌉
		if math.Abs(x-med) > k*(qnConsistency*qd.s) {
			return true
		}
	}
	return false
}

func (q *Qn) Ingest(v []float64) Verdict {
	return q.Fold(v, q.warmed() && q.outlier(v))
}

// Fold slides every dimension's window by its coordinate of v. A
// non-finite coordinate skips its dimension: nothing enters the window,
// so no later pairing can see it.
func (q *Qn) Fold(v []float64, outlier bool) Verdict {
	ver := fold(q.warmed(), outlier, &q.flagged)
	for d, x := range v {
		if finite(x) {
			q.slide(&q.dims[d], x)
		}
	}
	q.n++
	return ver
}

// slide evicts the oldest value once the window is full, admits x, moves
// the counts at s by each value's neighbours within s, and re-selects s
// if its rank has left the band.
func (q *Qn) slide(qd *qnDim, x float64) {
	if old, at, ok := qd.win.Pop(); ok {
		v := qd.win.Values()
		lt, le := within(v[:at], v[at:], old, qd.s)
		qd.lt -= lt
		qd.le -= le
	}
	at := qd.win.Push(x)
	v := qd.win.Values()
	lt, le := within(v[:at], v[at+1:], x, qd.s)
	qd.lt += lt
	qd.le += le
	n := len(v)
	if n < 2 || qd.inBand(q.cfg.Qn.Eps) {
		return
	}
	k := (pairs(n) + 3) / 4
	qd.s = q.sel.kth(v, k, qd.s, qd.guess(k))
	qd.lt, qd.le = countPairs(v, qd.s)
	q.reselects++
}

// guess estimates the k-th difference from s and its counts: s moved by
// the missing ranks at 1.5 times the mean density of the differences up
// to s. It is only a first trial for kth; NaN when there is no density.
func (qd *qnDim) guess(k int) float64 {
	if qd.le == 0 || !(qd.s > 0) {
		return math.NaN()
	}
	ranks := k - qd.le // the answer is above s
	if qd.le >= k {
		ranks = k - 1 - qd.lt // the answer is below s
	}
	return qd.s + float64(qd.s*(1.5*float64(ranks)/float64(qd.le)))
}

// pairs returns C(n, 2).
func pairs(n int) int { return n * (n - 1) / 2 }

// inBand reports whether s's rank interval [lt+1, le] meets the ranks
// the scale may hold: the first quartile's k = ⌈N/4⌉ widened by
// ⌊eps·N⌋ either way and clipped to [1, N], N = C(n,2). When no pair
// differs by exactly s the interval is empty (lt = le) and the test says
// that the differences on either side of s both hold band ranks.
func (qd *qnDim) inBand(eps float64) bool {
	N := pairs(qd.win.Len())
	k := (N + 3) / 4
	slack := int(eps * float64(N))
	return qd.lt < min(k+slack, N) && qd.le >= max(k-slack, 1)
}

// within counts the values of below (ascending, all under x) and above
// (ascending, none under x) whose difference from x is below s (lt) and
// at most s (le). Above x the difference fl(y−x) grows with y and below
// it fl(x−y) shrinks, so each side's members form a run that ends at x,
// found by binary search. A pair differing by exactly s is rare off a
// grid, so the second search of each side runs only when the first
// stopped on one.
func within(below, above []float64, x, s float64) (lt, le int) {
	lt = closeRun(above, x, s, false)
	le = lt
	if rest := above[lt:]; len(rest) > 0 && rest[0]-x <= s {
		le += closeRun(rest, x, s, true)
	}
	far := farRun(below, x, s, false)
	farOrAt := far
	if rest := below[far:]; len(rest) > 0 && x-rest[0] >= s {
		farOrAt += farRun(rest, x, s, true)
	}
	return lt + len(below) - farOrAt, le + len(below) - far
}

// closeRun returns the length of a's leading run with fl(y−x) < s, or ≤ s
// when orAt; farRun the same for fl(x−y) > s, or ≥ s. They search as
// window.LowerBound does.
func closeRun(a []float64, x, s float64, orAt bool) int {
	if len(a) == 0 {
		return 0
	}
	base, n := 0, len(a)
	for n > 1 {
		half := n >> 1
		if d := a[base+half] - x; d < s || orAt && d == s {
			base += half
		}
		n -= half
	}
	if d := a[base] - x; d < s || orAt && d == s {
		base++
	}
	return base
}

func farRun(a []float64, x, s float64, orAt bool) int {
	if len(a) == 0 {
		return 0
	}
	base, n := 0, len(a)
	for n > 1 {
		half := n >> 1
		if d := x - a[base+half]; d > s || orAt && d == s {
			base += half
		}
		n -= half
	}
	if d := x - a[base]; d > s || orAt && d == s {
		base++
	}
	return base
}

// countPairs counts the pairs of the ascending v that differ by less than
// s (lt) and by at most s (le). Row i's differences fl(v[j]−v[i]), j > i,
// ascend with j, and each row's cut is at or past the previous row's, so
// one forward pointer per count suffices.
func countPairs(v []float64, s float64) (lt, le int) {
	jl, je := 0, 0
	for i, x := range v {
		jl, je = max(jl, i+1), max(je, i+1)
		for jl < len(v) && v[jl]-x < s {
			jl++
		}
		for je < len(v) && v[je]-x <= s {
			je++
		}
		lt += jl - i - 1
		le += je - i - 1
	}
	return lt, le
}

// qnSelector is the re-selection's scratch, sized once for the window.
type qnSelector struct {
	lo, hi, cut []int // per-row candidate bounds [lo[i], hi[i]) and a trial cut
	cand        []float64
}

func newQnSelector(w int) qnSelector {
	return qnSelector{lo: make([]int, w), hi: make([]int, w), cut: make([]int, w), cand: make([]float64, 0, max(w, 8))}
}

// kth returns the k-th smallest (1-based, 1 ≤ k ≤ C(n,2)) difference
// fl(v[j]−v[i]), i < j, of the ascending v, a zero as +0. The candidates
// are one index run per row, [lo[i], hi[i]). A trial value between the
// smallest and largest candidate — a hint first, then their midpoint,
// after 32 trials the midpoint of their bit patterns — is counted with
// one forward pointer and cuts the runs on the side the answer is not
// on, removing at least one candidate; at most n/4 left are sorted. The
// answer does not depend on the trials.
func (sel *qnSelector) kth(v []float64, k int, hints ...float64) float64 {
	n := len(v)
	lo, hi, cut := sel.lo[:n], sel.hi[:n], sel.cut[:n]
	for i := range lo {
		lo[i], hi[i] = i+1, n
	}
	below := 0 // differences under every candidate
	for iter := 0; ; iter++ {
		left, cmin, cmax := 0, math.Inf(1), math.Inf(-1)
		for i, x := range v {
			if lo[i] < hi[i] {
				left += hi[i] - lo[i]
				if d := v[lo[i]] - x; d < cmin {
					cmin = d
				}
				if d := v[hi[i]-1] - x; d > cmax {
					cmax = d
				}
			}
		}
		if cmin == cmax {
			return cmin + 0 // every candidate is the answer; −0 + 0 = +0
		}
		if left <= max(n/4, 8) {
			break
		}
		var t float64
		switch {
		case iter < len(hints) && hints[iter] >= cmin && hints[iter] < cmax:
			t = hints[iter]
		case iter < 32 && !math.IsInf(cmax, 1):
			t = cmin + float64((cmax-cmin)/2)
		default:
			t = math.Float64frombits((math.Float64bits(cmin+0) + math.Float64bits(cmax)) / 2)
		}
		if t >= cmax {
			t = cmin
		}
		c, j := below, 0
		for i, x := range v {
			j = max(j, lo[i])
			for j < hi[i] && v[j]-x <= t {
				j++
			}
			cut[i] = j
			c += j - lo[i]
		}
		if c >= k {
			copy(hi, cut) // the answer is at most t
		} else {
			copy(lo, cut) // the answer is above t
			below = c
		}
	}
	cand := sel.cand[:0]
	for i, x := range v {
		for j := lo[i]; j < hi[i]; j++ {
			cand = append(cand, v[j]-x)
		}
	}
	slices.Sort(cand)
	sel.cand = cand
	return cand[k-below-1] + 0
}

func (q *Qn) QueryOutlier(v []float64) Verdict {
	ver := Verdict{Warmed: q.warmed()}
	if ver.Warmed {
		ver.Outlier = q.outlier(v)
	}
	return ver
}

// qnDimBytes is a dimension's footprint beside its residents: s and the
// two pair counts.
const qnDimBytes = 24

func (q *Qn) Stats() Stats {
	bytes := 0
	for d := range q.dims {
		bytes += 16*q.dims[d].win.Len() + qnDimBytes // ring and sorted copy
	}
	return Stats{
		Kind:       KindQn,
		Arrivals:   q.n,
		Warmed:     q.warmed(),
		Flagged:    q.flagged,
		StateBytes: bytes,
	}
}

// Snapshot state layout: u64 n, u64 flagged, then per dimension: the
// window (u32 count, then its values oldest first) and f64 s. The pair
// counts are not written; Restore recounts them.
func (q *Qn) Snapshot() ([]byte, error) {
	var w binfmt.Writer
	w.U64(q.n)
	w.U64(q.flagged)
	for d := range q.dims {
		q.dims[d].win.Append(&w)
		w.F64(q.dims[d].s)
	}
	return sealBlob(KindQn, q.fp, w.B), nil
}

// Restore refuses a window longer than the configured one or holding a
// non-finite value, a window that saw more values than the backend saw
// arrivals, and an s no slide could have left: nonzero before the window
// holds a pair, or with a rank outside the band.
func (q *Qn) Restore(blob []byte) error {
	r, err := openBlob(blob, KindQn, q.fp)
	if err != nil {
		return err
	}
	n, flagged := r.U64(), r.U64()
	dims := newQnDims(q.cfg)
	for d := range dims {
		qd := &dims[d]
		qd.win.Load(&r)
		qd.s = r.F64()
		if r.Err() != nil {
			break
		}
		qd.lt, qd.le = countPairs(qd.win.Values(), qd.s)
		switch m := qd.win.Len(); {
		case uint64(m) > n:
			r.Fail(fmt.Errorf("window of %d values after %d arrivals", m, n))
		case m < 2 && qd.s != 0 || m >= 2 && !qd.inBand(q.cfg.Qn.Eps):
			r.Fail(fmt.Errorf("scale %v not a band rank of its window", qd.s))
		}
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("detector: qn snapshot: %w", err)
	}
	q.n, q.flagged, q.dims = n, flagged, dims
	return nil
}
