package detector

import (
	"math"
	"math/rand"
	"sort"

	"odds/internal/distance"
	"odds/internal/kernel"
	"odds/internal/window"
)

// Executable specifications for the oracle suite: each BruteX replays a
// full ingest history from scratch with naive data structures — no rings,
// no cached models, no incremental state — and returns the verdict the
// streaming backend must produce for the NEXT reading. The differential
// tests pin every sampled streaming verdict to these, so any incremental
// bookkeeping bug (ring rotation, snapshot restore, count updates,
// rng replay) surfaces as a brute/streamed disagreement.

// BruteEWMA refolds the EWMA recurrence over the whole history and
// judges probe against the resulting limits. Bit-exact with the
// streaming backend: the recurrence is evaluated in the same order with
// the same operations.
func BruteEWMA(cfg EWMAConfig, dim int, history [][]float64, probe []float64) Verdict {
	cfg = cfg.WithDefaults()
	mean := make([]float64, dim)
	vari := make([]float64, dim)
	for i, v := range history {
		for d := 0; d < dim; d++ {
			x := v[d]
			if !finite(x) {
				continue
			}
			if i == 0 {
				mean[d] = x
				continue
			}
			diff := x - mean[d]
			mean[d] += float64(cfg.Lambda * diff)
			vari[d] = (1 - cfg.Lambda) * (vari[d] + float64(cfg.Lambda*diff*diff))
		}
	}
	ver := Verdict{Warmed: len(history) >= cfg.MinN}
	if !ver.Warmed {
		return ver
	}
	for d := 0; d < dim; d++ {
		x := probe[d]
		if !finite(x) {
			continue
		}
		if math.Abs(x-mean[d]) > cfg.K*math.Sqrt(vari[d]) {
			ver.Outlier = true
		}
	}
	return ver
}

// BruteQn replays the windowed Q_n protocol over history with plain
// slices — each dimension's window is the tail of its finite values, its
// pair counts are recomputed over all O(w²) pairs after every slide, and
// a re-selection sorts every difference — then judges probe against the
// windows' medians and scales. Bit-exact with the streaming backend: the
// band test sees the same counts, and a re-selection takes the k-th
// difference, a value that depends on the window alone.
func BruteQn(cfg QnConfig, dim int, history [][]float64, probe []float64) Verdict {
	b := newBruteQn(cfg, dim)
	for _, v := range history {
		b.fold(v)
	}
	ver := Verdict{Warmed: len(history) >= b.cfg.MinN}
	if ver.Warmed {
		ver.Outlier = b.judge(probe)
	}
	return ver
}

// bruteQn is BruteQn's replay state: each dimension's window in arrival
// order and its s.
type bruteQn struct {
	cfg    QnConfig
	wins   [][]float64
	scales []float64
}

func newBruteQn(cfg QnConfig, dim int) *bruteQn {
	return &bruteQn{cfg: cfg.WithDefaults(), wins: make([][]float64, dim), scales: make([]float64, dim)}
}

// fold slides every dimension with a finite coordinate and re-selects s
// where its rank has left the band.
func (b *bruteQn) fold(v []float64) {
	for d := range b.wins {
		if !finite(v[d]) {
			continue
		}
		w := append(b.wins[d], v[d])
		if len(w) > b.cfg.Window {
			w = w[1:]
		}
		b.wins[d] = w
		if len(w) < 2 {
			continue
		}
		var lt, le int
		for i := range w {
			for j := i + 1; j < len(w); j++ {
				diff := math.Abs(w[i] - w[j])
				if diff < b.scales[d] {
					lt++
				}
				if diff <= b.scales[d] {
					le++
				}
			}
		}
		n := len(w) * (len(w) - 1) / 2
		k := int(math.Ceil(float64(n) / 4))
		slack := int(math.Floor(b.cfg.Eps * float64(n)))
		if lt+1 > min(k+slack, n) || le < max(k-slack, 1) {
			b.scales[d] = bruteKthDiff(w, k)
		}
	}
}

// judge reports whether probe sits more than K scales from a window's
// median on any dimension whose window holds a pair.
func (b *bruteQn) judge(probe []float64) bool {
	out := false
	for d, w := range b.wins {
		x := probe[d]
		if !finite(x) || len(w) < 2 {
			continue
		}
		sorted := append([]float64(nil), w...)
		sort.Float64s(sorted)
		med := sorted[int(math.Ceil(float64(len(sorted))/2))-1]
		if math.Abs(x-med) > b.cfg.K*(qnConsistency*b.scales[d]) {
			out = true
		}
	}
	return out
}

// bruteKthDiff returns the k-th smallest (1-based) of w's pairwise
// absolute differences.
func bruteKthDiff(w []float64, k int) float64 {
	var diffs []float64
	for i := range w {
		for j := i + 1; j < len(w); j++ {
			diffs = append(diffs, math.Abs(w[i]-w[j]))
		}
	}
	sort.Float64s(diffs)
	return diffs[k-1]
}

// BruteQnScale is the exact robust scale of a window: qnConsistency times
// the first quartile — rank ⌈N/4⌉ — of its N pairwise absolute
// differences, which it also returns, sorted. The oracle suite checks the
// streamed scale's rank in this population against the band.
func BruteQnScale(w []float64) (scale float64, diffs []float64) {
	for i := range w {
		for j := i + 1; j < len(w); j++ {
			diffs = append(diffs, math.Abs(w[i]-w[j]))
		}
	}
	if len(diffs) == 0 {
		return 0, nil
	}
	sort.Float64s(diffs)
	return qnConsistency * diffs[int(math.Ceil(float64(len(diffs))/4))-1], diffs
}

// BruteCoreset replays the sensitivity-sampling reservoir from scratch —
// naive slices, fresh models at every rebuild boundary — and judges
// probe against the resulting model. Bit-exact with the streaming
// backend: admissions consume draws from the same seeded source in the
// same order, and kernel construction is deterministic.
func BruteCoreset(cfg CoresetConfig, dist distance.Params, dim int, seed int64, history [][]float64, probe []float64) Verdict {
	cfg = cfg.WithDefaults()
	rng := rand.New(newSplitmix(seed))
	var kept []window.Point
	mean := make([]float64, dim)
	m2 := make([]float64, dim)
	mass := 0.0
	var model *kernel.Estimator
	dirty := false
	sinceBuild := 0
	for i, v := range history {
		n := i + 1
		for d := 0; d < dim; d++ {
			x := v[d]
			if !finite(x) {
				continue
			}
			delta := x - mean[d]
			mean[d] += delta / float64(n)
			m2[d] += float64(delta * (x - mean[d]))
		}
		switch {
		case !allFinite(v):
			// A non-finite reading is never kept.
		case len(kept) < cfg.Size:
			kept = append(kept, append(window.Point(nil), v...))
			dirty = true
		default:
			d2 := math.Inf(1)
			for _, p := range kept {
				sum := 0.0
				for d := 0; d < dim; d++ {
					diff := v[d] - p[d]
					sum += float64(diff * diff)
				}
				if sum < d2 {
					d2 = sum
				}
			}
			if d2 > 0 && finite(d2) {
				mass += d2
				if p := float64(cfg.Size) * d2 / mass; rng.Float64() < p {
					copy(kept[rng.Intn(cfg.Size)], v)
					dirty = true
				}
			}
		}
		sinceBuild++
		if n >= cfg.MinN && len(kept) > 0 &&
			(model == nil || (dirty && sinceBuild >= cfg.RebuildEvery)) {
			sigmas := make([]float64, dim)
			for d := range sigmas {
				if n > 1 {
					sigmas[d] = math.Sqrt(m2[d] / float64(n-1))
				}
			}
			wc := float64(cfg.WindowCount)
			if float64(n) < wc {
				wc = float64(n)
			}
			m, err := kernel.FromSample(kept, sigmas, wc)
			if err == nil {
				model = m
				dirty = false
				sinceBuild = 0
			}
		}
	}
	ver := Verdict{Warmed: len(history) >= cfg.MinN && model != nil}
	if ver.Warmed {
		ver.Outlier = model.Count(window.Point(probe), dist.Radius) < dist.Threshold
	}
	return ver
}
