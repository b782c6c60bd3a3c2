package detector

import (
	"math"
	"math/rand"
	"sort"

	"odds/internal/distance"
	"odds/internal/kernel"
	"odds/internal/quantile"
	"odds/internal/window"
)

// Executable specifications for the oracle suite: each BruteX replays a
// full ingest history from scratch with naive data structures — no rings,
// no cached models, no incremental state — and returns the verdict the
// streaming backend must produce for the NEXT reading. The differential
// tests pin every sampled streaming verdict to these, so any incremental
// bookkeeping bug (ring rotation, snapshot restore, flush scheduling,
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

// BruteQn rebuilds the per-dimension GK sketches from scratch by
// replaying the streaming backend's exact ingest protocol over history —
// including the post-warm-up pre-insert queries, whose implicit flushes
// shift GK batch boundaries — then judges probe. Bit-exact with the
// streaming backend: GK summaries are deterministic functions of their
// interleaved insert/query sequence (a property pinned by the quantile
// package's own tests), and this replays the identical sequence through
// fresh summaries. The lagged predecessors come from plain history
// slices here, not a ring, so ring-rotation and snapshot-restore bugs in
// the backend cannot hide.
func BruteQn(cfg QnConfig, dim int, history [][]float64, probe []float64) Verdict {
	cfg = cfg.WithDefaults()
	type bdim struct {
		vals, diffs *quantile.GK
		finites     []float64
	}
	dims := make([]bdim, dim)
	for d := range dims {
		dims[d] = bdim{vals: quantile.New(cfg.Eps), diffs: quantile.New(cfg.Eps)}
	}
	judge := func(v []float64) bool {
		out := false
		for d := 0; d < dim; d++ {
			x := v[d]
			if !finite(x) {
				continue
			}
			bd := &dims[d]
			if bd.vals.N() == 0 || bd.diffs.N() == 0 {
				continue
			}
			med := bd.vals.Query(0.5)
			scale := qnConsistency * bd.diffs.Query(0.25)
			if math.Abs(x-med) > cfg.K*scale {
				out = true
			}
		}
		return out
	}
	for i, v := range history {
		if i >= cfg.MinN {
			judge(v) // replay the pre-insert query flushes
		}
		for d := 0; d < dim; d++ {
			x := v[d]
			if !finite(x) {
				continue
			}
			bd := &dims[d]
			bd.vals.Insert(x)
			f := bd.finites
			for j := len(f) - 1; j >= 0 && j >= len(f)-cfg.Lag; j-- {
				bd.diffs.Insert(math.Abs(x - f[j]))
			}
			bd.finites = append(bd.finites, x)
		}
	}
	ver := Verdict{Warmed: len(history) >= cfg.MinN}
	if ver.Warmed {
		ver.Outlier = judge(probe)
	}
	return ver
}

// BruteQnScale is the exact (sorting, no sketch) robust scale over the
// same lagged-difference population the streaming sketch summarizes:
// qnConsistency times the first quartile of {|x_i − x_j| : i−Lag ≤ j < i}
// restricted to finite values. The oracle suite checks the streamed
// scale's rank against this population within the GK guarantee.
func BruteQnScale(xs []float64, lag int) (scale float64, diffs []float64) {
	var fin []float64
	for _, x := range xs {
		if !finite(x) {
			continue
		}
		for j := len(fin) - 1; j >= 0 && j >= len(fin)-lag; j-- {
			diffs = append(diffs, math.Abs(x-fin[j]))
		}
		fin = append(fin, x)
	}
	if len(diffs) == 0 {
		return 0, nil
	}
	sort.Float64s(diffs)
	// Empirical quantile at the same rank convention as GK's target rank
	// r = ceil(phi·n).
	r := int(math.Ceil(0.25 * float64(len(diffs))))
	if r < 1 {
		r = 1
	}
	return qnConsistency * diffs[r-1], diffs
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
