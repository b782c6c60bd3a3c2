package detector

// The differential oracle suite for the streaming backends: over seeded
// randomized configs (dimension, window scale, loss rate), sampled
// streaming ingest verdicts are pinned to the from-scratch executable
// specifications in brute.go — BruteEWMA bit-exact refold, BruteQn plain-slice
// window replay with O(w²) pair counts, BruteCoreset seeded
// reservoir replay — with snapshot→restore swaps interleaved mid-stream
// so incremental bookkeeping and restore bugs both surface as a
// brute/streamed disagreement. A failing history is ddmin-shrunk and
// printed as a Go literal reproducer, mirroring internal/drift's suite.

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"odds/internal/oracle"
	"odds/internal/stats"
	"odds/internal/window"
)

// oracleHistory renders one vector arrival sequence for a config: the
// oracle's clustered stream with non-finite probes injected into random
// coordinates at the config's loss rate.
func oracleHistory(c oracle.Config) [][]float64 {
	s := c.NewStream()
	r := stats.NewRand(c.Seed ^ 0x5eed)
	hist := make([][]float64, 0, c.Steps)
	for i := 0; i < c.Steps; i++ {
		v := append([]float64(nil), s.Next()...)
		if r.Float64() < c.LossRate*0.3 {
			d := r.Intn(c.Dim)
			switch r.Intn(3) {
			case 0:
				v[d] = math.NaN()
			case 1:
				v[d] = math.Inf(1)
			default:
				v[d] = math.Inf(-1)
			}
		}
		hist = append(hist, v)
	}
	return hist
}

// oracleBackendConfigs maps a shared oracle.Config onto the three new
// backends, sized so the O(n·window) brute replays stay cheap and the
// warm-ups are well inside the stream.
func oracleBackendConfigs(c oracle.Config) []Config {
	base := testConfig(KindQn, c.Dim, c.Seed)
	qn := base
	qn.Kind = KindQn
	cs := base
	cs.Kind = KindCoreset
	cs.Coreset.WindowCount = c.WindowCap
	ew := base
	ew.Kind = KindEWMA
	return []Config{ew, qn, cs}
}

// bruteVerdict dispatches to the backend's executable specification.
func bruteVerdict(cfg Config, history [][]float64, probe []float64) Verdict {
	switch cfg.Kind {
	case KindEWMA:
		return BruteEWMA(cfg.EWMA, cfg.Dim, history, probe)
	case KindQn:
		return BruteQn(cfg.Qn, cfg.Dim, history, probe)
	case KindCoreset:
		return BruteCoreset(cfg.Coreset, cfg.Distance, cfg.Dim, cfg.Seed, history, probe)
	}
	panic("no brute for " + cfg.Kind)
}

// replayDiff streams history through a fresh backend, comparing sampled
// ingest verdicts against the brute replay of the prefix, optionally
// swapping the live instance for a snapshot-restored one at interleaved
// points. Returns the step and description of the first divergence
// (-1, "" if none).
func replayDiff(cfg Config, history [][]float64, checkEvery int, snapshots bool) (int, string) {
	det, err := New(cfg)
	if err != nil {
		return 0, err.Error()
	}
	if checkEvery < 1 {
		checkEvery = 1
	}
	for i, v := range history {
		check := cfg.Kind == KindEWMA || i%checkEvery == 0 || i == len(history)-1
		var want Verdict
		if check {
			want = bruteVerdict(cfg, history[:i], v)
		}
		got := det.Ingest(v)
		if check && got != want {
			return i, fmt.Sprintf("%s ingest verdict %+v != brute %+v", cfg.Kind, got, want)
		}
		if snapshots && i%(2*checkEvery) == checkEvery {
			blob, err := det.Snapshot()
			if err != nil {
				return i, fmt.Sprintf("snapshot: %v", err)
			}
			fresh, err := New(cfg)
			if err != nil {
				return i, err.Error()
			}
			if err := fresh.Restore(blob); err != nil {
				return i, fmt.Sprintf("restore: %v", err)
			}
			det = fresh
		}
	}
	return -1, ""
}

func TestBackendOracle(t *testing.T) {
	for _, c := range oracle.Configs(30, 0xbac0de) {
		c := c
		t.Run(c.Name(), func(t *testing.T) {
			t.Parallel()
			history := oracleHistory(c)
			for _, cfg := range oracleBackendConfigs(c) {
				checkEvery := len(history) / 8
				step, msg := replayDiff(cfg, history, checkEvery, true)
				if step < 0 {
					continue
				}
				shrunk := oracle.ShrinkSlice(history, func(sub [][]float64) bool {
					_, m := replayDiff(cfg, sub, len(sub)/8, true)
					return m != ""
				})
				_, smsg := replayDiff(cfg, shrunk, len(shrunk)/8, true)
				t.Fatalf("%s diverged from brute force at step %d: %s\n"+
					"minimal reproducer (%d readings, dim %d):\n%s\nmismatch on reproducer: %s",
					cfg.Kind, step, msg, len(shrunk), c.Dim, formatHistory(shrunk), smsg)
			}
		})
	}
}

// TestBackendOracleFlags asserts the oracle scenarios are not vacuous:
// the clustered-plus-noise stream must actually produce outlier verdicts
// under each backend in a majority of configs, so the differential suite
// exercises the flagging paths, not just warm-up bookkeeping.
func TestBackendOracleFlags(t *testing.T) {
	configs := oracle.Configs(30, 0xbac0de)
	fired := map[Kind]int{}
	for _, c := range configs {
		history := oracleHistory(c)
		for _, cfg := range oracleBackendConfigs(c) {
			det, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range history {
				if det.Ingest(v).Outlier {
					fired[cfg.Kind]++
					break
				}
			}
		}
	}
	for _, k := range []Kind{KindEWMA, KindQn, KindCoreset} {
		if fired[k] < len(configs)/2 {
			t.Fatalf("%s flagged in only %d/%d oracle configs; streams too tame to exercise verdicts", k, fired[k], len(configs))
		}
	}
}

// TestQnScaleGuarantee pins the streamed scale to the exact window after
// every arrival: the rank interval of s among the window's pairwise
// differences meets the band ⌈N/4⌉ ± ⌊ε·N⌋ (clipped to [1, N]).
func TestQnScaleGuarantee(t *testing.T) {
	cfg := testConfig(KindQn, 1, 77)
	cfg.Qn.Window = 64
	q := newQn(cfg.withDefaults(), nil)
	src := stats.NewRand(41)
	var xs []float64
	for i := 0; i < 800; i++ {
		xs = append(xs, src.NormFloat64())
		q.Ingest(xs[i:])
		w := xs[max(0, len(xs)-cfg.Qn.Window):]
		if len(w) < 2 {
			continue
		}
		scale, diffs := BruteQnScale(w)
		if !(scale > 0) {
			t.Fatal("brute scale degenerate")
		}
		s := q.dims[0].s
		lo := sort.SearchFloat64s(diffs, s)              // # strictly less
		hi := sort.Search(len(diffs), func(i int) bool { // # <= s
			return diffs[i] > s
		})
		n := len(diffs)
		k := int(math.Ceil(0.25 * float64(n)))
		slack := int(math.Floor(cfg.Qn.Eps * float64(n)))
		if lo+1 > min(k+slack, n) || hi < max(k-slack, 1) {
			t.Fatalf("arrival %d: scale difference %v has rank [%d,%d] among %d; band %d ± %d",
				i, s, lo+1, hi, n, k, slack)
		}
	}
}

func formatHistory(hist [][]float64) string {
	pts := make([]window.Point, len(hist))
	for i, v := range hist {
		pts[i] = v
	}
	return oracle.Format(pts)
}
