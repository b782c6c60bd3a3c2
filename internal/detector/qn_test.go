package detector

import (
	"math"
	"testing"

	"odds/internal/stats"
	"odds/internal/stream"
)

// qnSpecials are the coordinates a qn stream must survive: non-finite
// values (skipped), a signed zero, and magnitudes whose differences
// overflow to +Inf.
var qnSpecials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e308, -1e308, 5e-324}

// qnGridValue maps a byte to a stream value: most bytes land on a 1/64
// grid (ties at every rank), the top ones on qnSpecials.
func qnGridValue(b byte) float64 {
	if i := int(b) - (256 - len(qnSpecials)); i >= 0 {
		return qnSpecials[i]
	}
	return float64(int(b)-120) / 64
}

// checkQnAgainstBrute streams readings through a qn backend and the
// plain-slice replay side by side and fails on the first arrival whose
// verdict, window or scale bits differ; every fifth arrival the backend is
// swapped for one restored from its snapshot.
func checkQnAgainstBrute(t *testing.T, cfg Config, readings [][]float64) {
	t.Helper()
	cfg = cfg.withDefaults()
	q := newQn(cfg, nil)
	b := newBruteQn(cfg.Qn, cfg.Dim)
	for i, v := range readings {
		want := Verdict{Warmed: uint64(i) >= uint64(cfg.Qn.MinN)}
		want.Outlier = want.Warmed && b.judge(v)
		if got := q.Ingest(v); got != want {
			t.Fatalf("arrival %d %v: verdict %+v, brute %+v", i, v, got, want)
		}
		b.fold(v)
		for d := range q.dims {
			qd := &q.dims[d]
			got := qd.win.AppendArrivals(nil)
			if len(got) != len(b.wins[d]) {
				t.Fatalf("arrival %d dim %d: window %v, brute %v", i, d, got, b.wins[d])
			}
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(b.wins[d][j]) {
					t.Fatalf("arrival %d dim %d: window %v, brute %v", i, d, got, b.wins[d])
				}
			}
			if math.Float64bits(qd.s) != math.Float64bits(b.scales[d]) {
				t.Fatalf("arrival %d dim %d: s %v (%#x), brute %v (%#x)", i, d,
					qd.s, math.Float64bits(qd.s), b.scales[d], math.Float64bits(b.scales[d]))
			}
		}
		if i%5 == 4 {
			blob, err := q.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			fresh := newQn(cfg, nil)
			if err := fresh.Restore(blob); err != nil {
				t.Fatalf("arrival %d: restore: %v", i, err)
			}
			q = fresh
		}
	}
}

// TestQnMatchesBruteOnTiesAndSpecials runs the replay on a tie-heavy
// stream (values on a 1/64 grid) laced with ±Inf, NaN, −0 and values whose
// differences overflow, at a window, a loose ε and a zero-slack ε.
func TestQnMatchesBruteOnTiesAndSpecials(t *testing.T) {
	r := stats.NewRand(64)
	readings := make([][]float64, 600)
	for i := range readings {
		v := make([]float64, 2)
		for d := range v {
			b := byte(120 + r.Intn(64) - 32) // ±0.5 around 0 on the grid
			if r.Float64() < 0.05 {
				b = byte(256 - len(qnSpecials) + r.Intn(len(qnSpecials)))
			}
			v[d] = qnGridValue(b)
		}
		readings[i] = v
	}
	for _, eps := range []float64{1e-12, 0.02, 0.3} {
		cfg := testConfig(KindQn, 2, 1)
		cfg.Qn.Eps, cfg.Qn.Window = eps, 24
		checkQnAgainstBrute(t, cfg, readings)
	}
}

// TestQnExactScaleAtZeroSlack: with ε so small that ⌊ε·N⌋ = 0 the band is
// the single rank k = ⌈N/4⌉, so s must be the exact k-th pairwise
// difference of the window, bit for bit, after every arrival — on a
// continuous stream and on a 1/64 grid.
func TestQnExactScaleAtZeroSlack(t *testing.T) {
	cfg := testConfig(KindQn, 1, 1)
	cfg.Qn.Eps, cfg.Qn.Window = 1e-12, 40
	src := stats.NewRand(9)
	for _, grid := range []bool{false, true} {
		q := newQn(cfg.withDefaults(), nil)
		var xs []float64
		for i := 0; i < 400; i++ {
			x := src.NormFloat64()
			if grid {
				x = math.Round(x*8) / 64
			}
			xs = append(xs, x)
			q.Ingest(xs[i:])
			w := xs[max(0, len(xs)-cfg.Qn.Window):]
			if len(w) < 2 {
				continue
			}
			want := bruteKthDiff(w, int(math.Ceil(float64(len(w)*(len(w)-1)/2)/4)))
			if got := q.dims[0].s; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("grid %v arrival %d: s %v, exact k-th difference %v", grid, i, got, want)
			}
		}
	}
}

// TestQnReselectsRarelyOnStationaryStream bounds re-selections at the
// default configuration once the window has filled: on a stationary
// stream a slide moves s's rank by a few and the band is ±⌊ε·N⌋ wide.
func TestQnReselectsRarelyOnStationaryStream(t *testing.T) {
	cfg := Config{Kind: KindQn, Dim: 1}.withDefaults()
	q := newQn(cfg, nil)
	src := stats.NewRand(5)
	for i := 0; i < cfg.Qn.Window; i++ {
		q.Ingest([]float64{src.NormFloat64()})
	}
	const arrivals = 20000
	before := q.reselects
	for i := 0; i < arrivals; i++ {
		q.Ingest([]float64{src.NormFloat64()})
	}
	if got := q.reselects - before; got > arrivals/100 {
		t.Fatalf("%d re-selections in %d stationary arrivals; want at most 1 %%", got, arrivals)
	}
}

// TestQnStateBounded: the footprint is the windows and a constant per
// dimension, whatever the arrival count.
func TestQnStateBounded(t *testing.T) {
	cfg := Config{Kind: KindQn, Dim: 2}.withDefaults()
	q := newQn(cfg, nil)
	src := stats.NewRand(6)
	bound := 16*cfg.Qn.Window*cfg.Dim + qnDimBytes*cfg.Dim
	var atFill int
	for i := 1; i <= 100000; i++ {
		q.Ingest([]float64{src.NormFloat64(), src.Float64()})
		got := q.Stats().StateBytes
		if got > bound {
			t.Fatalf("arrival %d: state %d B above %d", i, got, bound)
		}
		if i == cfg.Qn.Window {
			atFill = got
		}
		if i > cfg.Qn.Window && got != atFill {
			t.Fatalf("arrival %d: state %d B, %d B when the window filled", i, got, atFill)
		}
	}
}

// FuzzQnVsBrute drives the qn backend and its plain-slice replay with
// arbitrary windows, ε and streams of grid values and specials, checking
// verdicts, windows and scale bits after every arrival and across
// restores.
func FuzzQnVsBrute(f *testing.F) {
	f.Add([]byte{6, 1, 120, 121, 121, 130, 255, 100, 120, 120, 250, 140, 119, 121, 120})
	f.Add([]byte{0, 0, 120, 120, 120, 120, 120, 252, 253})
	f.Add([]byte{14, 6, 1, 240, 3, 200, 254, 251, 90, 90, 91, 250, 249, 120, 64, 64})
	epsChoices := []float64{1e-12, 0.02, 0.1, 0.5}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		dim := 1 + int(data[1]>>2)%2
		cfg := testConfig(KindQn, dim, 1)
		cfg.Qn.Window = 2 + int(data[0])%15
		cfg.Qn.Eps = epsChoices[data[1]%4]
		cfg.Qn.MinN = 2
		data = data[2:]
		var readings [][]float64
		for len(data) >= dim && len(readings) < 96 {
			v := make([]float64, dim)
			for d := range v {
				v[d] = qnGridValue(data[d])
			}
			readings = append(readings, v)
			data = data[dim:]
		}
		checkQnAgainstBrute(t, cfg, readings)
	})
}

// BenchmarkQnIngest is one Qn.Ingest at the default configuration on the
// serving tier's two 1-D streams, past warm-up.
func BenchmarkQnIngest(b *testing.B) {
	streams := []struct {
		name string
		next func() []float64
	}{
		{"mixture", func() func() []float64 {
			s := stream.NewMixture(stream.DefaultMixture(), 1, 7)
			return func() []float64 { return s.Next() }
		}()},
		{"shifting", func() func() []float64 {
			s := stream.DefaultShifting(7)
			return func() []float64 { return s.Next() }
		}()},
	}
	for _, st := range streams {
		b.Run(st.name, func(b *testing.B) {
			pts := make([][]float64, 1<<16)
			for i := range pts {
				pts[i] = st.next()
			}
			det, err := New(Config{Kind: KindQn, Dim: 1})
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pts[:4096] {
				det.Ingest(p)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				det.Ingest(pts[i&(len(pts)-1)])
			}
		})
	}
}
