package experiments

import (
	"fmt"
	"math"

	"odds/internal/core"
	"odds/internal/divergence"
	"odds/internal/stats"
	"odds/internal/stream"
)

// Fig6Config parameterizes the estimation-accuracy experiment (paper
// Figure 6): children read a Gaussian whose mean shifts every Period
// arrivals; the JS divergence between the true generating distribution
// and the kernel estimate is tracked over time at a leaf and at a parent
// for several sample fractions f.
type Fig6Config struct {
	WindowCap  int     // |W| (paper: 10240)
	SampleSize int     // |R| (paper: 1024)
	Eps        float64 // variance sketch error
	Children   int     // leaves feeding the parent
	Period     int     // arrivals between mean shifts
	Epochs     int     // total arrivals per child
	SampleIvl  int     // arrivals between JS measurements
	GridPoints int     // JS grid resolution
	Fractions  []float64
	Seed       int64
}

// DefaultFig6 returns the paper's Figure 6 parameters.
func DefaultFig6() Fig6Config {
	return Fig6Config{
		WindowCap:  10240,
		SampleSize: 1024,
		Eps:        0.2,
		Children:   4,
		// The paper shifts every 4096 arrivals, which is shorter than the
		// window: a uniform sample of a 10240-value window cannot converge
		// to the new distribution before the next shift (most window values
		// are still old). We lengthen the period past |W| so the
		// re-adaptation latency the paper highlights is observable; see
		// EXPERIMENTS.md.
		Period:     12288,
		Epochs:     36864,
		SampleIvl:  256,
		GridPoints: 100,
		Fractions:  []float64{0.5, 0.75},
		Seed:       1,
	}
}

// runFig6 is the registry driver. The quick scale shrinks |W| and |R| but
// keeps the period beyond |W|; the golden scale runs one shift period
// beyond |W| so both the stable phase and the re-adaptation latency are
// observable.
func runFig6(o Options) (Result, error) {
	c := DefaultFig6()
	switch o.Scale {
	case Quick:
		c.WindowCap, c.SampleSize = 2048, 256
		c.Period, c.Epochs, c.SampleIvl = 3072, 9216, 512
	case Golden:
		c = Fig6Config{
			WindowCap:  1024,
			SampleSize: 256,
			Eps:        0.2,
			Children:   2,
			Period:     2048,
			Epochs:     6144,
			SampleIvl:  256,
			GridPoints: 64,
			Fractions:  []float64{0.5},
		}
	}
	c.Seed = o.Seed
	return RunFig6(c), nil
}

// Fig6Point is one sampled timestep of the experiment.
type Fig6Point struct {
	Time     int
	Leaf     float64
	Parent   []float64 // one per fraction
	TrueMean float64
}

// Fig6Series holds the full timeline plus the summary numbers the paper
// quotes (max stable distance, re-adaptation latency).
type Fig6Series struct {
	Fractions []float64
	Points    []Fig6Point

	MaxStableLeaf float64 // max JS while the distribution is stable
	AdaptLatency  int     // arrivals after a shift until leaf JS < 0.1
	// PostShiftSpike is the maximum leaf JS within two measurement
	// intervals after the first mean shift — the divergence spike the
	// paper's Figure 6 highlights before the estimate re-adapts.
	PostShiftSpike float64
}

// RunFig6 executes the experiment and returns the timeline.
func RunFig6(c Fig6Config) Fig6Series {
	cfg := core.Config{
		WindowCap:      c.WindowCap,
		SampleSize:     c.SampleSize,
		Eps:            c.Eps,
		SampleFraction: 1, // per-fraction coins are flipped below
		Dim:            1,
		RebuildEvery:   1,
	}
	master := stats.NewRand(c.Seed)
	srcs := make([]*stream.Shifting, c.Children)
	leaves := make([]*core.Estimator, c.Children)
	for i := range srcs {
		srcs[i] = stream.NewShifting([]float64{0.3, 0.5}, 0.05, c.Period, master.Int63())
		leaves[i] = core.NewEstimator(cfg, c.WindowCap, float64(c.WindowCap), stats.SplitRand(master))
	}
	parents := make([]*core.Estimator, len(c.Fractions))
	coins := make([]*statsRand, len(c.Fractions))
	for i, f := range c.Fractions {
		recv := int(float64(c.Children) * f * float64(c.SampleSize))
		parents[i] = core.NewEstimator(cfg, recv, float64(c.Children*c.WindowCap), stats.SplitRand(master))
		coins[i] = &statsRand{r: stats.SplitRand(master), f: f}
	}

	series := Fig6Series{Fractions: c.Fractions, AdaptLatency: -1}
	var lastShift, sinceAdapt int
	adapted := true
	for t := 0; t < c.Epochs; t++ {
		if t > 0 && t%c.Period == 0 {
			lastShift = t
			adapted = false
		}
		mu := srcs[0].CurrentMean()
		for i := range srcs {
			v := srcs[i].Next()
			included := leaves[i].Observe(v)
			if !included {
				continue
			}
			for pi := range parents {
				if coins[pi].flip() {
					parents[pi].Observe(v)
				}
			}
		}
		if (t+1)%c.SampleIvl != 0 {
			continue
		}
		truth := divergence.Gaussian1D(mu, 0.05)
		pt := Fig6Point{Time: t + 1, TrueMean: mu, Parent: make([]float64, len(parents))}
		if m := leaves[0].Model(); m != nil {
			pt.Leaf = divergence.JS(m, truth, c.GridPoints)
		} else {
			pt.Leaf = math.NaN()
		}
		for pi, p := range parents {
			if m := p.Model(); m != nil {
				pt.Parent[pi] = divergence.JS(m, truth, c.GridPoints)
			} else {
				pt.Parent[pi] = math.NaN()
			}
		}
		series.Points = append(series.Points, pt)
		if pt.Time > c.Period && pt.Time <= c.Period+2*c.SampleIvl && pt.Leaf > series.PostShiftSpike {
			series.PostShiftSpike = pt.Leaf
		}

		// Summary bookkeeping: stability = the window has fully turned over
		// since the last shift (plus margin) — the paper's "distribution of
		// the measurements remains stable" regime.
		if t-lastShift > c.WindowCap+c.WindowCap/8 && t > c.WindowCap && pt.Leaf > series.MaxStableLeaf {
			series.MaxStableLeaf = pt.Leaf
		}
		if !adapted && pt.Leaf < 0.1 {
			adapted = true
			sinceAdapt = t - lastShift
			if sinceAdapt > series.AdaptLatency {
				series.AdaptLatency = sinceAdapt
			}
		}
	}
	return series
}

// statsRand is a small coin-flip helper bound to a fraction.
type statsRand struct {
	r interface{ Float64() float64 }
	f float64
}

func (s *statsRand) flip() bool { return s.r.Float64() < s.f }

// Table renders the timeline.
func (series Fig6Series) Table() *Table {
	t := &Table{
		Title:   "Figure 6 — JS distance between true and estimated distributions over time",
		Columns: []string{"time", "true-mean", "leaf"},
	}
	for _, f := range series.Fractions {
		t.Columns = append(t.Columns, "parent f="+FmtF(f, 2))
	}
	for _, p := range series.Points {
		row := []any{p.Time, FmtF(p.TrueMean, 2), FmtF(p.Leaf, 4)}
		for _, v := range p.Parent {
			row = append(row, FmtF(v, 4))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"max stable leaf JS = "+FmtF(series.MaxStableLeaf, 4)+
			" (paper: ≤0.0037 leaf, ≤0.0051 parent)",
		"re-adaptation latency ≈ "+FmtF(float64(series.AdaptLatency), 0)+
			" arrivals to return under JS 0.1 (paper: ~2500)",
	)
	return t
}

// Metrics emits the summary numbers and the final timestep.
func (series Fig6Series) Metrics(set func(string, float64)) {
	set("max_stable_leaf_js", series.MaxStableLeaf)
	set("adapt_latency", float64(series.AdaptLatency))
	set("post_shift_spike", series.PostShiftSpike)
	if n := len(series.Points); n > 0 {
		last := series.Points[n-1]
		set("final_leaf_js", last.Leaf)
		for i, f := range series.Fractions {
			set(fmt.Sprintf("parent_f%0.2f.final_js", f), last.Parent[i])
		}
	}
}
