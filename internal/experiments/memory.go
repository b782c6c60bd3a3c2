package experiments

import (
	"fmt"

	"odds/internal/core"
	"odds/internal/stats"
	"odds/internal/stream"
)

// MemoryConfig parameterizes the Section 10.3 memory experiment: the
// maximum memory a D3 node consumes, split into sample maintenance
// (O(d|R|)) and variance estimation (O((d/eps^2)·log|W|)), measured on the
// real datasets under a 16-bit architecture (2 bytes per number) and
// compared to the theoretical bound.
type MemoryConfig struct {
	WindowCaps []int
	SampleFrac float64
	Eps        float64
	Epochs     int
	Seed       int64
}

// DefaultMemory returns the paper's ranges: |W| from 10,000 to 20,000,
// |R| = 0.1|W| at the top end (the paper quotes |W| = 20,000, |R| = 2,000,
// eps = 0.2 for the <10 KB claim).
func DefaultMemory() MemoryConfig {
	return MemoryConfig{
		WindowCaps: []int{10000, 20000},
		SampleFrac: 0.1,
		Eps:        0.2,
		Epochs:     30000,
		Seed:       1,
	}
}

// runMemory is the registry driver: the paper's window ladder, or one
// small window at the quick and golden scales.
func runMemory(o Options) (Result, error) {
	c := DefaultMemory()
	switch o.Scale {
	case Quick:
		c.WindowCaps, c.Epochs = []int{2000}, 6000
	case Golden:
		c.WindowCaps, c.Epochs = []int{2000}, 5000
	}
	c.Seed = o.Seed
	return RunMemory(c), nil
}

// MemoryRow is one measurement.
type MemoryRow struct {
	Dataset       string
	WindowCap     int
	SampleBytes   int // peak chain-sample footprint
	VarBytes      int // peak variance-sketch footprint
	VarBoundBytes int
	TotalBytes    int
	SavingsPct    float64 // variance actual vs bound
}

// MemoryRows is the memory-experiment result, one row per (|W|, dataset).
type MemoryRows []MemoryRow

// RunMemory executes the experiment on both simulated real datasets.
func RunMemory(c MemoryConfig) MemoryRows {
	var rows MemoryRows
	for _, wcap := range c.WindowCaps {
		for _, ds := range []string{"engine", "environmental"} {
			dim := 1
			var src stream.Source
			if ds == "environmental" {
				dim = 2
				src = stream.NewEnviro(stream.DefaultEnviro(), c.Seed)
			} else {
				src = stream.NewEngine(stream.DefaultEngine(), c.Seed)
			}
			cfg := core.Config{
				WindowCap:      wcap,
				SampleSize:     int(c.SampleFrac * float64(wcap)),
				Eps:            c.Eps,
				SampleFraction: 0.5,
				Dim:            dim,
				RebuildEvery:   1 << 30, // model rebuilds are irrelevant here
			}
			est := core.NewEstimator(cfg, wcap, float64(wcap), stats.NewRand(c.Seed))
			peakSample, peakVar := 0, 0
			for i := 0; i < c.Epochs; i++ {
				est.Observe(src.Next())
				if b := est.SampleStoredPoints() * dim * 2; b > peakSample {
					peakSample = b
				}
				if n := est.VarianceMemoryNumbers(); 2*n > peakVar {
					peakVar = 2 * n
				}
			}
			bound := 2 * est.VarianceBoundNumbers()
			rows = append(rows, MemoryRow{
				Dataset:       ds,
				WindowCap:     wcap,
				SampleBytes:   peakSample,
				VarBytes:      peakVar,
				VarBoundBytes: bound,
				TotalBytes:    peakSample + peakVar,
				SavingsPct:    100 * (1 - float64(peakVar)/float64(bound)),
			})
		}
	}
	return rows
}

// Table renders the experiment.
func (rows MemoryRows) Table() *Table {
	t := &Table{
		Title:   "Section 10.3 — per-node memory (16-bit architecture, 2 bytes/number)",
		Columns: []string{"dataset", "|W|", "sample B", "variance B", "var bound B", "total B", "savings vs bound"},
		Notes: []string{
			"paper: variance-sketch usage 55–65% below the theoretical bound",
			"paper: total well under 10 KB even at |W|=20000, |R|=2000, eps=0.2",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Dataset, r.WindowCap, r.SampleBytes, r.VarBytes, r.VarBoundBytes,
			r.TotalBytes, FmtF(r.SavingsPct, 1)+"%")
	}
	return t
}

// Metrics emits the byte counts per (dataset, |W|).
func (rows MemoryRows) Metrics(set func(string, float64)) {
	for _, r := range rows {
		p := fmt.Sprintf("%s.w%d", slug(r.Dataset), r.WindowCap)
		set(p+".sample_bytes", float64(r.SampleBytes))
		set(p+".var_bytes", float64(r.VarBytes))
		set(p+".var_bound_bytes", float64(r.VarBoundBytes))
		set(p+".total_bytes", float64(r.TotalBytes))
		set(p+".savings_pct", r.SavingsPct)
	}
}
