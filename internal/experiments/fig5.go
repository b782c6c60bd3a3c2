package experiments

import (
	"odds/internal/stats"
	"odds/internal/stream"
)

// Fig5Config parameterizes the dataset-statistics table.
type Fig5Config struct {
	EngineLen int // values per engine sensor (paper: 50,000)
	EnviroLen int // values per environmental station (paper: 35,000)
	Seed      int64
}

// DefaultFig5 returns the paper's dataset sizes.
func DefaultFig5() Fig5Config {
	return Fig5Config{EngineLen: 50000, EnviroLen: 35000, Seed: 1}
}

// Fig5Row is the descriptive statistics of one dataset column.
type Fig5Row struct {
	Dataset string
	Stats   stats.Summary
}

// runFig5 is the registry driver: the paper's dataset sizes, reduced for
// the quick and golden scales.
func runFig5(o Options) (Result, error) {
	c := DefaultFig5()
	c.Seed = o.Seed
	switch o.Scale {
	case Quick:
		c.EngineLen, c.EnviroLen = 20000, 15000
	case Golden:
		c.EngineLen, c.EnviroLen = 8000, 6000
	}
	return RunFig5(c), nil
}

// Fig5Rows is the Figure 5 result, one row per dataset column.
type Fig5Rows []Fig5Row

// RunFig5 regenerates the statistical characteristics of the (simulated)
// real datasets (paper Figure 5) from the calibrated generators.
func RunFig5(c Fig5Config) Fig5Rows {
	eng := stream.Column(stream.NewEngine(stream.DefaultEngine(), c.Seed), c.EngineLen, 0)
	se, err := stats.Describe(eng)
	if err != nil {
		panic(err)
	}
	env := stream.Take(stream.NewEnviro(stream.DefaultEnviro(), c.Seed+1), c.EnviroLen)
	var ps, ds []float64
	for _, p := range env {
		ps = append(ps, p[0])
		ds = append(ds, p[1])
	}
	sp, _ := stats.Describe(ps)
	sd, _ := stats.Describe(ds)
	return Fig5Rows{
		{Dataset: "engine", Stats: se},
		{Dataset: "pressure", Stats: sp},
		{Dataset: "dew-point", Stats: sd},
	}
}

// Table renders the Figure 5 statistics alongside the values the paper
// reports.
func (rows Fig5Rows) Table() *Table {
	t := &Table{
		Title:   "Figure 5 — statistical characteristics of the (simulated) real datasets",
		Columns: []string{"dataset", "min", "max", "mean", "median", "stddev", "skew"},
		Notes: []string{
			"paper:  engine    0.020 0.427 0.410 0.419 0.053 -6.844",
			"paper:  pressure  0.422 0.848 0.677 0.681 0.063 -0.399",
			"paper:  dew-point 0.113 0.282 0.213 0.212 0.027 -0.182",
		},
	}
	for _, r := range rows {
		s := r.Stats
		t.AddRow(r.Dataset, s.Min, s.Max, s.Mean, s.Median, s.StdDev, s.Skew)
	}
	return t
}

// Metrics emits the six moments per dataset.
func (rows Fig5Rows) Metrics(set func(string, float64)) {
	for _, r := range rows {
		p := slug(r.Dataset)
		set(p+".min", r.Stats.Min)
		set(p+".max", r.Stats.Max)
		set(p+".mean", r.Stats.Mean)
		set(p+".median", r.Stats.Median)
		set(p+".stddev", r.Stats.StdDev)
		set(p+".skew", r.Stats.Skew)
	}
}
