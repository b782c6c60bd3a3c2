package golden

import (
	"fmt"
	"strings"

	"odds/internal/experiments"
)

// Config selects which figures to collect and how to run them. The figure
// parameters themselves are fixed at CI scale beside each driver
// (experiments.Golden): golden values are only comparable when the whole
// configuration is pinned, so the only knobs are the subset, the master
// seed, and the worker count (the evaluation harness is seed-exact for any
// worker count, so Workers trades wall-clock for nothing else).
type Config struct {
	Figures []string // nil = AllFigures
	Seed    int64    // 0 = 1, the seed the golden file was generated with
	Workers int      // 0 = serial
}

// AllFigures lists every collectable figure in canonical (registry) order.
func AllFigures() []string { return figures(false) }

// ShortFigures is the cheap subset exercised by `go test -short` and the
// CI golden gate: the registry entries marked Short.
func ShortFigures() []string { return figures(true) }

func figures(shortOnly bool) []string {
	var names []string
	for _, e := range experiments.All() {
		if e.Short || !shortOnly {
			names = append(names, e.Name)
		}
	}
	return names
}

// seed returns the effective master seed.
func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// Collect runs the selected figure drivers at golden scale and flattens
// their results into metrics, each under its figure's registered name.
// Unknown figure names error.
func Collect(c Config) (Metrics, error) {
	figs := c.Figures
	if len(figs) == 0 {
		figs = AllFigures()
	}
	m := Metrics{}
	for _, fig := range figs {
		e, ok := experiments.Lookup(fig)
		if !ok {
			return nil, fmt.Errorf("golden: unknown figure %q", fig)
		}
		res, err := e.Run(experiments.Options{Scale: experiments.Golden, Seed: c.seed(), Workers: c.Workers})
		if err != nil {
			return nil, fmt.Errorf("golden: %s: %w", fig, err)
		}
		res.Metrics(func(name string, v float64) { m.Set(fig+"."+name, v) })
	}
	return m, nil
}

// Filter returns the subset of metrics whose figure prefix (the first
// dot-separated segment) is in figs, so a partial collection can be
// compared against the full golden file.
func Filter(m Metrics, figs []string) Metrics {
	want := map[string]bool{}
	for _, f := range figs {
		want[f] = true
	}
	out := Metrics{}
	for k, v := range m {
		if i := strings.IndexByte(k, '.'); i > 0 && want[k[:i]] {
			out[k] = v
		}
	}
	return out
}
