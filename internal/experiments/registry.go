package experiments

// Scale selects which of a figure's three pinned parameter sets runs. Each
// figure keeps all three next to its driver.
type Scale int

const (
	// Paper is oddsim's default: near-paper scale, tens of minutes for the
	// full suite.
	Paper Scale = iota
	// Quick is oddsim -quick: small windows and a single run, a smoke pass
	// of about a minute.
	Quick
	// Golden is the CI scale internal/golden pins: golden values are only
	// comparable when the whole configuration is fixed, so at this scale
	// nothing but the seed and the worker count is left to the caller.
	Golden
)

// Options is everything a caller chooses about one run of an experiment.
// The harness is seed-exact for any worker count, so Workers trades
// wall-clock for nothing else.
type Options struct {
	Scale   Scale
	Seed    int64
	Workers int // 0 or 1 = serial
	Runs    int // sweep figures: runs per cell; 0 = the scale's own count
}

// Result is one finished run: the table oddsim prints, and the same
// numbers flattened into scalar metrics for the golden file. Metric names
// are dot-separated paths relative to the figure
// ("kernel.r0.0500.d3.l1.precision"); the collector prefixes the
// registered name, and drops a NaN (an undefined precision or recall), so
// presence itself is part of the golden contract.
type Result interface {
	Table() *Table
	Metrics(set func(name string, v float64))
}

// Experiment is one registered figure.
type Experiment struct {
	Name string
	// Short marks the cheap subset run by `go test -short ./internal/golden`
	// and the CI golden lane.
	Short bool
	Run   func(Options) (Result, error)
}

// registry declares every experiment once, in the order `oddsim -exp all`
// prints and golden.AllFigures lists. Adding a figure is one entry here
// plus `make update-golden`.
var registry = []Experiment{
	// The cheap trio — dataset moments, the communication ladder, and the
	// memory accounting — completes in about a second while still crossing
	// the stream generators, the tag simulator, and the sketch layers.
	{Name: "fig5", Short: true, Run: runFig5},
	{Name: "fig6", Run: runFig6},
	{Name: "fig7", Run: runFig7},
	{Name: "fig8", Run: runFig8},
	{Name: "fig9", Run: runFig9},
	{Name: "fig10", Run: runFig10},
	{Name: "fig11", Short: true, Run: runFig11},
	{Name: "mem", Short: true, Run: runMemory},
	{Name: "ablation", Run: runAblation},
	{Name: "figfault", Run: runFigFault},
	// The figdrift rows are cheap (~1s) and carry the drift claims: zero
	// false alarms pre-drift, a silent stationary row, banded detection
	// delays, and the adapt-vs-frozen precision orderings.
	{Name: "figdrift", Short: true, Run: runFigDrift},
	// Races all four detector backends on identical labeled streams and
	// pins the headline claims: stationary kernelchain precision at or
	// above ewma, qn out-recalling the kernel stack, and the ewma state
	// footprint under every other backend on both workloads.
	{Name: "figbackends", Short: true, Run: runFigBackends},
}

// All returns the registered experiments in canonical order.
func All() []Experiment { return registry }

// Lookup finds an experiment by its registered name.
func Lookup(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
