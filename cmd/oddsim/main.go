// Command oddsim regenerates the paper's evaluation (Section 10): every
// table and figure, printed as aligned text tables. By default it runs at
// near-paper scale, which takes tens of minutes for the full suite; pass
// -quick for a fast smoke pass with reduced windows and runs.
//
// The golden mode runs the figure-regression harness instead: every
// driver at CI scale, flattened into scalar metrics and compared against
// (or written to) the committed golden file with per-metric tolerances.
//
// Usage:
//
//	oddsim -exp fig7            # one experiment
//	oddsim -exp all -quick      # whole suite, reduced scale
//	oddsim -exp fig8 -runs 12   # paper's run count
//	oddsim -golden-check        # verify figures against the golden file
//	oddsim -golden-update       # refresh the golden file after a change
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"odds/internal/experiments"
	"odds/internal/golden"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: "+strings.Join(golden.AllFigures(), "|")+"|all")
		quick   = flag.Bool("quick", false, "reduced scale (small windows, single run)")
		runs    = flag.Int("runs", 0, "override run count (paper: 12)")
		seed    = flag.Int64("seed", 1, "master seed")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines for the sweeps (1 = serial; output is identical either way)")

		goldenCheck  = flag.Bool("golden-check", false, "run the golden figure-regression check and exit non-zero on violations")
		goldenUpdate = flag.Bool("golden-update", false, "regenerate the golden metrics file from the current code")
		goldenFile   = flag.String("golden-file", "internal/golden/testdata/golden.json", "golden metrics file")
		goldenSpec   = flag.String("golden-spec", "internal/golden/testdata/spec.json", "tolerance spec file")
		goldenFigs   = flag.String("golden-figs", "", "comma-separated figure subset for golden mode (default: all; \"short\" = the CI short subset)")
	)
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(*exp, *runs, *workers, *goldenCheck, *goldenUpdate, flag.Args(), set); err != nil {
		fmt.Fprintf(os.Stderr, "oddsim: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	if *goldenCheck || *goldenUpdate {
		os.Exit(goldenMain(*goldenCheck, *goldenUpdate, *goldenFile, *goldenSpec, *goldenFigs, *seed, *workers))
	}

	opts := options(*quick, *runs, *seed, *workers)
	for _, e := range experiments.All() {
		if *exp != "all" && *exp != e.Name {
			continue
		}
		start := time.Now()
		res, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oddsim: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		res.Table().Fprint(os.Stdout)
		fmt.Fprintf(os.Stdout, "  [%s completed in %s]\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
}

// options maps the experiment-mode flags onto the registry's run options.
// runs stays 0 when -runs was not given, so each experiment can tell an
// explicit run count from its scale's default.
func options(quick bool, runs int, seed int64, workers int) experiments.Options {
	o := experiments.Options{Scale: experiments.Paper, Seed: seed, Workers: workers, Runs: runs}
	if quick {
		o.Scale = experiments.Quick
	}
	return o
}

// checkFlags validates the parsed flag combination before anything runs,
// so a typo'd experiment name or a contradictory mode fails with a usage
// message instead of silently executing the wrong (or no) suite. set
// holds the names of flags explicitly given on the command line.
func checkFlags(exp string, runs, workers int, goldenCheck, goldenUpdate bool, args []string, set map[string]bool) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected arguments: %v", args)
	}
	if _, ok := experiments.Lookup(exp); !ok && exp != "all" {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if runs < 0 {
		return fmt.Errorf("-runs %d must be non-negative", runs)
	}
	if workers <= 0 {
		return fmt.Errorf("-workers %d must be positive", workers)
	}
	if goldenCheck && goldenUpdate {
		return fmt.Errorf("-golden-check and -golden-update are mutually exclusive")
	}
	if goldenCheck || goldenUpdate {
		for _, n := range []string{"exp", "quick", "runs"} {
			if set[n] {
				return fmt.Errorf("-%s has no effect in golden mode", n)
			}
		}
	} else {
		for _, n := range []string{"golden-file", "golden-spec", "golden-figs"} {
			if set[n] {
				return fmt.Errorf("-%s requires -golden-check or -golden-update", n)
			}
		}
	}
	return nil
}

// goldenMain runs the golden check/update flow and returns the exit code.
// Flag-combination validation (including check/update exclusivity) has
// already happened in checkFlags.
func goldenMain(check, update bool, file, specFile, figsCSV string, seed int64, workers int) int {
	var figs []string
	switch figsCSV {
	case "":
		figs = golden.AllFigures()
	case "short":
		figs = golden.ShortFigures()
	default:
		for _, f := range strings.Split(figsCSV, ",") {
			if f = strings.TrimSpace(f); f != "" {
				figs = append(figs, f)
			}
		}
	}
	start := time.Now()
	got, err := golden.Collect(golden.Config{Figures: figs, Seed: seed, Workers: workers})
	if err != nil {
		fmt.Fprintf(os.Stderr, "oddsim: %v\n", err)
		return 2
	}
	fmt.Printf("collected %d metrics across %d figures in %s\n",
		len(got), len(figs), time.Since(start).Round(time.Millisecond))

	if update {
		// Merge into any existing golden file so a subset update does not
		// drop the other figures' entries.
		merged := golden.Metrics{}
		if old, err := golden.LoadMetrics(file); err == nil {
			for k, v := range golden.Filter(old, missingFrom(figs)) {
				merged[k] = v
			}
		}
		for k, v := range got {
			merged[k] = v
		}
		if err := golden.WriteMetrics(file, merged); err != nil {
			fmt.Fprintf(os.Stderr, "oddsim: %v\n", err)
			return 2
		}
		fmt.Printf("wrote %d metrics to %s\n", len(merged), file)
		return 0
	}

	want, err := golden.LoadMetrics(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oddsim: loading golden file: %v (run -golden-update to create it)\n", err)
		return 2
	}
	spec, err := golden.LoadSpec(specFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oddsim: %v\n", err)
		return 2
	}
	rep := golden.Compare(got, golden.Filter(want, figs), spec.Scoped(figs))
	fmt.Print(rep.Render())
	if !rep.OK() {
		return 1
	}
	return 0
}

// missingFrom returns the canonical figures NOT selected, i.e. those whose
// golden entries must be preserved on a subset update.
func missingFrom(figs []string) []string {
	sel := map[string]bool{}
	for _, f := range figs {
		sel[f] = true
	}
	var out []string
	for _, f := range golden.AllFigures() {
		if !sel[f] {
			out = append(out, f)
		}
	}
	return out
}
