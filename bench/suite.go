package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// exactCounts are the per-layer counters that must repeat exactly between
// two traced runs of one seed: a claim may rest on a count only if it does.
var exactCounts = []string{"pipeline.outliers", "pipeline.full_builds", "pipeline.patch_builds", "router.forwarded"}

// childResult is one workload's run in a child process.
type childResult struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	digests   []string
}

// runChild re-executes this binary for one workload, so every workload
// starts from a fresh heap and its set-up time is its own. The child's
// output is passed through; its last line is the result.
func runChild(w *workload, seed int64, seconds float64, trace int, small bool) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-workload", w.name,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-smoke="+strconv.FormatBool(small))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var (
		last string
		res  childResult
	)
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			last = line
			continue
		}
		fmt.Println(line)
		if _, rest, ok := strings.Cut(line, "verdict_digest "); ok {
			digest, _, _ := strings.Cut(rest, " ")
			res.digests = append(res.digests, digest)
		}
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	return &res, nil
}

// runSuite runs every workload, sets times over, and — from the second set
// on — compares each set with the first: end-to-end metrics against their
// bounds, verdict digests and exact counters for equality. It returns the
// process exit code.
func runSuite(sets int, seed int64, seconds float64, trace int, small bool) int {
	fmt.Printf("# suite sets=%d seed=%d seconds=%g trace=%d | %s\n", sets, seed, seconds, trace, hostLine())
	defs := endToEnd
	if trace != 0 {
		defs = perLayer
	}
	results := make([]map[string]*childResult, sets)
	for set := range results {
		results[set] = map[string]*childResult{}
		for _, w := range workloads {
			res, err := runChild(w, seed, seconds, trace, small)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			results[set][w.name] = res
		}
	}

	exit := 0
	for _, w := range workloads {
		first := results[0][w.name]
		fmt.Printf("\n%s (%d attempted, %d failed, digests %s)\n", w.name, first.Attempted, first.Failed, strings.Join(first.digests, " "))
		for _, d := range defs {
			fmt.Printf("  %-40s %18.6g %-6s", d.name, first.Metrics[d.name].Value, d.unit)
			for set := 1; set < sets; set++ {
				a, b := first.Metrics[d.name].Value, results[set][w.name].Metrics[d.name].Value
				fmt.Printf("  set %d: %.6g", set+1, b)
				switch {
				case trace == 0:
					// Positive = worse, as a share of the first set's value.
					worse := (b - a) / a
					if d.better == "higher" {
						worse = -worse
					}
					fmt.Printf(" (%+.1f%% worse, bound %.0f%%)", 100*worse, 100*d.bound)
					if worse > d.bound || math.IsNaN(worse) {
						fmt.Print(" OVER BOUND")
						exit = 1
					}
				case slices.Contains(exactCounts, d.name) && a != b:
					fmt.Print(" COUNT DIFFERS")
					exit = 1
				}
			}
			fmt.Println()
		}
		for set := 1; set < sets; set++ {
			if got := strings.Join(results[set][w.name].digests, " "); got != strings.Join(first.digests, " ") {
				fmt.Printf("  set %d: verdict digests %s DIFFER\n", set+1, got)
				exit = 1
			}
		}
	}
	return exit
}
