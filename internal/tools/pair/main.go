// Command pair compares alternating parent/change runs of the serving
// benchmark, one bench output file per single-workload run (-workload), given
// in pair order:
//
//	go run ./internal/tools/pair [-expect-digest-change] parent1 change1 parent2 change2 ...
//
// Per workload and metric of BENCHMARK.json (read from the working
// directory) it prints both sides' medians and quartiles, how many pairs
// the change won, and the verdict of bench/README.md's "Noise" rule: a
// gain (or loss) needs at least ten pairs, the change winning (losing)
// nine tenths of them, and medians further apart than the parent's
// interquartile range. A run without a result line, with correct:false or
// with "input exhausted true" (void: left out of the medians), or a verdict
// digest that differs from pair 1's parent (on the change side, unless
// -expect-digest-change) is reported and sets exit status 1.
// scripts/pair.sh builds both commits and produces the files.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"odds/internal/stats"
)

// result is one workload's outcome in one run.
type result struct {
	Correct bool                               `json:"correct"`
	Metrics map[string]struct{ Value float64 } `json:"metrics"`
	digest  string
	void    bool
}

// spec is what the comparator reads of BENCHMARK.json.
type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Better string } `json:"per_layer"`
}

// parseRun reads one benchmark output: the "# <workload> seed=" header
// opens a workload, and its notes and final JSON line fill it in.
func parseRun(r io.Reader) (map[string]*result, error) {
	out := map[string]*result{}
	var cur *result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# suite ") {
			return nil, fmt.Errorf("a suite run prints no result lines; pair one -workload at a time")
		}
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" && strings.HasPrefix(f[2], "seed=") {
			cur = &result{}
			out[f[1]] = cur
		} else if cur == nil {
			continue
		} else if d, ok := strings.CutPrefix(line, "# verdict_digest "); ok {
			cur.digest, _, _ = strings.Cut(d, " ")
		} else if strings.Contains(line, "input exhausted true") {
			cur.void = true
		} else if strings.HasPrefix(line, `{"correct"`) {
			if err := json.Unmarshal([]byte(line), cur); err != nil {
				return nil, err
			}
		}
	}
	return out, sc.Err()
}

// usable reports whether r counts towards the medians.
func (r *result) usable() bool { return r != nil && r.Metrics != nil && r.Correct && !r.void }

// verdict applies the Noise rule to n pairs of which the change won wins
// and lost losses, with medians gap apart and a parent IQR of iqr.
func verdict(n, wins, losses int, gap, iqr float64) string {
	switch {
	case n < 10:
		return "too few pairs"
	case 10*wins >= 9*n && math.Abs(gap) > iqr:
		return "GAIN"
	case 10*losses >= 9*n && math.Abs(gap) > iqr:
		return "LOSS"
	}
	return "within noise"
}

// check returns what is wrong with workload wl's runs.
func check(wl string, runs [][2]map[string]*result, expectDigest bool) []string {
	var problems []string
	first := runs[0][0][wl]
	for i, pr := range runs {
		for side, r := range pr {
			what := fmt.Sprintf("pair %d %s %s", i+1, [2]string{"parent", "change"}[side], wl)
			switch {
			case r[wl] == nil || r[wl].Metrics == nil:
				problems = append(problems, what+": no result line")
			case !r[wl].Correct:
				problems = append(problems, what+": correct:false")
			case r[wl].void:
				problems = append(problems, what+": input exhausted (void, left out of the medians)")
			case first != nil && r[wl].digest != first.digest && (side == 0 || !expectDigest):
				problems = append(problems, fmt.Sprintf("%s: verdict digest %q, pair 1 parent %q", what, r[wl].digest, first.digest))
			}
		}
	}
	return problems
}

// compare writes the report for runs[i] = {parent, change} of pair i and
// returns the problems found.
func compare(w io.Writer, sp spec, runs [][2]map[string]*result, expectDigest bool) []string {
	var problems []string
	for _, wl := range sp.Workloads {
		if runs[0][0][wl.Name] == nil && runs[0][1][wl.Name] == nil {
			continue // not a workload these runs ran
		}
		problems = append(problems, check(wl.Name, runs, expectDigest)...)
		fmt.Fprintf(w, "# %s\n%-38s %33s %33s %8s %5s  %s\n", wl.Name, "metric", "parent median [q1 q3]", "change median [q1 q3]", "change", "wins", "verdict")
		for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
			var vals [2][]float64
			wins, losses := 0, 0
			for _, pr := range runs {
				p, c := pr[0][wl.Name], pr[1][wl.Name]
				if !p.usable() || !c.usable() {
					continue
				}
				pv, okp := p.Metrics[m.Name]
				cv, okc := c.Metrics[m.Name]
				if !okp || !okc {
					continue
				}
				vals[0], vals[1] = append(vals[0], pv.Value), append(vals[1], cv.Value)
				if d := cv.Value - pv.Value; d != 0 && (d > 0) == (m.Better == "higher") {
					wins++
				} else if d != 0 {
					losses++
				}
			}
			if len(vals[0]) == 0 {
				continue
			}
			pq1, pmed, pq3 := stats.Quantile(vals[0], .25), stats.Quantile(vals[0], .5), stats.Quantile(vals[0], .75)
			cq1, cmed, cq3 := stats.Quantile(vals[1], .25), stats.Quantile(vals[1], .5), stats.Quantile(vals[1], .75)
			fmt.Fprintf(w, "%-38s %11.4g [%9.4g %9.4g] %11.4g [%9.4g %9.4g] %+7.1f%% %2d/%-2d  %s\n",
				m.Name, pmed, pq1, pq3, cmed, cq1, cq3, 100*(cmed/pmed-1), wins, len(vals[0]),
				verdict(len(vals[0]), wins, losses, cmed-pmed, pq3-pq1))
		}
	}
	return problems
}

func main() {
	expectDigest := flag.Bool("expect-digest-change", false, "the change is meant to move the verdict digests")
	flag.Parse()
	if flag.NArg() == 0 || flag.NArg()%2 != 0 {
		fmt.Fprintln(os.Stderr, "usage: pair [-expect-digest-change] parent1 change1 [parent2 change2 ...]")
		os.Exit(2)
	}
	var sp spec
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &sp)
	}
	runs := make([][2]map[string]*result, flag.NArg()/2)
	for i, path := range flag.Args() {
		if err != nil {
			break
		}
		var f *os.File
		if f, err = os.Open(path); err == nil {
			runs[i/2][i%2], err = parseRun(f)
			f.Close()
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pair:", err)
		os.Exit(2)
	}
	problems := compare(os.Stdout, sp, runs, *expectDigest)
	for _, p := range problems {
		fmt.Println("FAIL:", p)
	}
	if len(problems) > 0 {
		os.Exit(1)
	}
}
