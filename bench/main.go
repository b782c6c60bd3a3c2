// Command bench is the repository's serving benchmark. It drives named
// workloads against the real stack — serve.Server or cluster.Router
// behind loopback TCP listeners in this process — over two client
// connections, checks every served verdict against an in-process twin,
// and prints named metrics with units. See README.md in this directory.
//
//	go run ./bench                              # all workloads, end to end
//	go run ./bench -workload kernel-steady      # one workload
//	go run ./bench -workload light-fanout -trace 1   # its per-layer metrics
//	go run ./bench -sets 2                      # the suite twice, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name     = flag.String("workload", "", "workload to run (default: every workload, each in a fresh child process)")
		seed     = flag.Int64("seed", 1, "seed of the generated traffic")
		seconds  = flag.Float64("seconds", 16, "length of the measured phases")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics instead of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "traced run: write the recorded spans to this file as JSON lines")
		sets     = flag.Int("sets", 1, "run the suite this many times and compare the sets against the bounds")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for checkpoint files")
		small    = flag.Bool("smoke", false, "scaled-down workloads and counts: every phase in a second or two, numbers meaningless")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		return fail("unexpected arguments: %v", flag.Args())
	}
	if *seconds <= 0 || *sets < 1 {
		return fail("-seconds and -sets must be positive")
	}
	if *name == "" {
		return runSuite(*sets, *seed, *seconds, *trace, *small)
	}
	w, err := workloadByName(*name)
	if err != nil {
		return fail("%v", err)
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail("%v", err)
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, dir: dir, sz: full}
	if *small {
		cfg.w, cfg.sz = w.small(), smoke
	}

	fmt.Printf("# %s seed=%d seconds=%g trace=%d | %s\n", w.name, *seed, *seconds, *trace, hostLine())
	var (
		out  *outcome
		defs = endToEnd
	)
	if *trace != 0 {
		defs = perLayer
		out, err = runTraced(cfg, *traceOut)
	} else {
		out, err = runEndToEnd(cfg)
	}
	if err != nil {
		return fail("%s: %v", w.name, err)
	}
	for _, n := range out.notes {
		fmt.Println("# " + n)
	}
	metrics, missing := pick(defs, out.values)
	if len(missing) > 0 {
		return fail("%s: the run produced no value for %s", w.name, strings.Join(missing, ", "))
	}
	if !out.correct {
		// A wrong answer is not a slow answer: no metrics for it.
		return fail("%s: served output disagrees with the twin (%d of %d failed); no metrics printed", w.name, out.failed, out.attempted)
	}
	for _, d := range defs {
		fmt.Printf("%-40s %18.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{out.correct, out.attempted, out.failed, metrics})
	if err != nil {
		return fail("%v", err)
	}
	fmt.Println(string(line))
	return 0
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	return 1
}

// hostLine describes the host every number was taken on.
func hostLine() string {
	model := "unknown cpu"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(l, "model name") {
				if _, v, ok := strings.Cut(l, ":"); ok {
					model = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d gomaxprocs=%d %s %s/%s cpu=%q conns=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, model, conns)
}
