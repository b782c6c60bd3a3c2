package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// testSpec is a two-metric BENCHMARK.json.
func testSpec() spec {
	var sp spec
	sp.Workloads = []struct{ Name string }{{"light-fanout"}, {"mixed-json"}}
	sp.EndToEnd = []struct{ Name, Better string }{{"readings_per_s", "higher"}, {"heap_live_mb", "lower"}}
	return sp
}

// runOutput is a canned benchmark output for light-fanout: header, notes
// (the paced line says whether the input ran out), digest and result line.
func runOutput(rate, heap float64, digest string, correct, exhausted bool) string {
	return fmt.Sprintf(`# light-fanout seed=7 seconds=16 trace=0 | nproc=2 gomaxprocs=2
# paced: n=1000, p50 3636 us, p99 17089 us, max 66350 us, missed 0, late 16 (0.0160), input exhausted %t
# verdict_digest %s over the first 65536 readings of each connection; 7773 estimate-path outliers
readings_per_s                                       %g 1/s
{"correct":%t,"attempted":1117776,"failed":0,"metrics":{"heap_live_mb":{"value":%g,"unit":"MB"},"readings_per_s":{"value":%g,"unit":"1/s"}}}
`, exhausted, digest, rate, correct, heap, rate)
}

func parse(t *testing.T, out string) map[string]*result {
	t.Helper()
	r, err := parseRun(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// pairs builds n pairs; side(i) gives pair i's parent and change outputs.
func pairs(t *testing.T, n int, side func(i int) (string, string)) [][2]map[string]*result {
	runs := make([][2]map[string]*result, n)
	for i := range runs {
		p, c := side(i)
		runs[i] = [2]map[string]*result{parse(t, p), parse(t, c)}
	}
	return runs
}

// report runs compare and returns the verdict column per metric.
func report(t *testing.T, runs [][2]map[string]*result, expectDigest bool) (map[string]string, []string) {
	t.Helper()
	var b strings.Builder
	problems := compare(&b, testSpec(), runs, expectDigest)
	verdicts := map[string]string{}
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && (f[0] == "readings_per_s" || f[0] == "heap_live_mb") {
			verdicts[f[0]] = strings.TrimSpace(line[strings.LastIndex(line, "  "):])
		}
	}
	return verdicts, problems
}

func TestParseRun(t *testing.T) {
	r := parse(t, "build noise before any header\n"+runOutput(471500, 7.71, "f5a18a1eb986f216", true, true))["light-fanout"]
	if r == nil || !r.Correct || !r.void || r.digest != "f5a18a1eb986f216" ||
		r.Metrics["readings_per_s"].Value != 471500 || r.Metrics["heap_live_mb"].Value != 7.71 {
		t.Fatalf("parsed %+v", r)
	}
}

// TestHeadAgainstHead: the same ten runs on both sides win nothing, lose
// nothing, and raise no problem.
func TestHeadAgainstHead(t *testing.T) {
	runs := pairs(t, 10, func(i int) (string, string) {
		out := runOutput(450000+float64(i%4)*9000, 7.7+float64(i%3)*0.05, "510ab6c46a7106d2", true, false)
		return out, out
	})
	verdicts, problems := report(t, runs, false)
	if len(problems) != 0 {
		t.Fatalf("problems: %v", problems)
	}
	for m, v := range verdicts {
		if v != "within noise" {
			t.Errorf("%s: %q", m, v)
		}
	}
	if len(verdicts) != 2 {
		t.Fatalf("verdicts %v", verdicts)
	}
}

// TestNoiseRule: a gain needs ten pairs, nine wins and a median gap above
// the parent's IQR; the mirror image is a loss.
func TestNoiseRule(t *testing.T) {
	parent := func(i int) float64 { return 460000 + float64(i%5)*5000 }
	for _, tc := range []struct {
		name   string
		n      int
		change func(i int) float64
		want   string
	}{
		{"ten clear wins", 10, func(i int) float64 { return parent(i) * 1.5 }, "GAIN"},
		{"nine wins", 10, func(i int) float64 {
			if i == 3 {
				return parent(i) * 0.9
			}
			return parent(i) * 1.5
		}, "GAIN"},
		{"eight wins", 10, func(i int) float64 {
			if i < 2 {
				return parent(i) * 0.9
			}
			return parent(i) * 1.5
		}, "within noise"},
		{"wins inside the parent's IQR", 10, func(i int) float64 { return parent(i) + 1 }, "within noise"},
		{"nine clear wins of nine pairs", 9, func(i int) float64 { return parent(i) * 1.5 }, "too few pairs"},
		{"ten clear losses", 10, func(i int) float64 { return parent(i) * 0.5 }, "LOSS"},
	} {
		runs := pairs(t, tc.n, func(i int) (string, string) {
			return runOutput(parent(i), 7.7, "d", true, false), runOutput(tc.change(i), 7.7, "d", true, false)
		})
		verdicts, problems := report(t, runs, false)
		if len(problems) != 0 || verdicts["readings_per_s"] != tc.want {
			t.Errorf("%s: verdict %q, problems %v; want %q", tc.name, verdicts["readings_per_s"], problems, tc.want)
		}
	}
}

// TestProblems: each way a run can be wrong is reported once, and a void
// run is left out of the medians.
func TestProblems(t *testing.T) {
	ok := func(rate float64, digest string) string { return runOutput(rate, 7.7, digest, true, false) }
	for _, tc := range []struct {
		name         string
		change       string
		expectDigest bool
		want         string
	}{
		{"correct false", runOutput(5e5, 7.7, "d", false, false), false, "pair 2 change light-fanout: correct:false"},
		{"input exhausted", runOutput(5e5, 7.7, "d", true, true), false, "pair 2 change light-fanout: input exhausted"},
		{"no result line", "# light-fanout seed=7 seconds=16 trace=0\nbench: paced window 39 sent nothing\n", false, "pair 2 change light-fanout: no result line"},
		{"digest moved", ok(5e5, "e"), false, `pair 2 change light-fanout: verdict digest "e", pair 1 parent "d"`},
		{"digest moved as expected", ok(5e5, "e"), true, ""},
	} {
		runs := pairs(t, 3, func(i int) (string, string) {
			if i == 1 {
				return ok(4e5, "d"), tc.change
			}
			return ok(4e5, "d"), ok(5e5, "d")
		})
		var b strings.Builder
		problems := compare(&b, testSpec(), runs, tc.expectDigest)
		if got := strings.Join(problems, "\n"); !strings.HasPrefix(got, tc.want) || (tc.want == "") != (got == "") || strings.Count(got, "\n") != 0 {
			t.Errorf("%s: problems %q, want %q", tc.name, got, tc.want)
		}
		if want := " 2/2 "; tc.name == "input exhausted" && !strings.Contains(b.String(), want) {
			t.Errorf("%s: the void pair was counted:\n%s", tc.name, b.String())
		}
	}
	// A parent side must agree with itself whatever the flag says.
	runs := pairs(t, 2, func(i int) (string, string) {
		return ok(4e5, fmt.Sprint("p", i)), ok(5e5, "c")
	})
	if problems := compare(io.Discard, testSpec(), runs, true); len(problems) != 1 || !strings.Contains(problems[0], "pair 2 parent") {
		t.Errorf("parent digests p0, p1: problems %v", problems)
	}
}
