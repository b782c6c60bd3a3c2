package golden

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestGoldenFigures is the tier-1 regression gate: it re-collects the
// figure metrics at golden scale and compares them against the committed
// golden file under the committed tolerance spec. Short mode runs the
// cheap ShortFigures subset; full mode runs every figure. After an
// intentional change, refresh with `go run ./cmd/oddsim -golden-update`.
func TestGoldenFigures(t *testing.T) {
	figs := AllFigures()
	if testing.Short() {
		figs = ShortFigures()
	}
	got, err := Collect(Config{Figures: figs})
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	want, err := LoadMetrics("testdata/golden.json")
	if err != nil {
		t.Fatalf("loading golden file: %v", err)
	}
	spec, err := LoadSpec("testdata/spec.json")
	if err != nil {
		t.Fatalf("loading spec: %v", err)
	}
	rep := Compare(got, Filter(want, figs), spec.Scoped(figs))
	if !rep.OK() {
		t.Errorf("golden comparison failed:\n%s", rep.Render())
	}
	if rep.Checked == 0 {
		t.Error("comparison checked zero metrics")
	}
}

// TestCollectDeterministic verifies the core golden contract: collecting
// twice — with different worker counts — yields bit-identical encoded
// bytes. The evaluation harness is seed-exact for any worker count, so
// any divergence is a real nondeterminism bug.
func TestCollectDeterministic(t *testing.T) {
	figs := ShortFigures()
	if !testing.Short() {
		figs = append(figs, "fig7") // exercises the parallel sweep path
	}
	a, err := Collect(Config{Figures: figs, Workers: 1})
	if err != nil {
		t.Fatalf("Collect serial: %v", err)
	}
	b, err := Collect(Config{Figures: figs, Workers: 4})
	if err != nil {
		t.Fatalf("Collect parallel: %v", err)
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Errorf("collection is not deterministic across worker counts:\nserial:\n%s\nparallel:\n%s", a.Encode(), b.Encode())
	}
}

func TestMetricsEncodeRoundTrip(t *testing.T) {
	m := Metrics{}
	m.Set("b.two", 2.5)
	m.Set("a.one", 1.0/3.0)
	m.Set("c.nan", math.NaN()) // dropped
	if _, ok := m["c.nan"]; ok {
		t.Error("Set stored a NaN metric")
	}
	enc := m.Encode()
	back, err := ParseMetrics(enc)
	if err != nil {
		t.Fatalf("ParseMetrics: %v", err)
	}
	if len(back) != 2 || back["a.one"] != 1.0/3.0 || back["b.two"] != 2.5 {
		t.Errorf("round trip mismatch: %v", back)
	}
	if !bytes.Equal(enc, back.Encode()) {
		t.Errorf("re-encode not bit-identical:\n%s\nvs\n%s", enc, back.Encode())
	}
}

func fp(v float64) *float64 { return &v }

func TestRuleForPrecedence(t *testing.T) {
	s := &Spec{
		Default: Rule{Kind: "exact"},
		Rules: map[string]Rule{
			"fig7.*":                Rule{Kind: "abs", Value: 1},
			"fig7.kernel.*":         Rule{Kind: "rel", Value: 2},
			"fig7.kernel.r0.truths": Rule{Kind: "band", Min: fp(0)},
		},
	}
	cases := []struct{ name, kind string }{
		{"fig5.engine.min", "exact"},           // default
		{"fig7.histogram.l1", "abs"},           // short prefix
		{"fig7.kernel.l1", "rel"},              // longest prefix wins
		{"fig7.kernel.r0.truths", "band"},      // exact name beats prefixes
		{"fig7.kernel.r0.truths.extra", "rel"}, // back to prefix
	}
	for _, c := range cases {
		if got := s.ruleFor(c.name).Kind; got != c.kind {
			t.Errorf("ruleFor(%q) = %q, want %q", c.name, got, c.kind)
		}
	}
}

func TestCompareViolations(t *testing.T) {
	spec := &Spec{
		Default: Rule{Kind: "exact"},
		Rules: map[string]Rule{
			"m.abs":  Rule{Kind: "abs", Value: 0.1},
			"m.rel":  Rule{Kind: "rel", Value: 0.01},
			"m.band": Rule{Kind: "band", Min: fp(0), Max: fp(1)},
		},
		Orderings: []Ordering{
			{Name: "lo under hi", Lower: "m.lo", Upper: "m.hi", Slack: 0.5},
			{Name: "missing pair", Lower: "m.ghost", Upper: "m.hi"},
		},
	}
	got := Metrics{
		"m.exact": 1.0,
		"m.abs":   2.05,
		"m.rel":   100.5, // 0.5% off under a 1% rel rule: ok
		"m.band":  1.5,   // above band max: violation
		"m.new":   3.0,   // not in golden: violation
		"m.lo":    2.0,   // 2.0 > 1.0 + 0.5: ordering violation
		"m.hi":    1.0,
	}
	want := Metrics{
		"m.exact": 1.0,
		"m.abs":   2.0,
		"m.rel":   100.0,
		"m.band":  0.5,
		"m.gone":  7.0, // missing from got: violation
		"m.lo":    0.0,
		"m.hi":    0.0,
	}
	rep := Compare(got, want, spec)
	if rep.OK() {
		t.Fatal("expected violations")
	}
	byMetric := map[string]bool{}
	for _, v := range rep.Violations {
		byMetric[v.Metric] = true
	}
	for _, name := range []string{"m.band", "m.new", "m.gone", "lo under hi", "missing pair"} {
		if !byMetric[name] {
			t.Errorf("expected a violation for %q, got %v", name, rep.Violations)
		}
	}
	for _, name := range []string{"m.exact", "m.abs", "m.rel"} {
		if byMetric[name] {
			t.Errorf("unexpected violation for %q", name)
		}
	}
	if rep.Orderings != 2 {
		t.Errorf("Orderings = %d, want 2", rep.Orderings)
	}
}

func TestSpecScoped(t *testing.T) {
	s := &Spec{
		Default: Rule{Kind: "exact"},
		Orderings: []Ordering{
			{Name: "in", Lower: "fig5.a", Upper: "fig5.b"},
			{Name: "cross", Lower: "fig5.a", Upper: "fig7.b"},
		},
	}
	scoped := s.Scoped([]string{"fig5"})
	if len(scoped.Orderings) != 1 || scoped.Orderings[0].Name != "in" {
		t.Errorf("Scoped kept %v, want only the fig5-internal ordering", scoped.Orderings)
	}
}

func TestFilter(t *testing.T) {
	m := Metrics{"fig5.a": 1, "fig7.b": 2, "mem.c": 3}
	out := Filter(m, []string{"fig5", "mem"})
	if len(out) != 2 || out["fig5.a"] != 1 || out["mem.c"] != 3 {
		t.Errorf("Filter = %v", out)
	}
}

func TestCollectUnknownFigure(t *testing.T) {
	if _, err := Collect(Config{Figures: []string{"fig99"}}); err == nil {
		t.Error("expected error for unknown figure")
	}
}

// TestRegistryOwnsGoldenNamespace ties the experiment registry to the
// committed artifacts: the canonical order is pinned (it is the order
// `oddsim -exp all` prints), names are unique, every golden key and every
// spec rule/ordering belongs to a registered figure, and every registered
// figure owns at least one golden key — so a figure cannot be registered
// without `make update-golden`, nor dropped while its pins linger.
func TestRegistryOwnsGoldenNamespace(t *testing.T) {
	want := []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "mem", "ablation", "figfault", "figdrift", "figbackends"}
	if got := AllFigures(); !reflect.DeepEqual(got, want) {
		t.Errorf("AllFigures() = %v, want %v", got, want)
	}
	isFig := map[string]bool{}
	for _, f := range AllFigures() {
		if isFig[f] {
			t.Errorf("figure %q registered twice", f)
		}
		isFig[f] = true
	}
	for _, f := range ShortFigures() {
		if !isFig[f] {
			t.Errorf("short figure %q is not in AllFigures", f)
		}
	}

	gold, err := LoadMetrics("testdata/golden.json")
	if err != nil {
		t.Fatalf("loading golden file: %v", err)
	}
	spec, err := LoadSpec("testdata/spec.json")
	if err != nil {
		t.Fatalf("loading spec: %v", err)
	}
	// figOf returns the first path segment, failing the test unless it is a
	// registered name.
	figOf := func(where, metric string) string {
		fig, _, _ := strings.Cut(metric, ".")
		if !isFig[fig] {
			t.Errorf("%s %q: %q is not a registered figure", where, metric, fig)
		}
		return fig
	}
	keys := map[string]int{}
	for k := range gold {
		keys[figOf("golden key", k)]++
	}
	for k := range spec.Rules {
		figOf("spec rule", k)
	}
	for _, o := range spec.Orderings {
		figOf("ordering "+o.Name+": lower", o.Lower)
		figOf("ordering "+o.Name+": upper", o.Upper)
	}
	for _, f := range AllFigures() {
		if keys[f] == 0 {
			t.Errorf("figure %q owns no golden key (run `make update-golden`)", f)
		}
	}
}
