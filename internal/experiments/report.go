// Package experiments is the evaluation harness: every table and figure
// of the paper's Section 10 (Figures 5–11, memory, ablation) plus the
// three experiments the paper never ran (figfault, figdrift, figbackends).
// Each experiment is a pure function from a configuration to a typed
// result that renders the Table the paper plots and emits the same
// numbers as flat golden metrics; the registry declares each one once,
// with its paper, quick and golden scale beside its driver. cmd/oddsim
// prints them, internal/golden pins them, and bench_test.go wraps them
// as benchmarks. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row; values may be strings, ints, or floats.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case string:
			row[i] = x
		case int:
			row[i] = fmt.Sprintf("%d", x)
		case float64:
			row[i] = FmtF(x, 3)
		default:
			row[i] = fmt.Sprint(x)
		}
	}
	t.Rows = append(t.Rows, row)
}

// FmtF formats a float with the given precision, rendering NaN as "-".
func FmtF(x float64, prec int) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf("%.*f", prec, x)
}

// FmtPct formats a ratio as a percentage, rendering NaN as "-".
func FmtPct(x float64) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*x)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// PR accumulates the precision/recall counters the paper reports.
// Precision is the fraction of reported outliers that are true outliers;
// recall the fraction of true outliers reported (Section 10, Measures of
// Interest).
type PR struct {
	TP, FP, FN int
}

// Add merges another counter.
func (p *PR) Add(o PR) {
	p.TP += o.TP
	p.FP += o.FP
	p.FN += o.FN
}

// Observe records one (predicted, truth) decision pair.
func (p *PR) Observe(predicted, truth bool) {
	switch {
	case predicted && truth:
		p.TP++
	case predicted && !truth:
		p.FP++
	case !predicted && truth:
		p.FN++
	}
}

// Precision returns TP/(TP+FP), NaN when nothing was predicted.
func (p PR) Precision() float64 {
	if p.TP+p.FP == 0 {
		return math.NaN()
	}
	return float64(p.TP) / float64(p.TP+p.FP)
}

// Recall returns TP/(TP+FN), NaN when there were no true outliers.
func (p PR) Recall() float64 {
	if p.TP+p.FN == 0 {
		return math.NaN()
	}
	return float64(p.TP) / float64(p.TP+p.FN)
}

// Truths returns the number of true outliers observed.
func (p PR) Truths() int { return p.TP + p.FN }

// orOne scores an undefined precision or recall as 1, the convention of
// the serving-path figures (figdrift, figbackends): a detector that
// flagged nothing made no false claims, and one with nothing to find
// missed nothing.
func orOne(v float64) float64 {
	if math.IsNaN(v) {
		return 1
	}
	return v
}

// slug converts a human label ("equi-depth histogram") into a metric path
// segment ("equi_depth_histogram").
func slug(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '-', '/':
			return '_'
		}
		return r
	}, s)
}

// meanPR averages precision and recall over per-run counters the way the
// paper averages over its 12 runs (macro average; runs with undefined
// metrics are skipped for that metric).
func meanPR(runs []PR) (prec, rec float64) {
	var ps, rs []float64
	for _, r := range runs {
		if v := r.Precision(); !math.IsNaN(v) {
			ps = append(ps, v)
		}
		if v := r.Recall(); !math.IsNaN(v) {
			rs = append(rs, v)
		}
	}
	mean := func(xs []float64) float64 {
		if len(xs) == 0 {
			return math.NaN()
		}
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	return mean(ps), mean(rs)
}
