// Package golden is the figure-regression harness: it re-runs every
// experiment driver of the paper's Section 10 reproduction at CI-sized
// parameters, flattens each figure into named scalar metrics
// (precision/recall per level, JS-divergence phases, message rates, sketch
// bytes per node), and compares the result against a committed golden file
// under testdata/ with per-metric tolerance specs.
//
// The committed artifacts are:
//
//	testdata/golden.json — the canonical metric values (regenerate with
//	                       `oddsim -golden-update` after intentional changes)
//	testdata/spec.json   — how each metric is compared: exact by default
//	                       (every driver is seeded and deterministic),
//	                       banded for shape assertions the paper makes
//	                       (orderings like "kernel precision ≥ histogram
//	                       precision at every level")
//
// TestGoldenFigures wires the harness into the tier-1 suite (short mode
// runs a cheap subset, full mode every figure); `oddsim -golden-check` /
// `make verify-figures` run it from the command line with a readable
// per-metric report.
package golden

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Metrics is a flat metric-name → value map. Names are dot-separated
// paths ("fig7.kernel.r0.0500.d3.l1.precision"). Values that would be NaN
// (undefined precision/recall) are omitted at collection time, so presence
// itself is deterministic and part of the golden contract.
type Metrics map[string]float64

// Set records a metric unless the value is NaN.
func (m Metrics) Set(name string, v float64) {
	if math.IsNaN(v) {
		return
	}
	m[name] = v
}

// Names returns the metric names in sorted order.
func (m Metrics) Names() []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Encode renders the metrics as deterministic JSON: keys sorted, floats in
// shortest round-trip form, one metric per line. Running the collector
// twice on the same configuration yields bit-identical bytes.
func (m Metrics) Encode() []byte {
	var sb strings.Builder
	sb.WriteString("{\n")
	names := m.Names()
	for i, k := range names {
		fmt.Fprintf(&sb, "  %q: %s", k, strconv.FormatFloat(m[k], 'g', -1, 64))
		if i < len(names)-1 {
			sb.WriteByte(',')
		}
		sb.WriteByte('\n')
	}
	sb.WriteString("}\n")
	return []byte(sb.String())
}

// ParseMetrics decodes a golden metrics file.
func ParseMetrics(data []byte) (Metrics, error) {
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("golden: parsing metrics: %w", err)
	}
	return Metrics(m), nil
}

// LoadMetrics reads and decodes a golden metrics file.
func LoadMetrics(path string) (Metrics, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseMetrics(data)
}

// WriteMetrics encodes the metrics deterministically and writes them to
// path.
func WriteMetrics(path string, m Metrics) error {
	return os.WriteFile(path, m.Encode(), 0o644)
}
