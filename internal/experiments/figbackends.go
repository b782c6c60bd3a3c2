package experiments

import (
	"fmt"
	"time"

	"odds/internal/detector"
	"odds/internal/serve"
	"odds/internal/stream"
)

// BackendsConfig scales figbackends, the detector-backend race the paper's
// single-stack evaluation never ran: all four internal/detector engines
// (kernelchain, qn, coreset, ewma) over the same labeled workloads, scoring
// estimate-path precision/recall against the generator's ground truth
// alongside each backend's state footprint and per-reading cost. Every
// backend of a workload row consumes the identical labeled stream with the
// same seed, so every column difference between backends is caused by the
// engine and nothing else.
type BackendsConfig struct {
	// WindowCap is the pipelines' true-window capacity |W|.
	WindowCap int
	// Readings is the stream length per cell.
	Readings int
	// Seed is the master seed (streams and pipelines derive from it).
	Seed int64
}

// backendWorkloads are the raced stream regimes: stationary and abrupt
// drift, the two that separate the engines most sharply (steady-state
// accuracy and post-shift retention).
var backendWorkloads = []stream.DriftKind{stream.DriftNone, stream.DriftAbrupt}

// runFigBackends is the registry driver. The CI-scale configuration the
// golden harness pins is also what oddsim runs without -quick; the quick
// scale halves the stream.
func runFigBackends(o Options) (Result, error) {
	c := BackendsConfig{WindowCap: 400, Readings: 4000, Seed: o.Seed}
	if o.Scale == Quick {
		c.Readings = 2000
	}
	return RunFigBackends(c)
}

// pipelineConfig builds one cell's pipeline with the given default
// backend. The non-kernelchain engines are tuned to the workload's scale
// (inlier sigma 0.04 in [0,1]); kernelchain runs the serving defaults the
// other figures use, so its numbers are comparable across experiments.
func (c BackendsConfig) pipelineConfig(kind detector.Kind) serve.PipelineConfig {
	pcfg := servingPipeline(c.WindowCap, c.Seed)
	pcfg.Backend = kind
	pcfg.Backends = detector.Params{
		Qn:      detector.QnConfig{Eps: 0.02, K: 4, MinN: 64},
		Coreset: detector.CoresetConfig{Size: c.WindowCap / 4, RebuildEvery: 64, WindowCount: c.WindowCap, MinN: 64},
		EWMA:    detector.EWMAConfig{Lambda: 0.1, K: 4, MinN: 64},
	}
	return pcfg
}

// BackendsRow is one (workload, backend) cell's outcome.
type BackendsRow struct {
	Workload string
	Backend  detector.Kind
	// Precision/recall of the estimate-path verdicts (Warmed && Outlier)
	// against the generator's ground-truth labels, scored from WindowCap
	// onward so every backend is past warm-up.
	Precision float64
	Recall    float64
	// Flagged and Truths count flagged readings and true outliers over the
	// scoring interval.
	Flagged int
	Truths  int
	// StateBytes is the backend's final state footprint — deterministic,
	// so the golden cost orderings pin it.
	StateBytes int
	// NsPerReading is the measured per-reading ingest cost. Wall-clock, so
	// NOT a golden metric: it lands in the printed table, never in
	// golden.json.
	NsPerReading float64
}

// BackendsRows is the figbackends result.
type BackendsRows []BackendsRow

// RunFigBackends executes the race: per workload, each backend over the
// identical labeled stream. Every column except NsPerReading is a
// deterministic function of the config.
func RunFigBackends(c BackendsConfig) (BackendsRows, error) {
	var rows BackendsRows
	for _, w := range backendWorkloads {
		for _, kind := range detector.AllKinds() {
			row, err := c.runCell(w, kind)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func (c BackendsConfig) runCell(w stream.DriftKind, kind detector.Kind) (BackendsRow, error) {
	p, err := serve.NewPipeline(c.pipelineConfig(kind))
	if err != nil {
		return BackendsRow{}, err
	}
	driftAt := c.Readings / 2
	src := stream.NewDrifting(stream.DefaultDrifting(w, driftAt), 1, c.Seed+int64(w))

	row := BackendsRow{Workload: w.String(), Backend: kind}
	var sc PR
	start := time.Now()
	for i := 0; i < c.Readings; i++ {
		pt, truth := src.NextLabeled()
		v := p.Ingest(pt)
		if i >= c.WindowCap {
			flagged := v.Warmed && v.Outlier
			sc.Observe(flagged, truth)
			if flagged {
				row.Flagged++
			}
			if truth {
				row.Truths++
			}
		}
	}
	row.NsPerReading = float64(time.Since(start).Nanoseconds()) / float64(c.Readings)
	row.Precision = orOne(sc.Precision())
	row.Recall = orOne(sc.Recall())
	row.StateBytes = p.BackendStats()[0].StateBytes
	return row, nil
}

// Table renders the race.
func (rows BackendsRows) Table() *Table {
	t := &Table{
		Title: "figbackends: detector backends raced on identical labeled workloads",
		Columns: []string{"workload", "backend", "precision", "recall",
			"flagged", "truths", "state_bytes", "ns_per_reading"},
		Notes: []string{
			"all backends consume the same labeled stream per workload; scored past warm-up (index >= |W|)",
			"state_bytes is deterministic and golden-pinned; ns_per_reading is wall-clock and informational",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Workload, string(r.Backend),
			FmtF(r.Precision, 3), FmtF(r.Recall, 3),
			r.Flagged, r.Truths, r.StateBytes, FmtF(r.NsPerReading, 0))
	}
	return t
}

// Metrics emits every cell under its workload and backend. NsPerReading is
// wall-clock and deliberately NOT emitted: golden metrics must be
// deterministic. The cost orderings pin StateBytes instead.
func (rows BackendsRows) Metrics(set func(string, float64)) {
	for _, r := range rows {
		p := fmt.Sprintf("%s.%s", r.Workload, r.Backend)
		set(p+".precision", r.Precision)
		set(p+".recall", r.Recall)
		set(p+".flagged", float64(r.Flagged))
		set(p+".truths", float64(r.Truths))
		set(p+".state_bytes", float64(r.StateBytes))
	}
}
