package experiments

import (
	"odds/internal/core"
	"odds/internal/distance"
	"odds/internal/serve"
	"odds/internal/stream"
)

// DriftConfig scales figdrift, the concept-drift experiment the paper
// never ran: detection delay, false-alarm rate, and precision retention
// under the drift menu of internal/stream (abrupt, ramp, variance,
// seasonal, plus a stationary control), comparing a drift-armed serving
// pipeline against a frozen twin. Both pipelines of every row share the
// same seed and consume the same labeled stream, so every column
// difference between the adaptive and frozen twins is caused by the drift
// monitor's adaptations and nothing else.
type DriftConfig struct {
	// WindowCap is the pipelines' true-window capacity |W|.
	WindowCap int
	// Readings is the stream length per row.
	Readings int
	// DriftAt is the stream index where the drift begins.
	DriftAt int
	// Seed is the master seed (streams and pipelines derive from it).
	Seed int64
	// Kinds lists the drift menu; nil means all five.
	Kinds []stream.DriftKind
}

// runFigDrift is the registry driver. The CI-scale configuration the
// golden harness pins is also what oddsim runs without -quick; the quick
// scale halves the stream.
func runFigDrift(o Options) (Result, error) {
	c := DriftConfig{WindowCap: 400, Readings: 6000, DriftAt: 3000, Seed: o.Seed}
	if o.Scale == Quick {
		c.Readings, c.DriftAt = 3000, 1500
	}
	return RunFigDrift(c)
}

func (c DriftConfig) kinds() []stream.DriftKind {
	if len(c.Kinds) > 0 {
		return c.Kinds
	}
	return []stream.DriftKind{
		stream.DriftNone, stream.DriftAbrupt, stream.DriftRamp,
		stream.DriftVariance, stream.DriftSeasonal,
	}
}

// driftArm is the adaptive twin's drift configuration: the serving
// defaults at an experiment-scale sampling stride (the default stride of
// 32 is tuned for production overhead; at CI stream lengths it would
// leave the detector windows half empty), with the window shrink enabled
// so every adaptation action is exercised.
func driftArm() serve.DriftConfig {
	a := serve.DefaultDriftConfig()
	a.SampleEvery = 2
	a.JSEvery = 64
	a.ShrinkFrac = 0.5
	return a
}

// servingPipeline is the 1-d serving pipeline both serving-path figures
// (figdrift, figbackends) score against the generator's labels: the
// serving defaults at |R| = |W|/4, flagging (3, 0.05)-distance outliers.
func servingPipeline(windowCap int, seed int64) serve.PipelineConfig {
	ccfg := core.DefaultConfig(1)
	ccfg.WindowCap = windowCap
	ccfg.SampleSize = windowCap / 4
	return serve.PipelineConfig{
		Core:     ccfg,
		Kind:     serve.DetectDistance,
		Distance: distance.Params{Radius: 0.05, Threshold: 3},
		Seed:     seed,
	}
}

// pipelineConfig builds one twin. RebuildEvery is deliberately long:
// the scheduled bandwidth refresh is the frozen pipeline's only way to
// adapt, so a long cadence is what gives the forced refresh (the
// adaptive pipeline's reaction to a detection) something to win.
func (c DriftConfig) pipelineConfig(armed bool) serve.PipelineConfig {
	pcfg := servingPipeline(c.WindowCap, c.Seed)
	pcfg.Core.RebuildEvery = 256
	if armed {
		pcfg.Drift = driftArm()
	}
	return pcfg
}

// DriftRow is one drift kind's outcome.
type DriftRow struct {
	Kind string
	// Detections counts the adaptive pipeline's fire events (readings
	// where the bank or the JS signal tripped); FalseAlarms is the subset
	// strictly before DriftAt — for the stationary row, every fire.
	Detections  int
	FalseAlarms int
	// Delay is the number of readings from DriftAt to the first
	// post-drift fire (inclusive); Readings-DriftAt if the drift is never
	// detected, 0 for the stationary row.
	Delay int
	// Refreshes and Shrinks count the adaptation actions taken.
	Refreshes int
	Shrinks   int
	// Precision/recall of the estimate-path verdicts against the
	// generator's ground-truth labels over the scoring interval, for the
	// adaptive and the frozen twin.
	AdaptPrecision  float64
	AdaptRecall     float64
	FrozenPrecision float64
	FrozenRecall    float64
}

// RunFigDrift executes the sweep: per drift kind, one adaptive and one
// frozen pipeline over the identical labeled stream. Everything is a
// deterministic function of the config.
func RunFigDrift(c DriftConfig) (DriftResult, error) {
	res := DriftResult{DriftAt: c.DriftAt}
	for _, kind := range c.kinds() {
		row, err := c.runKind(kind)
		if err != nil {
			return DriftResult{}, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func (c DriftConfig) runKind(kind stream.DriftKind) (DriftRow, error) {
	adaptive, err := serve.NewPipeline(c.pipelineConfig(true))
	if err != nil {
		return DriftRow{}, err
	}
	frozen, err := serve.NewPipeline(c.pipelineConfig(false))
	if err != nil {
		return DriftRow{}, err
	}
	src := stream.NewDrifting(stream.DefaultDrifting(kind, c.DriftAt), 1, c.Seed+int64(kind))

	row := DriftRow{Kind: kind.String(), Delay: 0}
	var adaptScore, frozenScore PR
	// Precision/recall are scored over [DriftAt, DriftAt+2|W|): the
	// transition regime where adaptation can matter.
	scoreEnd := c.DriftAt + 2*c.WindowCap
	if scoreEnd > c.Readings {
		scoreEnd = c.Readings
	}
	firstPostFire := -1
	lastFires := uint64(0)
	for i := 0; i < c.Readings; i++ {
		p, truth := src.NextLabeled()
		av := adaptive.Ingest(p)
		fv := frozen.Ingest(p)

		st := adaptive.DriftStats()
		if fires := st.Detector.Detections + st.JSTrips; fires > lastFires {
			lastFires = fires
			row.Detections++
			if i < c.DriftAt {
				row.FalseAlarms++
			} else if firstPostFire < 0 {
				firstPostFire = i
			}
		}
		if i >= c.DriftAt && i < scoreEnd {
			adaptScore.Observe(av.Warmed && av.Outlier, truth)
			frozenScore.Observe(fv.Warmed && fv.Outlier, truth)
		}
	}

	if kind != stream.DriftNone {
		if firstPostFire >= 0 {
			row.Delay = firstPostFire - c.DriftAt + 1
		} else {
			row.Delay = c.Readings - c.DriftAt
		}
	}
	st := adaptive.DriftStats()
	row.Refreshes = int(st.Refreshes)
	row.Shrinks = int(st.Shrinks)
	row.AdaptPrecision = orOne(adaptScore.Precision())
	row.AdaptRecall = orOne(adaptScore.Recall())
	row.FrozenPrecision = orOne(frozenScore.Precision())
	row.FrozenRecall = orOne(frozenScore.Recall())
	return row, nil
}

// DriftResult is the figdrift result: the rows plus the drift onset the
// table's note quotes.
type DriftResult struct {
	DriftAt int
	Rows    []DriftRow
}

// Table renders the sweep.
func (res DriftResult) Table() *Table {
	t := &Table{
		Title: "figdrift: detection delay, false alarms, and precision retention under drift",
		Columns: []string{"kind", "fires", "false_alarms", "delay", "refreshes", "shrinks",
			"prec_adapt", "prec_frozen", "rec_adapt", "rec_frozen"},
		Notes: []string{
			"adaptive (drift-armed) vs frozen pipeline on the identical labeled stream; drift begins at index " + FmtF(float64(res.DriftAt), 0),
			"false_alarms are fires before the drift onset; precision/recall are scored over the post-drift transition window",
		},
	}
	for _, r := range res.Rows {
		t.AddRow(r.Kind, r.Detections, r.FalseAlarms, r.Delay, r.Refreshes, r.Shrinks,
			FmtF(r.AdaptPrecision, 3), FmtF(r.FrozenPrecision, 3),
			FmtF(r.AdaptRecall, 3), FmtF(r.FrozenRecall, 3))
	}
	return t
}

// Metrics emits every row under its drift kind.
func (res DriftResult) Metrics(set func(string, float64)) {
	for _, r := range res.Rows {
		p := r.Kind
		set(p+".detections", float64(r.Detections))
		set(p+".false_alarms", float64(r.FalseAlarms))
		set(p+".delay", float64(r.Delay))
		set(p+".refreshes", float64(r.Refreshes))
		set(p+".shrinks", float64(r.Shrinks))
		set(p+".adapt_precision", r.AdaptPrecision)
		set(p+".frozen_precision", r.FrozenPrecision)
		set(p+".adapt_recall", r.AdaptRecall)
		set(p+".frozen_recall", r.FrozenRecall)
	}
}
