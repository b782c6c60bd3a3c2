package twin

import (
	"fmt"
	"strings"
	"testing"

	"odds/internal/core"
	"odds/internal/distance"
	"odds/internal/mdef"
	"odds/internal/serve"
)

// testPipeline is a small-window pipeline configuration, so the estimate
// path warms up and models rebuild within a few hundred readings.
func testPipeline() serve.PipelineConfig {
	ccfg := core.DefaultConfig(1)
	ccfg.WindowCap = 150
	ccfg.SampleSize = 50
	return serve.PipelineConfig{
		Core:     ccfg,
		Kind:     serve.DetectDistance,
		Distance: distance.Params{Radius: 0.05, Threshold: 3},
		MDEF:     mdef.Params{R: 0.2, AlphaR: 0.05, KSigma: 1.5},
		Seed:     42,
	}
}

// TestTwinRules pins the oracle's rules one by one. A reference pipeline
// built like the twin's shard 0 serves the verdicts a correct server
// would; each case feeds the twin a prefix of them that must pass, then
// one step whose outcome is the rule under test.
func TestTwinRules(t *testing.T) {
	pcfg := testPipeline()
	st := &serve.StatsResponse{Shards: 2, PipelineConfig: pcfg}
	ref, err := serve.NewPipeline(st.PipelineConfigFor(0))
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	rs := make([]serve.Reading, n)
	pushed := make([]serve.Event, n) // what a correct server serves and pushes
	outliers := 0
	for k := range rs {
		rs[k] = serve.Reading{Sensor: fmt.Sprintf("sensor-%03d", k%3), Value: []float64{0.5 + 0.3*float64(k*13%97)/97}}
		if k%23 == 0 {
			rs[k].Value[0] += 3 // spike
		}
		v := ref.IngestSensor(rs[k].Sensor, rs[k].Value)
		pushed[k] = serve.Event{Sensor: rs[k].Sensor, Seq: v.Seq, Outlier: v.Outlier, Exact: v.Exact, Warmed: v.Warmed}
		if v.Outlier {
			outliers++
		}
	}
	if outliers == 0 || !pushed[n-1].Warmed {
		t.Fatalf("reference stream too tame: %d outliers, warmed %v", outliers, pushed[n-1].Warmed)
	}
	edited := func(k int, edit func(*serve.Event)) serve.Event {
		e := pushed[k]
		if edit != nil {
			edit(&e)
		}
		return e
	}
	// accept: the client claims reading k (sent by e.Sensor) is seq, and
	// the server answers e.
	accept := func(seq uint64, k int, edit func(*serve.Event)) func(*Twin) error {
		return func(tw *Twin) error {
			e := edited(k, edit)
			return tw.Accept(0, seq, serve.Reading{Sensor: e.Sensor, Value: rs[k].Value},
				serve.ReadingResult{Accepted: true, Seq: e.Seq, Outlier: e.Outlier, Exact: e.Exact, Warmed: e.Warmed})
		}
	}
	event := func(k int, edit func(*serve.Event)) func(*Twin) error {
		return func(tw *Twin) error { return tw.Event(edited(k, edit)) }
	}
	twice := func(step func(*Twin) error) func(*Twin) error {
		return func(tw *Twin) error {
			if err := step(tw); err != nil {
				return fmt.Errorf("first time: %w", err)
			}
			return step(tw)
		}
	}
	sensor := func(e *serve.Event) { e.Sensor = "sensor-009" }
	outlier := func(e *serve.Event) { e.Outlier = !e.Outlier }
	exact := func(e *serve.Event) { e.Exact = !e.Exact }
	warmed := func(e *serve.Event) { e.Warmed = !e.Warmed }

	for _, tc := range []struct {
		name   string
		caught int // readings fed with CatchUp first
		sent   int // then accepted in order; each must pass
		step   func(*Twin) error
		want   string // "" = the step passes, else a substring of its error
	}{
		{"in-order accept", 0, n - 1, accept(n, n-1, nil), ""},
		{"equal re-serve", 0, 5, accept(3, 2, nil), ""},
		{"re-serve with a flag flipped", 0, 5, accept(3, 2, warmed), "shard 0 seq 3 (sensor-002"},
		{"re-serve from another sensor", 0, 5, accept(3, 2, sensor), "shard 0 seq 3 re-sent as sensor-009"},
		{"new reading with a flag flipped", 0, 5, accept(6, 5, exact), "shard 0 seq 6 (sensor-002"},
		{"seq gap", 0, 2, accept(4, 3, nil), "gap"},
		{"seq 0", 0, 2, accept(0, 0, nil), "gap"},
		{"served seq differs from the claimed one", 0, 0, accept(1, 0, func(e *serve.Event) { e.Seq = 2 }), "shard 0 seq 1"},
		{"event equal to the record", 0, 2, event(1, nil), ""},
		{"event for an unsent seq", 0, 2, event(2, nil), "never sent"},
		{"event for an unknown shard", 0, 2, event(1, func(e *serve.Event) { e.Shard = 2 }), "never sent"},
		{"duplicate event", 0, 2, twice(event(1, nil)), "duplicate"},
		{"event from another sensor", 0, 2, event(1, sensor), "stream event"},
		{"event with outlier flipped", 0, 2, event(1, outlier), "stream event"},
		{"event with exact flipped", 0, 2, event(1, exact), "stream event"},
		{"event with warmed flipped", 0, 2, event(1, warmed), "stream event"},
		{"catch-up continues the cursor", 200, 0, accept(201, 200, nil), ""},
		{"catch-up then a gap", 3, 0, accept(5, 4, nil), "gap"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tw, err := New(st)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < tc.caught; k++ {
				tw.CatchUp(0, rs[k])
			}
			for k := tc.caught; k < tc.caught+tc.sent; k++ {
				if err := accept(uint64(k+1), k, nil)(tw); err != nil {
					t.Fatalf("prefix reading %d: %v", k, err)
				}
			}
			err = tc.step(tw)
			if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}
