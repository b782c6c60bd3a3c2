package experiments

import (
	"reflect"
	"testing"

	"odds/internal/stream"
)

// driftTestConfig is a reduced-scale sweep so the package's own tests stay
// well under a second; the golden harness pins the full registry scale.
func driftTestConfig(kinds ...stream.DriftKind) DriftConfig {
	return DriftConfig{
		WindowCap: 200,
		Readings:  2400,
		DriftAt:   1200,
		Seed:      1,
		Kinds:     kinds,
	}
}

// TestFigdriftDeterministic pins the golden contract: two runs of the
// same configuration produce identical rows.
func TestFigdriftDeterministic(t *testing.T) {
	c := driftTestConfig(stream.DriftNone, stream.DriftAbrupt)
	a, err := RunFigDrift(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFigDrift(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("runs differ:\n%+v\nvs\n%+v", a, b)
	}
}

// TestFigdriftStationarySilent is the experiment-level zero-drift gate:
// on the stationary control the armed monitor takes no action, and —
// because an idle monitor leaves the pipeline bit-identical to an
// unarmed one — the adaptive and frozen twins score identically.
func TestFigdriftStationarySilent(t *testing.T) {
	res, err := RunFigDrift(driftTestConfig(stream.DriftNone))
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r.Detections != 0 || r.FalseAlarms != 0 || r.Refreshes != 0 || r.Shrinks != 0 {
		t.Errorf("stationary row not silent: %+v", r)
	}
	if r.AdaptPrecision != r.FrozenPrecision || r.AdaptRecall != r.FrozenRecall {
		t.Errorf("idle monitor changed verdicts: %+v", r)
	}
}

// TestFigdriftDetectsAbrupt checks the headline detection claim at test
// scale: an abrupt mean shift is detected with no pre-drift false
// alarms, and the detection triggers adaptation actions.
func TestFigdriftDetectsAbrupt(t *testing.T) {
	res, err := RunFigDrift(driftTestConfig(stream.DriftAbrupt))
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r.Detections < 1 {
		t.Fatalf("abrupt shift not detected: %+v", r)
	}
	if r.FalseAlarms != 0 {
		t.Errorf("pre-drift false alarms: %+v", r)
	}
	if r.Delay < 1 || r.Delay > 600 {
		t.Errorf("implausible detection delay %d: %+v", r.Delay, r)
	}
	if r.Refreshes < 1 {
		t.Errorf("detection triggered no adaptation: %+v", r)
	}
}
