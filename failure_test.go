package odds

// Failure-injection tests: the distributed algorithms must degrade
// gracefully under radio loss, because sample propagation and global-model
// updates are probabilistic refreshes rather than protocol state — a lost
// message only delays a refresh that a later inclusion repeats.
//
// Loss is injected through the fault engine (a single uniform-loss rule
// in a fault.Schedule), the same machinery the chaos suite drives with
// crashes, bursts, delay, and duplication.

import (
	"testing"

	"odds/internal/fault"
)

func faultyDeployment(t *testing.T, alg Algorithm, sched *fault.Schedule, seed int64) *Deployment {
	t.Helper()
	cfg := DeploymentConfig{
		Algorithm: alg,
		Sources:   buildSources(8, 1),
		Branching: 2,
		Core:      smallConfig(1),
		Faults:    sched,
		Seed:      seed,
	}
	switch alg {
	case D3:
		cfg.Dist = DistanceParams{Radius: 0.01, Threshold: 10}
	case MGDD:
		cfg.MDEF = MDEFParams{R: 0.08, AlphaR: 0.01, KSigma: 1}
	}
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// uniform wraps fault.UniformLoss for the tests below; fault-stream seed
// is independent of the deployment seed.
func uniform(p float64, seed int64) *fault.Schedule {
	s := fault.UniformLoss(p, seed)
	return &s
}

func TestMessageLossValidation(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.5} {
		_, err := NewDeployment(DeploymentConfig{
			Algorithm: D3,
			Sources:   buildSources(2, 1),
			Branching: 2,
			Core:      smallConfig(1),
			Dist:      DistanceParams{Radius: 0.01, Threshold: 10},
			Faults:    uniform(bad, 1),
		})
		if err == nil {
			t.Errorf("loss %v accepted", bad)
		}
	}
}

func TestD3SurvivesHeavyLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("slow deployment run; run without -short for this coverage")
	}
	d := faultyDeployment(t, D3, uniform(0.5, 131), 31)
	d.Run(4000)
	st := d.Messages()
	if st.Lost == 0 {
		t.Fatal("no messages lost despite 50% loss")
	}
	if err := d.CheckMessageConservation(); err != nil {
		t.Fatal(err)
	}
	// Leaves detect locally, so leaf reports must survive any loss rate;
	// parents see fewer candidates but must still confirm some.
	byLevel := make([]int, d.Levels())
	for _, r := range d.Reports() {
		byLevel[r.Level]++
	}
	if byLevel[0] == 0 {
		t.Error("leaf detection broke under loss")
	}
	if byLevel[1] == 0 {
		t.Error("parent confirmation fully starved under 50% loss")
	}
}

func TestD3LossReducesButDoesNotBreakUpperLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("slow deployment run; run without -short for this coverage")
	}
	// Both runs share deployment seed 33, so node randomness is identical
	// and only the injected loss differs (the fault stream is seeded
	// separately by design).
	clean := faultyDeployment(t, D3, nil, 33)
	clean.Run(4000)
	lossy := faultyDeployment(t, D3, uniform(0.5, 133), 33)
	lossy.Run(4000)
	upper := func(d *Deployment) int {
		n := 0
		for _, r := range d.Reports() {
			if r.Level > 0 {
				n++
			}
		}
		return n
	}
	cu, lu := upper(clean), upper(lossy)
	if lu == 0 {
		t.Fatal("lossy run confirmed nothing above leaves")
	}
	if lu >= cu {
		t.Errorf("loss did not reduce upper-level confirmations: %d vs %d", lu, cu)
	}
}

func TestMGDDSurvivesLoss(t *testing.T) {
	d := faultyDeployment(t, MGDD, uniform(0.3, 135), 35)
	d.Run(5000)
	if d.Messages().Lost == 0 {
		t.Fatal("no losses injected")
	}
	if err := d.CheckMessageConservation(); err != nil {
		t.Fatal(err)
	}
	// Global updates thin out but replicas still fill and detection runs.
	if len(d.Reports()) == 0 {
		t.Error("MGDD detection broke under 30% loss")
	}
}

func TestCentralizedLossAccounting(t *testing.T) {
	cfg := DeploymentConfig{
		Algorithm: Centralized,
		Sources:   buildSources(4, 1),
		Branching: 2,
		Core:      smallConfig(1),
		Faults:    uniform(0.25, 137),
		Seed:      37,
	}
	d, err := NewDeployment(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Run(2000)
	st := d.Messages()
	frac := float64(st.Lost) / float64(st.Total)
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("lost fraction = %v, want ≈0.25", frac)
	}
}

// TestLegacyLossKnobStillWorks (the name is from the MessageLoss field it
// used to pin) is the short D3 run under uniform loss: the injected
// fraction and message conservation, not skipped by -short.
func TestLegacyLossKnobStillWorks(t *testing.T) {
	d := faultyDeployment(t, D3, uniform(0.3, 141), 41)
	d.Run(1500)
	st := d.Messages()
	if st.Lost == 0 {
		t.Fatal("uniform-loss schedule injected no loss")
	}
	frac := float64(st.Lost) / float64(st.Total)
	if frac < 0.24 || frac > 0.36 {
		t.Errorf("lost fraction = %v, want ≈0.3", frac)
	}
	if err := d.CheckMessageConservation(); err != nil {
		t.Fatal(err)
	}
}
