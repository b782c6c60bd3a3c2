package odds

import (
	"reflect"
	"runtime"
	"testing"

	"odds/internal/fault"
)

// assertDeploymentsEqual asserts two deployments ended in bit-identical
// observable state: reports and message accounting. workers labels the
// failure message.
func assertDeploymentsEqual(t *testing.T, serial, par *Deployment, workers int) {
	t.Helper()
	if !reflect.DeepEqual(serial.Reports(), par.Reports()) {
		t.Errorf("workers=%d: reports diverged (%d vs %d)",
			workers, len(serial.Reports()), len(par.Reports()))
	}
	if !reflect.DeepEqual(serial.Messages(), par.Messages()) {
		t.Errorf("workers=%d: message stats diverged:\nserial  %+v\nparallel %+v",
			workers, serial.Messages(), par.Messages())
	}
}

// TestRunParallelMatchesRun is the deployment-level determinism
// contract: for a fixed seed, RunParallel must produce bit-identical
// reports and message accounting to Run, including under injected radio
// loss (the loss-coin sequence is scheduling-sensitive if mishandled).
func TestRunParallelMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow deployment run; run without -short for this coverage")
	}
	cases := []struct {
		name string
		cfg  func() DeploymentConfig
	}{
		{"d3", func() DeploymentConfig {
			return DeploymentConfig{
				Algorithm: D3,
				Sources:   buildSources(8, 1),
				Branching: 2,
				Core:      smallConfig(1),
				Dist:      DistanceParams{Radius: 0.01, Threshold: 10},
				Seed:      9,
			}
		}},
		{"d3-loss", func() DeploymentConfig {
			return DeploymentConfig{
				Algorithm: D3,
				Sources:   buildSources(8, 1),
				Branching: 2,
				Core:      smallConfig(1),
				Dist:      DistanceParams{Radius: 0.01, Threshold: 10},
				Faults:    uniform(0.2, 109),
				Seed:      9,
			}
		}},
		{"mgdd", func() DeploymentConfig {
			return DeploymentConfig{
				Algorithm: MGDD,
				Sources:   buildSources(8, 1),
				Branching: 2,
				Core:      smallConfig(1),
				MDEF:      MDEFParams{R: 0.08, AlphaR: 0.01, KSigma: 1},
				Seed:      2,
			}
		}},
		{"centralized", func() DeploymentConfig {
			return DeploymentConfig{
				Algorithm: Centralized,
				Sources:   buildSources(8, 1),
				Branching: 2,
				Core:      smallConfig(1),
				Seed:      3,
			}
		}},
	}
	const epochs = 3000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, err := NewDeployment(tc.cfg())
			if err != nil {
				t.Fatal(err)
			}
			serial.Run(epochs)

			for _, workers := range []int{2, 8} {
				par, err := NewDeployment(tc.cfg())
				if err != nil {
					t.Fatal(err)
				}
				par.RunParallel(epochs, workers)
				assertDeploymentsEqual(t, serial, par, workers)
			}
		})
	}
}

// TestRunParallelFaultedMatchesRun extends the determinism contract to
// injected faults: a schedule mixing crashes, bursty loss, delay, and
// duplication must replay bit-exactly at 1, 4, and NumCPU workers. Fault
// coins are drawn only in the serial enqueue/drain phases, so worker
// count must be invisible to the verdict sequence.
func TestRunParallelFaultedMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow deployment run; run without -short for this coverage")
	}
	sched := fault.Schedule{
		Seed: 1234,
		Crashes: []fault.Crash{
			{Node: 1, At: 400, For: 300},
			{Node: 10, At: 900, For: 500}, // interior leader
		},
		Links: []fault.Link{
			{From: 3, To: 9, Loss: 0.4},
			{From: fault.Any, To: fault.Any,
				Burst:     fault.GilbertElliott{PGoodBad: 0.03, PBadGood: 0.35, LossBad: 0.95},
				DelayProb: 0.15, DelayMax: 2, DupProb: 0.1},
		},
	}
	mk := func(alg Algorithm) func() DeploymentConfig {
		return func() DeploymentConfig {
			cfg := DeploymentConfig{
				Algorithm: alg,
				Sources:   buildSources(8, 1),
				Branching: 2,
				Core:      smallConfig(1),
				Faults:    &sched,
				SelfHeal:  true,
				Seed:      9,
			}
			if alg == D3 {
				cfg.Dist = DistanceParams{Radius: 0.01, Threshold: 10}
			} else {
				cfg.MDEF = MDEFParams{R: 0.08, AlphaR: 0.01, KSigma: 1}
			}
			return cfg
		}
	}
	const epochs = 3000
	for _, alg := range []Algorithm{D3, MGDD} {
		cfg := mk(alg)
		t.Run(alg.String(), func(t *testing.T) {
			serial, err := NewDeployment(cfg())
			if err != nil {
				t.Fatal(err)
			}
			serial.Run(epochs)
			if err := serial.CheckMessageConservation(); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4, runtime.NumCPU()} {
				par, err := NewDeployment(cfg())
				if err != nil {
					t.Fatal(err)
				}
				par.RunParallel(epochs, workers)
				assertDeploymentsEqual(t, serial, par, workers)
			}
		})
	}
}

// TestRunParallelSingleWorkerDelegates checks the workers<=1 fallback
// leaves the deployment in the same state Run would.
func TestRunParallelSingleWorkerDelegates(t *testing.T) {
	mk := func() *Deployment {
		d, err := NewDeployment(DeploymentConfig{
			Algorithm: D3,
			Sources:   buildSources(4, 1),
			Branching: 2,
			Core:      smallConfig(1),
			Dist:      DistanceParams{Radius: 0.01, Threshold: 10},
			Seed:      5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := mk(), mk()
	a.Run(2500)
	b.RunParallel(2500, 1)
	if !reflect.DeepEqual(a.Reports(), b.Reports()) {
		t.Error("single-worker RunParallel diverged from Run")
	}
}
