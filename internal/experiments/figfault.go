package experiments

import (
	"fmt"
	"math"
	"strings"

	"odds"
	"odds/internal/fault"
	"odds/internal/stats"
)

// FaultConfig scales figfault, the robustness experiment the paper never
// ran: detection quality and communication cost as a function of node
// crash rate, for full D3 and MGDD deployments with self-healing enabled.
// Crash membership is decided by one uniform draw per node from a pure
// per-node stream (stats.Child), compared against each rate: the crash
// sets are nested across rates (every node down at 25% is also down at
// 50%), so the cost and quality columns move for one reason only.
type FaultConfig struct {
	Leaves     int
	Branching  int
	Epochs     int
	CrashRates []float64
	Seed       int64
	Workers    int
}

// runFigFault is the registry driver. The CI-scale configuration the
// golden harness pins is also what oddsim runs without -quick; the quick
// scale halves the run.
func runFigFault(o Options) (Result, error) {
	c := FaultConfig{
		Leaves:     8,
		Branching:  2,
		Epochs:     1800,
		CrashRates: []float64{0, 0.25, 0.5},
		Seed:       o.Seed,
		Workers:    o.Workers,
	}
	if o.Scale == Quick {
		c.Epochs = 900
	}
	return RunFigFault(c)
}

// FaultRow is one (algorithm, crash rate) cell.
type FaultRow struct {
	Algorithm   string
	CrashRate   float64
	Crashes     int     // nodes scheduled to crash
	LeafReports int     // level-0 detections in the faulted run
	Retained    int     // faulted leaf reports also present in the fault-free twin
	Spurious    int     // faulted leaf reports absent from the twin
	MsgPerEpoch float64 // total sends / epochs
	MeanTTR     float64 // mean MGDD time-to-recover in epochs (NaN when no repairs completed)
}

// FaultRows is the figfault result.
type FaultRows []FaultRow

// faultCore is the estimation configuration shared by every cell; small
// enough that the six deployments finish within the golden budget.
func faultCore() odds.Config {
	return odds.Config{
		WindowCap:      300,
		SampleSize:     60,
		Eps:            0.25,
		SampleFraction: 0.5,
		Dim:            1,
		RebuildEvery:   8,
	}
}

func faultDeployment(c FaultConfig, alg odds.Algorithm, sched *fault.Schedule) (*odds.Deployment, error) {
	sources := make([]odds.Source, c.Leaves)
	for i := range sources {
		sources[i] = odds.NewMixtureSource(1, int64(100+i))
	}
	cfg := odds.DeploymentConfig{
		Algorithm: alg,
		Sources:   sources,
		Branching: c.Branching,
		Core:      faultCore(),
		Faults:    sched,
		SelfHeal:  true,
		Seed:      c.Seed,
	}
	if alg == odds.D3 {
		cfg.Dist = odds.DistanceParams{Radius: 0.02, Threshold: 8}
	} else {
		cfg.MDEF = odds.MDEFParams{R: 0.08, AlphaR: 0.01, KSigma: 1}
	}
	return odds.NewDeployment(cfg)
}

// crashSchedule derives the fault schedule for one crash rate: each of
// the deployment's nodes draws one coin from its pure per-node stream
// and, if selected, suffers a single mid-run outage of an eighth of the
// run, starting at a node-specific epoch in the middle half.
func crashSchedule(c FaultConfig, nodes int, rate float64) (*fault.Schedule, int) {
	if rate <= 0 {
		return nil, 0
	}
	s := fault.Schedule{Seed: stats.Child(c.Seed, 1<<20).Int63()}
	for id := 0; id < nodes; id++ {
		r := stats.Child(c.Seed, id)
		coin := r.Float64()
		at := c.Epochs/4 + r.Intn(c.Epochs/2)
		if coin < rate {
			s.Crashes = append(s.Crashes, fault.Crash{Node: id, At: at, For: c.Epochs / 8})
		}
	}
	return &s, len(s.Crashes)
}

// reportKey identifies a leaf report across runs sharing a deployment
// seed.
func reportKey(r odds.Report) string {
	return fmt.Sprintf("%d|%d|%v", r.Node, r.Epoch, r.Value)
}

// RunFigFault executes the sweep: per algorithm, one fault-free twin plus
// one faulted deployment per non-zero crash rate, all sharing the
// deployment seed so report sets are comparable.
func RunFigFault(c FaultConfig) (FaultRows, error) {
	var rows FaultRows
	for _, alg := range []odds.Algorithm{odds.D3, odds.MGDD} {
		twin, err := faultDeployment(c, alg, nil)
		if err != nil {
			return nil, err
		}
		nodes := twin.NodeCount()
		twin.RunParallel(c.Epochs, c.Workers)
		twinKeys := map[string]bool{}
		for _, r := range twin.Reports() {
			if r.Level == 0 {
				twinKeys[reportKey(r)] = true
			}
		}

		for _, rate := range c.CrashRates {
			sched, crashes := crashSchedule(c, nodes, rate)
			d := twin
			if sched != nil {
				d, err = faultDeployment(c, alg, sched)
				if err != nil {
					return nil, err
				}
				d.RunParallel(c.Epochs, c.Workers)
				if err := d.CheckMessageConservation(); err != nil {
					return nil, err
				}
			}
			row := FaultRow{Algorithm: alg.String(), CrashRate: rate, Crashes: crashes}
			for _, r := range d.Reports() {
				if r.Level != 0 {
					continue
				}
				row.LeafReports++
				if twinKeys[reportKey(r)] {
					row.Retained++
				} else {
					row.Spurious++
				}
			}
			row.MsgPerEpoch = float64(d.Messages().Total) / float64(c.Epochs)
			row.MeanTTR = meanTTR(d.Health())
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func meanTTR(health []odds.NodeHealth) float64 {
	sum, n := 0, 0
	for _, h := range health {
		for _, ttr := range h.TimeToRecover {
			sum += ttr
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return float64(sum) / float64(n)
}

// Table renders the sweep.
func (rows FaultRows) Table() *Table {
	t := &Table{
		Title:   "figfault: detection quality and message cost vs crash rate (self-healing on)",
		Columns: []string{"alg", "crash_rate", "crashed", "leaf_reports", "retained", "spurious", "msg/epoch", "mean_ttr"},
		Notes: []string{
			"retained/spurious compare leaf reports against a fault-free twin at the same seed, keyed by (node, epoch, value)",
			"crash sets are nested across rates; each crashed node suffers one outage of epochs/8",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Algorithm, FmtF(r.CrashRate, 2), r.Crashes,
			r.LeafReports, r.Retained, r.Spurious,
			FmtF(r.MsgPerEpoch, 2), FmtF(r.MeanTTR, 1))
	}
	return t
}

// Metrics emits every cell under its algorithm and crash rate.
func (rows FaultRows) Metrics(set func(string, float64)) {
	for _, r := range rows {
		p := fmt.Sprintf("%s.c%0.2f", strings.ToLower(r.Algorithm), r.CrashRate)
		set(p+".crashed", float64(r.Crashes))
		set(p+".leaf_reports", float64(r.LeafReports))
		set(p+".retained", float64(r.Retained))
		set(p+".spurious", float64(r.Spurious))
		set(p+".msg_per_epoch", r.MsgPerEpoch)
		set(p+".mean_ttr", r.MeanTTR)
	}
}
