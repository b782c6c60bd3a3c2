package oracle

import (
	"odds/internal/fault"
	"odds/internal/stats"
)

// FaultSchedules derives n randomized fault schedules for the chaos
// property suite, exercising the whole schedule vocabulary: node crashes
// (including crash-of-root and permanent outages), uniform and
// asymmetric per-link loss, Gilbert–Elliott bursts (including the
// degenerate one-transmission burst), delivery delay, and duplication.
// nodes is the network's node-id space ([0, nodes)), epochs the run
// length the crash windows are scaled to. Every schedule embeds its own
// sub-seed, so one failing entry replays independently of the rest.
func FaultSchedules(n, nodes, epochs int, seed int64) []fault.Schedule {
	r := stats.NewRand(seed)
	out := make([]fault.Schedule, n)
	for i := range out {
		out[i].Seed = r.Int63()
		for c := r.Intn(4); c > 0; c-- {
			cr := fault.Crash{
				Node: r.Intn(nodes),
				At:   r.Intn(epochs * 3 / 4),
				For:  1 + r.Intn(epochs/4),
			}
			if r.Intn(8) == 0 {
				cr.For = 0 // permanent
			}
			out[i].Crashes = append(out[i].Crashes, cr)
		}
		for l := r.Intn(3); l > 0; l-- {
			lk := fault.Link{From: fault.Any, To: fault.Any}
			if r.Intn(2) == 0 { // asymmetric: pin one concrete direction
				lk.From = r.Intn(nodes)
				lk.To = r.Intn(nodes)
			}
			switch r.Intn(4) {
			case 0:
				lk.Loss = 0.1 + float64(0.4*r.Float64())
			case 1:
				lk.Burst = fault.GilbertElliott{
					PGoodBad: 0.02 + float64(0.1*r.Float64()),
					PBadGood: 0.2 + float64(0.8*r.Float64()), // 1.0 reachable: zero-length bursts
					LossBad:  0.5 + float64(0.5*r.Float64()),
				}
			case 2:
				lk.DelayProb = 0.1 + float64(0.4*r.Float64())
				lk.DelayMax = 1 + r.Intn(4)
			case 3:
				lk.DupProb = 0.1 + float64(0.4*r.Float64())
			}
			out[i].Links = append(out[i].Links, lk)
		}
	}
	return out
}
