package main

import (
	"odds/internal/serve"
)

// sizes are the fixed counts of a run: how many times each step repeats
// and how many readings each count-based rung covers. They are counts, not
// durations, so per-layer counters repeat exactly from run to run of one
// seed. full is what the benchmark measures with; smoke exercises the same
// code in a second or two per workload.
type sizes struct {
	rounds      int // windows of each kind in an end-to-end run
	crashCycles int // second rigs per end-to-end run, dealt over the rounds: each is one more set-up
	recoveries  int // crash→serving cycles on each of them
	digest      int // leading readings of each connection the verdict digest covers
	// traceDigest is the same for the traced run's rigs: it stays within what
	// their count-based passes send, so every run of a seed reaches it.
	traceDigest int

	tracePass       int     // readings of the traced pass, over its three modes and both connections
	abSeconds       float64 // length of each arm of a paced A/B (subscriber, follower)
	opsSeconds      int     // background load generated for one rig's timed operations
	traceRecoveries int     // checkpoint+restore cycles (standalone), failovers (cluster)
	traceMigrations int     // live Router.Migrate calls, there and back
	microReadings   int     // readings each single-layer rung replays
	growthLo        int     // arrivals at the first timed restore
	growthHi        int     // arrivals at the second
}

var full = sizes{
	rounds: 40, crashCycles: 5, recoveries: 12, digest: 1 << 16, traceDigest: 1 << 15,
	tracePass: 200_000, abSeconds: 1.2, opsSeconds: 6,
	traceRecoveries: 5, traceMigrations: 4,
	microReadings: 50_000, growthLo: 100_000, growthHi: 1_000_000,
}

var smoke = sizes{
	rounds: 8, crashCycles: 1, recoveries: 2, digest: 1 << 11, traceDigest: 1 << 10,
	tracePass: 6_000, abSeconds: 0.1, opsSeconds: 2,
	traceRecoveries: 1, traceMigrations: 1,
	microReadings: 2_000, growthLo: 1_000, growthHi: 3_000,
}

// small is the workload scaled down for the smoke configuration: the same
// stack, wire, fleet shape and operations over a window of 400.
func (w *workload) small() *workload {
	v := *w
	full := w.pipeline
	v.pipeline = func() serve.PipelineConfig {
		p := full()
		p.Core.WindowCap, p.Core.SampleSize = 400, 40
		p.Distance.Threshold = 3
		return p
	}
	v.groups = nil
	for _, g := range w.groups {
		if g.count > 64 {
			g.count /= 16
		}
		v.groups = append(v.groups, g)
	}
	v.pacedHz = 200
	v.capPerSec = 500_000
	return &v
}
