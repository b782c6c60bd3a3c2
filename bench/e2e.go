package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"odds/internal/stats"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	w       *workload
	seed    int64
	seconds float64
	dir     string // scratch directory for checkpoint files
	sz      sizes
}

// outcome is what a run reports: the contract's result line plus the
// human-readable notes printed above it.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	values    map[string]float64
	notes     []string
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// perConnCap is how many post-warm-up readings to generate per connection.
func (cfg runConfig) perConnCap() int {
	return int(float64(cfg.w.capPerSec)*cfg.seconds)/conns + cfg.w.batch*(cfg.sz.recoveries+4)
}

// timedSetup sets the workload up once under dir and returns the rig with
// the set-up time: stack start, connections and warm-up. The seed's traffic
// is generated inside the first set-up (in == nil), and that time is the
// benchmark's own, not the stack's: it is taken out.
func timedSetup(cfg runConfig, dir string, in *input) (*rig, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	r, err := setup(cfg.w, cfg.seed, cfg.perConnCap(), dir, cfg.sz, stackOptions{}, in)
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(t0)
	if in == nil {
		took -= r.in.took
	}
	return r, took.Seconds(), nil
}

// share is how many of total events fall to round k of rounds when they
// are dealt evenly over the rounds.
func share(total, k, rounds int) int { return (k+1)*total/rounds - k*total/rounds }

// crashRig is a second rig beside the first, there to be crashed: a fresh
// rig is at the same arrival count on every run, however fast the host,
// and restore cost grows with that count (snapshot.restore_growth). It is
// replaced by a new one every few rounds, which is one more set-up timed.
type crashRig struct {
	cfg runConfig
	in  *input
	out *outcome // takes what the rigs attempted and failed
	r   *rig
	n   int // recoveries so far
}

// renew retires the current rig and sets the next one up, timed.
func (c *crashRig) renew() (setupS float64, err error) {
	c.retire()
	c.r, setupS, err = timedSetup(c.cfg, filepath.Join(c.cfg.dir, "crash"), c.in)
	if err != nil {
		return 0, err
	}
	if c.r.sub != nil {
		c.r.sub.stop() // the crashes take the stream's server away
		c.r.sub = nil
	}
	return setupS, nil
}

// crash crashes the quiesced rig and brings it back, one shard's primary
// after another.
func (c *crashRig) crash() (recovery, error) {
	// Every recovery starts from a collected heap: a restore allocates a
	// server's worth of state, and whether that sets off a collection half
	// way through depended on what the rounds before left behind (within a
	// run of light-fanout, restores took 8 to 17 ms).
	runtime.GC()
	rec, err := c.r.recoverOnce(c.n%c.cfg.w.shards, false)
	c.n++
	return rec, err
}

// retire checks everything the rig served against the twin and tears it down.
func (c *crashRig) retire() {
	if c.r == nil {
		return
	}
	sub := &outcome{}
	sub.check(c.r, true, 0)
	c.out.attempted += sub.attempted
	c.out.failed += sub.failed
	if !sub.correct {
		c.out.notes = append(c.out.notes, sub.notes...)
	}
	c.r.close()
	c.r = nil
}

// runEndToEnd is the untraced run: the set-up, then rounds of a closed-loop
// window and a paced window, with the crash cycles and the host-speed
// samples dealt over the rounds, and the twin check over everything served.
func runEndToEnd(cfg runConfig) (*outcome, error) {
	w := cfg.w
	out := &outcome{values: map[string]float64{}}
	total := time.Duration(cfg.seconds * float64(time.Second))
	rounds := cfg.sz.rounds
	window := func(share float64) time.Duration { return time.Duration(float64(total) * share / float64(rounds)) }
	host, err := newHostMeter()
	if err != nil {
		return nil, err
	}
	defer host.close()

	r, took, err := timedSetup(cfg, cfg.dir, nil)
	if err != nil {
		return nil, err
	}
	defer r.close()
	setups := []float64{took}
	out.notef("gen: %.2fs (encode %.1f ns/reading, stream.Next %.1f ns), warm-up %d+%d frames",
		r.in.took.Seconds(), r.in.encodeNS, r.in.nextNS, r.in.conns[0].warmFrames, r.in.conns[1].warmFrames)

	var (
		gaps, checkpoints, restores, ticks []float64
		rates, p50s, readP50s, rtts        []float64
		missed, late                       int
		behind                             bool
	)
	second := &crashRig{cfg: cfg, in: r.in, out: out}
	defer second.retire()
	for k := 0; k < rounds; k++ {
		// Everything a run times is dealt over its whole length, so a slow
		// spell of the host lands on a few samples of each metric and the
		// host-speed samples see what the measurements saw.
		host.sampleCompute(window(hostShare))
		if k%(rounds/cfg.sz.crashCycles) == 0 {
			took, err := second.renew()
			if err != nil {
				return nil, fmt.Errorf("set-up in round %d: %w", k, err)
			}
			setups = append(setups, took)
		}
		for i := 0; i < share(cfg.sz.crashCycles*cfg.sz.recoveries, k, rounds); i++ {
			rec, err := second.crash()
			if err != nil {
				return nil, fmt.Errorf("recovery in round %d: %w", k, err)
			}
			gaps = append(gaps, rec.gapMS)
			checkpoints = append(checkpoints, rec.checkpointMS)
			restores = append(restores, rec.restoreMS)
			ticks = append(ticks, rec.tickMS)
		}
		rate, err := r.closedLoop(window(closedShare))
		if err != nil {
			return nil, fmt.Errorf("closed window %d: %w", k, err)
		}
		if err := host.sampleWire(window(hostShare)); err != nil {
			return nil, err
		}
		paced, err := r.pacedLoop(w.pacedHz, window(pacedShare), nil)
		if err != nil {
			return nil, fmt.Errorf("paced window %d: %w", k, err)
		}
		if len(paced.rttUS) == 0 {
			return nil, fmt.Errorf("paced window %d sent nothing", k)
		}
		rates = append(rates, rate)
		p50s = append(p50s, percentile(paced.rttUS, 0.5))
		readP50s = append(readP50s, percentile(paced.readUS, 0.5))
		rtts = append(rtts, paced.rttUS...)
		missed += paced.missed
		late += paced.late
		behind = behind || paced.behind
	}
	second.retire()
	// The benchmark's own arrays are off the heap: what is in use is the
	// stack's, plus the connections' few buffers.
	heap := heapInuseMB()

	speed, compute, wire := host.speed()
	sort.Float64s(rtts)
	n := len(rtts)
	tail := 0.99
	if !supported(n, tail) {
		tail = 0.9
	}
	out.notef("host: %.3f of the reference speed: compute %.3f (median of %.0f slides/s), wire %.3f (median of %.0f round trips/s)",
		speed, compute, host.slides, wire, host.trips)
	out.notef("set-ups: %.3f s", setups)
	out.notef("recoveries: gaps %.2f ms; median checkpoint %.2f ms, restore %.2f ms, health ticks %.2f ms",
		gaps, stats.Median(checkpoints), stats.Median(restores), stats.Median(ticks))
	out.notef("closed: windows %.0f readings/s", rates)
	out.notef("paced: %.0f batches/s, window p50s %.0f us", w.pacedHz, p50s)
	out.notef("paced: n=%d, p50 %.0f us, p%g %.0f us, max %.0f us, missed %d, late %d (%.4f), input exhausted %t",
		n, percentile(rtts, 0.5), tail*100, percentile(rtts, tail), rtts[n-1], missed, late, float64(late)/float64(n), behind)
	out.notef("reads between paced batches: window p50s %.0f us", readP50s)
	out.notef("heap: %.2f MB in use after the measured windows", heap)

	// Timings are taken over the run's samples and reported at the
	// reference host's speed (host.go): as measured × the run's host speed.
	// A recovery starts from a quiesced stack, and on this host waking an
	// idle core costs anything from nothing to milliseconds, added to some
	// samples and never taken off one: recovery_ms is the lower quartile.
	sort.Float64s(gaps)
	measured := map[string]float64{
		"setup_s":          stats.Median(setups),
		"readings_per_s":   stats.Median(rates),
		"query_rtt_p50_us": stats.Median(readP50s),
		"recovery_ms":      percentile(gaps, 0.25),
	}
	out.notef("as measured, before scaling to the reference host: setup_s %.4g, readings_per_s %.6g, query_rtt_p50_us %.4g, recovery_ms %.4g",
		measured["setup_s"], measured["readings_per_s"], measured["query_rtt_p50_us"], measured["recovery_ms"])
	for name, v := range measured {
		if name == "readings_per_s" {
			out.values[name] = v / speed
		} else {
			out.values[name] = v * speed
		}
	}
	out.values["paced_ok_share"] = 1 - float64(missed)/float64(n)
	out.values["heap_live_mb"] = heap

	subOK := true
	if r.sub != nil {
		// Attached since before the warm-up: every accepted reading counts.
		want := r.accepted()
		events, dropped := r.sub.settle(want)
		subOK = events+dropped == want && r.sub.err == nil
		out.notef("subscribe: %d events + %d dropped of %d accepted (drop share %.4f, conserved %t)",
			events, dropped, want, float64(dropped)/float64(want), subOK)
	}
	main := &outcome{}
	main.check(r, subOK, cfg.sz.digest)
	out.attempted += main.attempted
	out.failed += main.failed
	out.correct = out.failed == 0 && main.correct
	out.notes = append(out.notes, main.notes...)
	return out, nil
}

// check runs the twin over everything the connections had accepted and
// fills in the run's verdict.
func (o *outcome) check(r *rig, conserved bool, digest int) {
	t0 := time.Now()
	vc := verify(&r.st.stats, r.clients, digest)
	var offered, reads, lost, order, transport, resent, refused int64
	for _, c := range r.clients {
		offered += c.offered
		reads += int64(len(c.queries))
		lost += c.lost
		order += c.mismatches
		transport += c.transport
		resent += c.resent
		refused += c.refusedSub
		if o.failed == 0 && c.firstDiff != "" {
			o.notef("first order mismatch: %s", c.firstDiff)
		}
	}
	o.attempted = offered + reads
	o.failed = lost + order + vc.mismatches + transport
	o.correct = o.failed == 0 && conserved
	o.notef("verify: %d verdicts and reads checked against the twin in %.2fs, %d unseen, %d mismatches, %d order mismatches, %d lost, %d transport errors, %d refused replies, %d readings re-sent",
		vc.checked, time.Since(t0).Seconds(), vc.unseen, vc.mismatches, order, lost, transport, refused, resent)
	if vc.firstDiff != "" {
		o.notef("first twin mismatch: %s", vc.firstDiff)
	}
	o.notef("verdict_digest %016x over the first %d readings of each connection; %d estimate-path outliers", vc.digest, digest, vc.outliers)
}
