package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"odds/internal/serve"
)

// --seconds is cut into sizes.rounds rounds; each round is a host-speed
// sample (compute), a closed-loop window, another sample (wire) and a paced
// window. Every
// kind is spread over the whole run, so a slow spell of the host (they last
// seconds here) lands on a few windows of each metric instead of on one
// metric's whole phase, and the host-speed samples see what the windows saw.
const (
	closedShare = 0.40   // of a round: closed loop
	pacedShare  = 0.475  // of a round: open loop at the workload's frozen rate
	hostShare   = 0.0625 // of a round: each of its two host-speed samples
	lateAfter   = time.Millisecond
)

// rig is one set-up workload: stack, input, connections.
type rig struct {
	w       *workload
	sz      sizes
	st      *stack
	in      *input
	clients []*client
	sub     *subscription
}

// setup starts the stack, connects, and warms every shard to 2·|W| arrivals
// through the real ingest path. in is the seed's traffic if an earlier
// set-up already generated it, else nil.
func setup(w *workload, seed int64, perConn int, dir string, sz sizes, opts stackOptions, in *input) (*rig, error) {
	st, err := startStack(w, dir, opts)
	if err != nil {
		return nil, err
	}
	r := &rig{w: w, sz: sz, st: st, in: in}
	if in == nil {
		if r.in, err = generate(w, seed, perConn, st.stats.WireFingerprint); err != nil {
			r.close()
			return nil, err
		}
	} else if in.fp != st.stats.WireFingerprint {
		r.close()
		return nil, fmt.Errorf("%s: wire fingerprint changed between set-ups", w.name)
	}
	for c := 0; c < conns; c++ {
		cl, err := newClient(c, r.in, st.url, seed)
		if err != nil {
			r.close()
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	if w.sub {
		if r.sub, err = subscribe(st.url); err != nil {
			r.close()
			return nil, err
		}
	}
	err = r.each(func(c *client) error {
		for f := 0; f < c.ci.warmFrames; f++ {
			if err := c.deliverNext(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		r.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

func (r *rig) close() {
	if r.sub != nil {
		r.sub.stop()
	}
	for _, c := range r.clients {
		c.close()
	}
	r.st.stop()
	if r.w.nodes == 0 {
		_ = os.Remove(r.st.nodes[0].cfg.SnapshotPath)
	}
}

// each runs fn on every connection at once and returns the first error.
func (r *rig) each(fn func(c *client) error) error {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (r *rig) accepted() int64 {
	var n int64
	for _, c := range r.clients {
		n += c.accepted.Load()
	}
	return n
}

// closedLoop has every connection send its next batch as soon as the
// previous reply lands, for dur, and returns accepted readings per second.
func (r *rig) closedLoop(dur time.Duration) (float64, error) {
	var stop atomic.Bool
	t0, n0 := time.Now(), r.accepted()
	timer := time.AfterFunc(dur, func() { stop.Store(true) })
	defer timer.Stop()
	err := r.each(func(c *client) error {
		for !stop.Load() && c.framesLeft() > 0 {
			if err := c.sendFrame(); err != nil {
				stop.Store(true)
				return err
			}
		}
		return nil
	})
	return float64(r.accepted()-n0) / time.Since(t0).Seconds(), err
}

// pacedSample is one paced batch: when it was due and when its reply landed.
type pacedSample struct{ due, done time.Time }

// pacedResult is one open-loop phase.
type pacedResult struct {
	samples []pacedSample
	rttUS   []float64 // due time → reply, per batch, ascending
	readUS  []float64 // round trip of each read issued between batches, ascending
	missed  int       // over the limit, refused or failed
	late    int       // sent more than lateAfter behind schedule with the connection idle
	behind  bool      // input ran out before the phase ended
}

// pacer is one connection's open-loop schedule: batch k is due at
// first + k·interval whether or not the stack — or the sender — has kept
// up, and is timed from that due time.
type pacer struct {
	first    time.Time
	interval time.Duration
	idleAt   time.Time // when the connection last finished what it was doing
	late     int       // batches started more than lateAfter behind schedule though the connection was idle
}

func (p *pacer) due(k int) time.Time { return p.first.Add(p.interval * time.Duration(k)) }

// begin is called at now, just before batch k is sent. A batch that starts
// behind schedule while its connection sat idle was delayed by the
// generator itself, not by the stack.
func (p *pacer) begin(k int, now time.Time) {
	if due := p.due(k); p.idleAt.Before(due) && now.Sub(due) > lateAfter {
		p.late++
	}
}

// end is called at now, when batch k's reply has landed; it returns the
// batch's latency from its due time.
func (p *pacer) end(k int, now time.Time) time.Duration {
	p.idleAt = now
	return now.Sub(p.due(k))
}

// pacedLoop sends hz batches a second (over both connections) on the
// pacer's schedule and times each from its due time, so a stall is charged
// to every batch it delays. It runs for dur, or until stop is set when
// stop is non-nil.
func (r *rig) pacedLoop(hz float64, dur time.Duration, stop *atomic.Bool) (pacedResult, error) {
	interval := time.Duration(float64(conns) / hz * float64(time.Second))
	parts := make([]pacedResult, len(r.clients))
	start := time.Now().Add(5 * time.Millisecond)
	err := r.each(func(c *client) error {
		p := &parts[c.id]
		// Stagger the connections across the interval: independent senders,
		// not a synchronized pair.
		pc := pacer{first: start.Add(interval * time.Duration(c.id) / conns), interval: interval}
		pc.idleAt = pc.first
		defer func() { p.late = pc.late }()
		for k := 0; ; k++ {
			due := pc.due(k)
			if stop == nil && due.Sub(start) >= dur {
				return nil
			}
			if c.framesLeft() == 0 {
				p.behind = true
				return nil
			}
			sleepUntil(due)
			if stop != nil && stop.Load() {
				return nil
			}
			pc.begin(k, time.Now())
			refused, transport := c.refusedSub, c.transport
			if err := c.deliverNext(); err != nil {
				return err
			}
			done := time.Now()
			p.samples = append(p.samples, pacedSample{due, done})
			if pc.end(k, done) > pacedLimitUS*time.Microsecond || c.refusedSub != refused || c.transport != transport {
				p.missed++
			}
			// Every workload reads once after each paced batch (mixed-json
			// its usual eight): read latency is taken under this load, spread
			// over the whole phase. Background load (stop != nil) runs across
			// node kills, where a read has nowhere to go; it only writes.
			for q := 0; stop == nil && q < max(c.in.w.reads, 1); q++ {
				d, err := c.read(q%2 == 1 || (c.in.w.reads == 0 && k%2 == 1))
				if err != nil {
					return err
				}
				p.readUS = append(p.readUS, float64(d.Nanoseconds())/1e3)
			}
			pc.idleAt = time.Now()
		}
	})
	var out pacedResult
	for _, p := range parts {
		out.samples = append(out.samples, p.samples...)
		out.readUS = append(out.readUS, p.readUS...)
		out.missed += p.missed
		out.late += p.late
		out.behind = out.behind || p.behind
	}
	for _, s := range out.samples {
		out.rttUS = append(out.rttUS, float64(s.done.Sub(s.due).Nanoseconds())/1e3)
	}
	sort.Float64s(out.rttUS)
	sort.Float64s(out.readUS)
	return out, err
}

// recovery is one crash→serving cycle.
type recovery struct {
	checkpointMS float64 // standalone: Server.Checkpoint before the crash
	restoreMS    float64 // standalone: serve.New from the checkpoint file
	tickMS       float64 // cluster: HealthTick calls until the replica was promoted
	lagReadings  int     // cluster: readings the promoted replica trailed its primary by
	gapMS        float64 // listener closed → first verdict served for the lost shards
}

// recoverOnce crashes the node serving shard s and brings service back: a
// standalone server restarts from its checkpoint file, a cluster promotes
// the replica (and then heals the dead node, off the clock). The
// connections are parked while shard cursors move, re-send whatever the
// recovered state lacks, and the first verdict served for an affected
// shard stops the clock. With background false the stack is quiesced and
// recoverOnce itself sends one batch per connection afterwards.
func (r *rig) recoverOnce(s int, background bool) (recovery, error) {
	var rec recovery
	lockAll := func() {
		for _, c := range r.clients {
			c.mu.Lock()
		}
	}
	unlockAll := func() {
		for _, c := range r.clients {
			c.mu.Unlock()
		}
	}

	var (
		affected []int
		t0       time.Time
		victim   = -1
	)
	if r.st.router == nil {
		// The checkpoint is cut with the connections running: under load it
		// is a clean per-shard cut of a moving state, and whatever was
		// accepted after it is re-sent below.
		n := r.st.nodes[0]
		t := time.Now()
		if err := n.srv.Checkpoint(); err != nil {
			return rec, err
		}
		rec.checkpointMS = ms(time.Since(t))
		lockAll()
		t0 = time.Now()
		n.kill()
		// A client sees its persistent connection drop with the server.
		for _, c := range r.clients {
			c.hc.CloseIdleConnections()
		}
		t = time.Now()
		if err := n.start(); err != nil {
			unlockAll()
			return rec, err
		}
		rec.restoreMS = ms(time.Since(t))
		for sh := 0; sh < r.w.shards; sh++ {
			affected = append(affected, sh)
		}
	} else {
		victim = r.st.router.CurrentMap().Owner[s]
		t0 = time.Now()
		r.st.nodes[victim].kill()
		// Park the connections after the crash and before the promotion:
		// requests in flight fail the way a client would see them, and no
		// blind re-send can reach the replica before its cursor is known.
		lockAll()
		var (
			ticks time.Duration
			err   error
		)
		if affected, ticks, err = r.st.promote(victim); err != nil {
			unlockAll()
			return rec, err
		}
		rec.tickMS = ms(ticks)
	}

	arrivals, err := r.st.arrivals()
	if err != nil {
		unlockAll()
		return rec, err
	}
	first := make([]time.Time, len(affected))
	for i, sh := range affected {
		c := r.clients[connOf(sh)]
		if c.watch == nil {
			c.watch = map[int]*time.Time{}
		}
		c.watch[sh] = &first[i]
		have := c.maxSeq[sh]
		rewound := c.resync(sh, arrivals[sh])
		if arrivals[sh] < have {
			rec.lagReadings += int(have - arrivals[sh])
		}
		if err := c.redeliver(rewound); err != nil {
			unlockAll()
			return rec, err
		}
	}
	unlockAll()

	if !background {
		if err := r.each(func(c *client) error { return c.deliverNext() }); err != nil {
			return rec, err
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		lockAll()
		var got time.Time
		for i := range first {
			if !first[i].IsZero() && (got.IsZero() || first[i].Before(got)) {
				got = first[i]
			}
		}
		if !got.IsZero() || time.Now().After(deadline) {
			for _, sh := range affected {
				delete(r.clients[connOf(sh)].watch, sh)
			}
		}
		unlockAll()
		if !got.IsZero() {
			rec.gapMS = ms(got.Sub(t0))
			break
		}
		if time.Now().After(deadline) {
			return rec, fmt.Errorf("no verdict served for shards %v within 5s of recovery", affected)
		}
		time.Sleep(200 * time.Microsecond)
	}
	if victim >= 0 {
		if err := r.st.heal(victim); err != nil {
			return rec, fmt.Errorf("heal node %d: %w", victim, err)
		}
	}
	return rec, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// heapInuseMB forces two collections — the second empties the sync.Pool
// victim caches, which still hold the scratch of servers the recoveries
// replaced — and reads the live heap.
func heapInuseMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// subscription is the live /subscribe consumer of light-fanout: it reads
// the binary verdict stream and counts events and ring drops, which must
// add up to every reading accepted while it was attached.
type subscription struct {
	cancel  context.CancelFunc
	done    chan struct{}
	events  atomic.Int64
	dropped atomic.Int64
	err     error
}

func subscribe(url string) (*subscription, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/subscribe?format=binary", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("/subscribe: status %d", resp.StatusCode)
	}
	s := &subscription{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sr := serve.NewStreamReader(resp.Body)
		for {
			_, gap, kind, err := sr.Next()
			if err != nil {
				if err != io.EOF && ctx.Err() == nil {
					s.err = err
				}
				return
			}
			if kind == serve.StreamFrameGap {
				s.dropped.Add(int64(gap))
			} else {
				s.events.Add(1)
			}
		}
	}()
	return s, nil
}

// settle waits until events plus drops account for want readings.
func (s *subscription) settle(want int64) (events, dropped int64) {
	deadline := time.Now().Add(3 * time.Second)
	for s.events.Load()+s.dropped.Load() < want && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	return s.events.Load(), s.dropped.Load()
}

func (s *subscription) stop() {
	s.cancel()
	<-s.done
}
