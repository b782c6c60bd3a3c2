package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"odds/internal/detector"
	"odds/internal/serve"
	"odds/internal/stats"
)

const (
	opsHz            = 100  // background batches/s while operations are timed
	tracedPacedShare = 0.25 // of --seconds: the paced phase behind http.rtt_p99_us
)

// ingestFn is the exported entry point under a stack's handler:
// Server.Ingest or Router.Ingest.
type ingestFn func([]serve.Reading) ([]serve.ReadingResult, int, error)

func (st *stack) ingestFn() ingestFn {
	if st.router != nil {
		return func(rd []serve.Reading) ([]serve.ReadingResult, int, error) {
			res := make([]serve.ReadingResult, len(rd))
			rejected, _, err := st.router.Ingest(rd, res)
			return res, rejected, err
		}
	}
	return func(rd []serve.Reading) ([]serve.ReadingResult, int, error) {
		return st.nodes[0].srv.Ingest(rd)
	}
}

// passCost is what a run of direct frames cost.
type passCost struct {
	readings                     int64
	wall                         time.Duration
	decodeNS, ingestNS, encodeNS int64     // time inside each call
	calls                        []float64 // ingest ns per reading of each call
}

func (p passCost) rate() float64             { return float64(p.readings) / p.wall.Seconds() }
func (p passCost) ingestPerReading() float64 { return float64(p.ingestNS) / float64(p.readings) }

// directPass has every connection deliver frames frames back to back
// through direct calls (no HTTP), and reports what the ingest entry point
// cost.
func (r *rig) directPass(frames int, ingest ingestFn) (passCost, error) {
	costs := make([]passCost, len(r.clients))
	t0 := time.Now()
	err := r.each(func(c *client) error {
		c.send = r.direct(c, ingest, &costs[c.id], false)
		defer func() { c.send = nil }()
		for f := 0; f < frames && c.framesLeft() > 0; f++ {
			if err := c.deliverNext(); err != nil {
				return err
			}
			costs[c.id].readings += int64(r.w.batch)
		}
		return nil
	})
	total := passCost{wall: time.Since(t0)}
	for _, c := range costs {
		total.readings += c.readings
		total.decodeNS += c.decodeNS
		total.ingestNS += c.ingestNS
		total.encodeNS += c.encodeNS
	}
	return total, err
}

// variant derives the stack the workload does not run on itself, so every
// per-layer metric is measured under every workload's pipeline: the
// standalone form of a cluster workload, the clustered form of a
// standalone one.
func (w *workload) variant(clustered bool) *workload {
	v := *w
	v.sub, v.reads = false, 0
	if clustered {
		v.name += "+cluster"
		if v.nodes == 0 {
			v.nodes, v.shards = 3, 4
		}
	} else {
		v.name += "+standalone"
		v.nodes = 0
	}
	return &v
}

// withBackground runs fn while both connections send opsHz batches a
// second, and returns the paced samples taken meanwhile.
func (r *rig) withBackground(fn func() error) (pacedResult, error) {
	var stop atomic.Bool
	done := make(chan struct{})
	var (
		paced    pacedResult
		pacedErr error
	)
	go func() {
		defer close(done)
		paced, pacedErr = r.pacedLoop(opsHz, 0, &stop)
	}()
	err := fn()
	stop.Store(true)
	<-done
	// A dead background load is the likelier cause of fn's failure, not the
	// other way round: report both.
	return paced, errors.Join(err, pacedErr)
}

// traceTwin is the in-process copy of one connection's shards — the twin
// pipelines and, beside them, the bare detectors — fed every frame of the
// traced pass right after the stack served it, so a layer and the layers
// above it are timed within milliseconds of each other. On a host whose
// speed wanders by ±10 % over seconds, rungs timed in separate passes would
// not subtract.
type traceTwin struct {
	r     *rig
	c     *client
	pipes []*serve.Pipeline
	dets  []map[detector.Kind]detector.Detector
	kinds []detector.Kind // backend of c.ci.sensors[i]
	rd    []serve.Reading
	names serve.Interner

	pipeNS, detNS, readings int64
	samples                 []float64 // per-reading IngestSensor ns, every eighth reading
	outliers                uint64
}

func newTraceTwin(r *rig, c *client) (*traceTwin, error) {
	t := &traceTwin{r: r, c: c,
		pipes: make([]*serve.Pipeline, r.w.shards),
		dets:  make([]map[detector.Kind]detector.Detector, r.w.shards),
		kinds: make([]detector.Kind, len(c.ci.sensors)),
	}
	for i, name := range c.ci.sensors {
		s := c.ci.shard[i]
		pcfg := r.st.stats.PipelineConfigFor(s)
		t.kinds[i] = backendOf(pcfg, name)
		if t.pipes[s] == nil {
			pl, err := serve.NewPipeline(pcfg)
			if err != nil {
				return nil, err
			}
			t.pipes[s], t.dets[s] = pl, map[detector.Kind]detector.Detector{}
		}
		if t.dets[s][t.kinds[i]] == nil {
			d, err := detector.New(detectorConfig(pcfg, t.kinds[i]))
			if err != nil {
				return nil, err
			}
			t.dets[s][t.kinds[i]] = d
		}
	}
	return t, nil
}

// feed runs frame f through the pipelines and then through the detectors
// alone. Timed frames count toward the means; with ordinal ≥ 0 they also
// leave pipeline.ingest and detector.ingest spans.
func (t *traceTwin) feed(f int, timed bool, ordinal int) error {
	var err error
	if t.rd, err = t.r.in.decodeFrame(t.c.ci.frame(f), t.rd, &t.names); err != nil {
		return err
	}
	base, period := f*t.r.w.batch, len(t.c.ci.sensors)
	t0 := time.Now()
	for i := range t.rd {
		pl := t.pipes[t.c.ci.shardAt(base+i)]
		if timed && i%8 == 0 {
			s0 := time.Now()
			if pl.IngestSensor(t.rd[i].Sensor, t.rd[i].Value).Outlier {
				t.outliers++
			}
			t.samples = append(t.samples, float64(time.Since(s0).Nanoseconds()))
			continue
		}
		if pl.IngestSensor(t.rd[i].Sensor, t.rd[i].Value).Outlier {
			t.outliers++
		}
	}
	t1 := time.Now()
	for i := range t.rd {
		k := (base + i) % period
		t.dets[t.c.ci.shard[k]][t.kinds[k]].Ingest(t.rd[i].Value)
	}
	t2 := time.Now()
	if timed {
		t.pipeNS += t1.Sub(t0).Nanoseconds()
		t.detNS += t2.Sub(t1).Nanoseconds()
		t.readings += int64(len(t.rd))
		if ordinal >= 0 {
			t.c.spans.add("pipeline.ingest", t.c.id, ordinal, t0, t1)
			t.c.spans.add("detector.ingest", t.c.id, ordinal, t1, t2)
		}
	}
	return nil
}

// direct returns the client hook that replaces the HTTP round trip with
// timed calls into the handler's children: decode, ingest, encode.
func (r *rig) direct(c *client, ingest ingestFn, cost *passCost, spans bool) func([]byte) ([]serve.ReadingResult, error) {
	var (
		readings []serve.Reading
		names    serve.Interner
		out      []byte
	)
	return func(body []byte) ([]serve.ReadingResult, error) {
		t0 := time.Now()
		var err error
		if readings, err = r.in.decodeFrame(body, readings, &names); err != nil {
			return nil, err
		}
		t1 := time.Now()
		results, rejected, err := ingest(readings)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		if r.w.json {
			out, err = json.Marshal(serve.IngestResponse{Results: results, Rejected: rejected})
		} else {
			out = serve.AppendResults(out[:0], results, rejected, 0)
		}
		t3 := time.Now()
		cost.decodeNS += t1.Sub(t0).Nanoseconds()
		cost.ingestNS += t2.Sub(t1).Nanoseconds()
		cost.encodeNS += t3.Sub(t2).Nanoseconds()
		cost.calls = append(cost.calls, float64(t2.Sub(t1).Nanoseconds())/float64(len(readings)))
		if spans {
			c.spans.add("codec.decode", c.id, c.spanK, t0, t1)
			c.spans.add("route.ingest", c.id, c.spanK, t1, t2)
			c.spans.add("codec.encode", c.id, c.spanK, t2, t3)
		}
		return results, err
	}
}

// Modes of the traced pass; consecutive frames cycle through them.
const (
	modeHTTP   = iota // plain round trip
	modeTraced        // round trip with client and handler spans
	modeDirect        // direct calls into the handler's children
	modes
)

// mixedStats is what the traced pass measured.
type mixedStats struct {
	rttNS    [modes]int64 // time in deliverNext per mode
	frames   int64        // frames per mode
	direct   passCost     // the direct frames' decode, ingest, encode
	pipeNS   int64        // twin Pipeline.IngestSensor over every frame of the pass
	detNS    int64        // twin detector Ingest over the same
	readings int64        // readings the twins were timed on
	samples  []float64
	pipe     pipeStats
}

// mixedPass sends 3·frames frames per connection, cycling plain, traced
// and direct, and feeds each to the connection's traceTwin as soon as it
// is served. Ordinal j names the j-th frame of each mode, which is how
// spans of different modes are nested.
func (r *rig) mixedPass(frames int, rec *recorder) (mixedStats, error) {
	parts := make([]mixedStats, len(r.clients))
	twins := make([]*traceTwin, len(r.clients))
	ingest := r.st.ingestFn()
	err := r.each(func(c *client) error {
		p := &parts[c.id]
		c.spans = rec
		tw, err := newTraceTwin(r, c)
		if err != nil {
			return err
		}
		twins[c.id] = tw
		for f := 0; f < c.next/r.w.batch; f++ { // the warm-up
			if err := tw.feed(f, false, -1); err != nil {
				return err
			}
		}
		direct := r.direct(c, ingest, &p.direct, true)
		for j := 0; j < frames; j++ {
			for mode := 0; mode < modes; mode++ {
				f := c.next / r.w.batch
				c.spanK, c.traced, c.send = j, mode == modeTraced, nil
				if mode == modeDirect {
					c.send = direct
				}
				t0 := time.Now()
				err := c.deliverNext()
				p.rttNS[mode] += time.Since(t0).Nanoseconds()
				c.traced, c.send = false, nil
				if err != nil {
					return err
				}
				if err := c.reads(); err != nil {
					return err
				}
				ordinal := -1
				if mode == modeDirect {
					ordinal = j
				}
				if err := tw.feed(f, true, ordinal); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return mixedStats{}, fmt.Errorf("traced pass: %w", err)
	}
	out := mixedStats{frames: int64(frames * len(r.clients))}
	for i, p := range parts {
		for m := range p.rttNS {
			out.rttNS[m] += p.rttNS[m]
		}
		out.direct.decodeNS += p.direct.decodeNS
		out.direct.ingestNS += p.direct.ingestNS
		out.direct.encodeNS += p.direct.encodeNS
		tw := twins[i]
		out.pipeNS += tw.pipeNS
		out.detNS += tw.detNS
		out.readings += tw.readings
		out.samples = append(out.samples, tw.samples...)
		out.pipe.outliers += tw.outliers
		for _, pl := range tw.pipes {
			if pl == nil {
				continue
			}
			full, patch := pl.ModelBuildStats()
			out.pipe.fullBuilds += full
			out.pipe.patchBuilds += patch
			if pl.DriftEnabled() {
				ds := pl.DriftStats()
				out.pipe.driftFires += ds.Detector.Detections + ds.JSTrips
			}
		}
	}
	out.direct.readings = out.frames * int64(r.w.batch)
	sort.Float64s(out.samples)
	out.pipe.meanNS = float64(out.pipeNS) / float64(out.readings)
	out.pipe.p50NS = percentile(out.samples, 0.5)
	out.pipe.p99NS = percentile(out.samples, 0.99)
	if err := twins[0].probe(&out.pipe); err != nil {
		return mixedStats{}, err
	}
	return out, nil
}

// probe times reads and a snapshot on one warmed twin pipeline.
func (t *traceTwin) probe(ps *pipeStats) error {
	const reads = 2000
	s := t.c.ci.shard[0]
	pl, sensor, pt := t.pipes[s], t.c.ci.sensors[0], []float64{0}
	t0 := time.Now()
	for i := 0; i < reads; i++ {
		pt[0] = 0.2 + 0.4*float64(i)/reads
		pl.QueryOutlierSensor(sensor, pt)
	}
	t1 := time.Now()
	for i := 0; i < reads; i++ {
		pt[0] = 0.2 + 0.4*float64(i)/reads
		pl.QueryProbSensor(sensor, pt, 0.01)
	}
	t2 := time.Now()
	blob, err := pl.Snapshot()
	if err != nil {
		return err
	}
	ps.queryOutlierNS = float64(t1.Sub(t0).Nanoseconds()) / reads
	ps.queryProbNS = float64(t2.Sub(t1).Nanoseconds()) / reads
	ps.snapshotMS = ms(time.Since(t2))
	ps.snapshotBytes = len(blob)
	return nil
}

// runTraced is the --trace 1 run: it calls each layer's exported entry
// points from outside, on the workload's own traffic, and prints the
// per-layer metrics.
func runTraced(cfg runConfig, traceOut string) (*outcome, error) {
	w := cfg.w
	out := &outcome{values: map[string]float64{}, correct: true}
	v := out.values
	rec := newRecorder()
	sz := cfg.sz
	frames := sz.tracePass / (modes * conns * w.batch)
	pacedDur := time.Duration(cfg.seconds * tracedPacedShare * float64(time.Second))
	perConn := (modes+3)*frames*w.batch + int((pacedDur.Seconds()+4*sz.abSeconds)*w.pacedHz*float64(w.batch))/conns +
		sz.opsSeconds*opsHz*w.batch/conns + 8*w.batch
	if need := sz.growthHi + w.batch; perConn < need {
		perConn = need // the restore-growth rung reads its arrivals off connection 0
	}

	r, err := setup(w, cfg.seed, perConn, cfg.dir, sz, stackOptions{wrap: rec.wrap}, nil)
	if err != nil {
		return nil, err
	}
	defer func() { r.close() }()
	v["gen.encode_ns_per_reading"] = r.in.encodeNS
	v["stream.next_ns"] = r.in.nextNS
	subPerBatch, skew := r.in.fanout()
	v["route.subbatches_per_batch"] = subPerBatch
	v["route.shard_skew"] = skew

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	mixed, err := r.mixedPass(frames, rec)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	pipe := mixed.pipe
	perFrame := func(mode int) float64 { return float64(mixed.rttNS[mode]) / float64(mixed.frames) }
	v["trace.overhead_share"] = 1 - perFrame(modeHTTP)/perFrame(modeTraced)
	v["http.alloc_bytes_per_reading"] = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(modes*mixed.direct.readings)
	v["runtime.gc_pause_share"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / float64(wall.Nanoseconds())
	var refused, offered int64
	for _, c := range r.clients {
		refused += c.refusedSub
		offered += c.offered / int64(w.batch)
	}
	v["route.rejected_share"] = float64(refused) / float64(offered)
	v["pipeline.ingest_ns_mean"] = pipe.meanNS
	v["pipeline.ingest_ns_p50"] = pipe.p50NS
	v["pipeline.ingest_ns_p99"] = pipe.p99NS
	v["pipeline.truth_ns_per_reading"] = float64(mixed.pipeNS-mixed.detNS) / float64(mixed.readings)
	v["pipeline.query_outlier_ns"] = pipe.queryOutlierNS
	v["pipeline.query_prob_ns"] = pipe.queryProbNS
	v["pipeline.full_builds"] = float64(pipe.fullBuilds)
	v["pipeline.patch_builds"] = float64(pipe.patchBuilds)
	v["pipeline.outliers"] = float64(pipe.outliers)
	v["drift.fires"] = float64(pipe.driftFires)
	v["snapshot.pipeline_bytes"] = float64(pipe.snapshotBytes)
	v["snapshot.encode_ms"] = pipe.snapshotMS

	total, self := rec.link()
	handler := float64(total["http.handler"])
	v["trace.coverage"] = (handler - float64(self["http.handler"])) / handler
	v["http.handler_ns_per_reading"] = handler / float64(mixed.direct.readings)
	v["http.socket_ns_per_batch"] = float64(self["client.rtt"]) / float64(mixed.frames)
	out.notef("traced pass: %d frames per mode; per frame plain %.0f us, traced %.0f us, direct %.0f us",
		mixed.frames, perFrame(modeHTTP)/1e3, perFrame(modeTraced)/1e3, perFrame(modeDirect)/1e3)
	out.notef("share of handler time by layer (self time): %s", shares(self, handler))
	out.notef("share of client rtt outside the handler (socket and net/http): %.3f", float64(self["client.rtt"])/float64(total["client.rtt"]))

	// The paced phase: the tail a monitored service is described by.
	paced, err := r.pacedLoop(w.pacedHz, pacedDur, nil)
	if err != nil {
		return nil, fmt.Errorf("paced phase: %w", err)
	}
	tail := 0.99
	if !supported(len(paced.rttUS), tail) {
		tail = 0.9
	}
	v["http.rtt_p50_us"] = percentile(paced.rttUS, 0.5)
	v["http.rtt_p99_us"] = percentile(paced.rttUS, tail)
	v["gen.late_share"] = float64(paced.late) / float64(len(paced.rttUS))
	out.notef("paced: n=%d, p50 %.0f us, p%g %.0f us, late share %.4f", len(paced.rttUS), percentile(paced.rttUS, 0.5), tail*100, percentile(paced.rttUS, tail), v["gen.late_share"])

	// The standalone rig hosts the Server.Ingest rungs and the checkpoint
	// and restore cycles; the cluster rig the router hop, migrations and
	// failovers. One of the two is the workload's own rig.
	solo, clus := r, r
	var other *rig
	if w.nodes == 0 {
		clus, err = setup(w.variant(true), cfg.seed, perConn, cfg.dir, sz, stackOptions{}, nil)
		other = clus
	} else {
		solo, err = setup(w.variant(false), cfg.seed, perConn, cfg.dir, sz, stackOptions{}, nil)
		other = solo
	}
	if err != nil {
		return nil, fmt.Errorf("variant rig: %w", err)
	}
	defer func() { other.close() }()

	// Router.Ingest against Server.Ingest, in back-to-back passes.
	soloD, err := solo.directPass(frames, solo.st.ingestFn())
	if err != nil {
		return nil, fmt.Errorf("standalone direct pass: %w", err)
	}
	clusD, err := clus.directPass(frames, clus.st.ingestFn())
	if err != nil {
		return nil, fmt.Errorf("cluster direct pass: %w", err)
	}
	v["router.hop_ns_per_reading"] = clusD.ingestPerReading() - soloD.ingestPerReading()
	v["router.forwarded"] = float64(clusD.readings)
	if solo == r {
		// Same rig, same pass as the twins: the subtraction is within frames.
		v["route.ingest_ns_per_reading"] = mixed.direct.ingestPerReading()
	} else {
		v["route.ingest_ns_per_reading"] = soloD.ingestPerReading()
	}
	v["route.overhead_ns_per_reading"] = v["route.ingest_ns_per_reading"] - pipe.meanNS

	if err := soloRungs(solo, frames, out); err != nil {
		return nil, err
	}
	if err := clusterRungs(clus, out); err != nil {
		return nil, err
	}
	if err := microRungs(r, out); err != nil {
		return nil, err
	}

	for _, rg := range []*rig{r, other} {
		sub := &outcome{}
		sub.check(rg, true, sz.traceDigest)
		out.attempted += sub.attempted
		out.failed += sub.failed
		out.correct = out.correct && sub.correct
		for _, n := range sub.notes {
			out.notef("%s: %s", rg.w.name, n)
		}
	}
	if traceOut != "" {
		if err := rec.dump(traceOut); err != nil {
			return nil, err
		}
		out.notef("%d spans written to %s", len(rec.spans), traceOut)
	}
	return out, nil
}

// shares formats self times as shares of the handler time.
func shares(self map[string]int64, handler float64) string {
	names := make([]string, 0, len(self))
	for n := range self {
		if n != "client.rtt" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s %.3f  ", n, float64(self[n])/handler)
	}
	return strings.TrimSpace(b.String())
}

// fanout reports how many per-shard sub-batches a frame splits into on
// average, and the busiest shard's share of readings over the mean share.
func (in *input) fanout() (subBatches, skew float64) {
	perShard := make([]int, in.w.shards)
	frames, subs := 0, 0
	for c := range in.conns {
		ci := &in.conns[c]
		period := len(ci.sensors)
		// One period of frames shows every alignment of batch and fleet.
		n := period
		if n > ci.frames() {
			n = ci.frames()
		}
		for f := 0; f < n; f++ {
			seen := map[int]bool{}
			for i := 0; i < in.w.batch; i++ {
				s := ci.shardAt(f*in.w.batch + i)
				seen[s] = true
				perShard[s]++
			}
			subs += len(seen)
			frames++
		}
	}
	total, busiest, fed := 0, 0, 0
	for _, n := range perShard {
		total += n
		if n > busiest {
			busiest = n
		}
		if n > 0 {
			fed++
		}
	}
	return float64(subs) / float64(frames), float64(busiest) / (float64(total) / float64(fed))
}

// pipeStats is what the offline pipeline replay measured.
type pipeStats struct {
	meanNS, p50NS, p99NS        float64
	queryOutlierNS, queryProbNS float64
	fullBuilds, patchBuilds     uint64
	outliers, driftFires        uint64
	snapshotBytes               int
	snapshotMS                  float64
}

// detectorConfig is one backend's configuration under a pipeline
// configuration — the projection serve.NewPipeline applies.
func detectorConfig(p serve.PipelineConfig, kind detector.Kind) detector.Config {
	return detector.Config{
		Kind: kind, Dim: p.Core.Dim, Seed: p.Seed,
		Criterion: detector.Criterion(p.Kind),
		Core:      p.Core, Distance: p.Distance, MDEF: p.MDEF,
		Qn: p.Backends.Qn, Coreset: p.Backends.Coreset, EWMA: p.Backends.EWMA,
	}
}

// backendOf applies the pipeline's selector: longest matching prefix,
// else the default backend.
func backendOf(p serve.PipelineConfig, sensor string) detector.Kind {
	kind, best := p.DefaultBackend(), -1
	for _, rule := range p.Selector {
		if len(rule.Prefix) > best && strings.HasPrefix(sensor, rule.Prefix) {
			kind, best = rule.Backend, len(rule.Prefix)
		}
	}
	return kind
}

// soloRungs are the rungs on a standalone server: multi-core scaling of
// Server.Ingest, the cost of a subscriber and of a follower, and the
// checkpoint and restore cycles under load. The scaling pair is two
// back-to-back closed passes of frames frames. The subscriber and follower
// pairs run at the workload's paced rate: at saturation a subscriber's
// ring and a replica chain's queue overflow, and what is timed then is
// the overflow, not the layer.
func soloRungs(r *rig, frames int, out *outcome) error {
	v := out.values
	ingest := r.st.ingestFn()
	two, err := r.directPass(frames, ingest)
	if err != nil {
		return fmt.Errorf("GOMAXPROCS 2 pass: %w", err)
	}
	prev := runtime.GOMAXPROCS(1)
	one, err := r.directPass(frames, ingest)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return fmt.Errorf("GOMAXPROCS 1 pass: %w", err)
	}
	v["route.scaling_p2_over_p1"] = two.rate() / one.rate()

	// pass is one arm: the median, over its calls, of Server.Ingest ns per
	// reading. At a paced rate single calls are stretched by wake-ups and
	// host stalls; the median is not.
	pass := func(what string) (float64, error) {
		costs := make([]passCost, len(r.clients))
		for _, c := range r.clients {
			c.send = r.direct(c, ingest, &costs[c.id], false)
		}
		_, err := r.pacedLoop(r.w.pacedHz, time.Duration(r.sz.abSeconds*float64(time.Second)), nil)
		var calls []float64
		for _, c := range r.clients {
			c.send = nil
			calls = append(calls, costs[c.id].calls...)
		}
		if err != nil {
			return 0, fmt.Errorf("%s pass: %w", what, err)
		}
		return stats.Median(calls), nil
	}

	// A subscriber: one pass with the stream attached, one without. The
	// workload's own subscriber, if it has one, has been attached since
	// before the warm-up and must account for every reading since.
	since := r.accepted()
	if r.sub != nil {
		since = 0
	} else if r.sub, err = subscribe(r.st.url); err != nil {
		return err
	}
	with, err := pass("subscriber")
	if err != nil {
		return err
	}
	want := r.accepted() - since
	events, dropped := r.sub.settle(want)
	if events+dropped != want || r.sub.err != nil {
		return fmt.Errorf("subscribe stream lost verdicts: %d events + %d dropped of %d accepted (%v)", events, dropped, want, r.sub.err)
	}
	r.sub.stop()
	r.sub = nil
	without, err := pass("no-subscriber")
	if err != nil {
		return err
	}
	v["subscribe.publish_ns_per_reading"] = with - without
	v["subscribe.drop_share"] = float64(dropped) / float64(want)
	out.notef("%s: subscribe: %d events + %d dropped of %d accepted", r.w.name, events, dropped, want)

	// A follower: a cluster-mode node holding a replica of every shard,
	// seeded from the primary's own snapshots so the chain is contiguous.
	srv := r.st.nodes[0].srv
	fcfg := r.st.nodes[0].cfg
	fcfg.SnapshotPath, fcfg.Cluster = "", true
	follower := &node{cfg: fcfg}
	if err := follower.start(); err != nil {
		return err
	}
	defer follower.stop()
	for s := 0; s < r.w.shards; s++ {
		blob, err := srv.SnapshotShard(s, false)
		if err != nil {
			return err
		}
		if err := follower.srv.InstallShard(s, true, blob); err != nil {
			return err
		}
		if err := srv.SetFollower(s, follower.url()); err != nil {
			return err
		}
	}
	followed, err := pass("follower")
	if err != nil {
		return err
	}
	lag, err := replicaLag(r.st, follower)
	if err != nil {
		return err
	}
	for s := 0; s < r.w.shards; s++ {
		if err := srv.SetFollower(s, ""); err != nil {
			return err
		}
	}
	alone, err := pass("no-follower")
	if err != nil {
		return err
	}
	v["replicate.forward_ns_per_reading"] = followed - alone
	v["replicate.lag_readings"] = float64(lag)

	// Checkpoint, crash and restore under background load.
	var checkpoints, restores []float64
	var cuts [][2]time.Time
	paced, err := r.withBackground(func() error {
		for i := 0; i < r.sz.traceRecoveries; i++ {
			time.Sleep(150 * time.Millisecond)
			t0 := time.Now()
			rec, err := r.recoverOnce(0, true)
			if err != nil {
				return fmt.Errorf("restore cycle %d: %w", i, err)
			}
			cuts = append(cuts, [2]time.Time{t0, t0.Add(time.Duration(rec.checkpointMS * float64(time.Millisecond)))})
			checkpoints = append(checkpoints, rec.checkpointMS)
			restores = append(restores, rec.restoreMS)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The stall a checkpoint imposes: the slowest batch in flight while
	// one was being cut.
	stall := 0.0
	for _, s := range paced.samples {
		for _, cut := range cuts {
			if s.due.Before(cut[1]) && s.done.After(cut[0]) {
				stall = math.Max(stall, float64(s.done.Sub(s.due).Nanoseconds())/1e3)
			}
		}
	}
	v["checkpoint_ms"] = stats.Median(checkpoints)
	v["restore_ms"] = stats.Median(restores)
	v["snapshot.checkpoint_stall_max_us"] = stall
	out.notef("%s: %d checkpoint+restore cycles under %d batches/s: checkpoint %.2f ms, restore %.2f ms, worst batch across a checkpoint %.0f us",
		r.w.name, r.sz.traceRecoveries, opsHz, v["checkpoint_ms"], v["restore_ms"], stall)
	return nil
}

// replicaLag is how many readings the follower trails the primary by,
// read without waiting for the chain to drain.
func replicaLag(st *stack, follower *node) (uint64, error) {
	have, err := st.arrivals()
	if err != nil {
		return 0, err
	}
	fs, err := follower.srv.Stats()
	if err != nil {
		return 0, err
	}
	var lag uint64
	for _, ss := range fs.PerShard {
		if have[ss.Shard] > ss.Arrivals {
			lag += have[ss.Shard] - ss.Arrivals
		}
	}
	return lag, nil
}

// clusterRungs times live migrations and failovers under background load.
func clusterRungs(r *rig, out *outcome) error {
	v := out.values
	var pauses, totals, blobs, gaps, ticks, lags []float64
	metrics0, err := routerCounters(r.st.url)
	if err != nil {
		return err
	}
	var resent0 int64
	for _, c := range r.clients {
		resent0 += c.refusedSub
	}
	_, err = r.withBackground(func() error {
		for i := 0; i < r.sz.traceMigrations; i++ {
			time.Sleep(100 * time.Millisecond)
			// Shard 0 goes to the node that is neither its owner nor its
			// replica, and the next migration brings it back.
			m := r.st.router.CurrentMap()
			to := 0
			for to == m.Owner[0] || to == m.Replica[0] {
				to++
			}
			blob, err := r.st.nodes[m.Owner[0]].srv.SnapshotShard(0, false)
			if err != nil {
				return err
			}
			c := r.clients[connOf(0)]
			var refusedAt, acceptedAt time.Time
			c.mu.Lock()
			c.watchRefused = map[int]*time.Time{0: &refusedAt}
			c.mu.Unlock()
			t0 := time.Now()
			if err := r.st.router.Migrate(0, to); err != nil {
				return fmt.Errorf("migration %d: %w", i, err)
			}
			totals = append(totals, ms(time.Since(t0)))
			blobs = append(blobs, float64(len(blob)))
			// The pause ends at the first verdict the new owner serves.
			c.mu.Lock()
			c.watch = map[int]*time.Time{0: &acceptedAt}
			c.mu.Unlock()
			deadline := time.Now().Add(2 * time.Second)
			for {
				c.mu.Lock()
				done := !acceptedAt.IsZero()
				c.mu.Unlock()
				if done || time.Now().After(deadline) {
					break
				}
				time.Sleep(200 * time.Microsecond)
			}
			c.mu.Lock()
			c.watch, c.watchRefused = nil, nil
			if !refusedAt.IsZero() && !acceptedAt.IsZero() {
				pauses = append(pauses, ms(acceptedAt.Sub(refusedAt)))
			}
			c.mu.Unlock()
		}
		for i := 0; i < r.sz.traceRecoveries; i++ {
			time.Sleep(100 * time.Millisecond)
			rec, err := r.recoverOnce(i%r.w.shards, true)
			if err != nil {
				return fmt.Errorf("failover %d: %w", i, err)
			}
			gaps = append(gaps, rec.gapMS)
			ticks = append(ticks, rec.tickMS)
			lags = append(lags, float64(rec.lagReadings))
		}
		return nil
	})
	if err != nil {
		return err
	}
	metrics1, err := routerCounters(r.st.url)
	if err != nil {
		return err
	}
	var resent1 int64
	for _, c := range r.clients {
		resent1 += c.refusedSub
	}
	met := len(pauses)
	if met == 0 {
		// No batch met the seal: the migrations fell between batches.
		pauses = []float64{0}
	}
	v["migrate.total_ms"] = stats.Median(totals)
	v["migrate.blob_bytes"] = stats.Median(blobs)
	v["migrate_pause_ms"] = stats.Median(pauses)
	v["failover_gap_ms"] = stats.Median(gaps)
	v["failover.healthtick_ms"] = stats.Median(ticks)
	v["failover.lag_readings"] = stats.Median(lags)
	v["router.wrongnode_409s"] = metrics1["odds_router_epoch_conflicts_total"] - metrics0["odds_router_epoch_conflicts_total"]
	v["router.retries"] = float64(resent1 - resent0)
	out.notef("%s: %d migrations under %d batches/s: call %.2f ms, pause %.2f ms (%d of %d met the seal), blob %.0f bytes; %d failovers: gap %.2f ms, health ticks %.2f ms, replica lag %.0f readings",
		r.w.name, r.sz.traceMigrations, opsHz, v["migrate.total_ms"], v["migrate_pause_ms"], met, r.sz.traceMigrations, v["migrate.blob_bytes"],
		r.sz.traceRecoveries, v["failover_gap_ms"], v["failover.healthtick_ms"], v["failover.lag_readings"])
	return nil
}
