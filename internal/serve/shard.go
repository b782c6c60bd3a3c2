package serve

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"odds/internal/quantile"
	"odds/internal/stats"
)

// shardSeed derives shard i's rng seed from the server's base seed, a
// pure function of (seed, shard) so the oddload twin derives the same
// streams independently.
func shardSeed(seed int64, shard int) int64 {
	return stats.ChildSeed(seed, shard)
}

type opKind uint8

const (
	opIngest opKind = iota
	opQuery
	opProb
	opStats
	opSnapshot
	opReplicate // apply a replicated batch (follower side, contiguity-checked)
	opFollow    // install/replace this primary's replicator
)

// shardRole is a shard's cluster role. Primaries serve ingest and publish
// verdicts; replicas only accept contiguity-checked replication batches
// until promoted. Standalone (non-cluster) shards are always primaries.
type shardRole = int32

const (
	rolePrimary shardRole = iota
	roleReplica
)

// shardReq is one mailbox envelope. Ingest envelopes carry a sub-batch
// already filtered to this shard plus a caller-owned verdict buffer
// (len == len(batch)) the shard fills in place — the pooled ingest path
// allocates nothing per envelope. Replicate envelopes carry the batch with
// the primary's verdicts, of which the shard reads only Outlier. The reply
// channel is buffered so the shard goroutine never blocks on a departed
// caller.
type shardReq struct {
	op       opKind
	batch    []Reading
	verdicts []Verdict
	sensor   string // opQuery/opProb: backend-selector routing key
	pt       []float64
	radius   float64
	fromSeq  uint64      // opReplicate: seq of the first reading in batch
	repl     *replicator // opFollow: new replicator (nil detaches)
	reply    chan shardResp
}

type shardResp struct {
	verdicts []Verdict
	verdict  Verdict
	prob     float64
	stats    ShardStats
	snap     []byte
	seq      uint64 // opReplicate: pipeline seq after applying
	refused  bool   // opIngest: shard sealed or not primary; nothing applied
	err      error
}

// shard is one single-writer detection worker: a goroutine owning a
// Pipeline, fed through a bounded mailbox. Counter reads are lock-free
// (atomics); the latency sketch is goroutine-owned and only read via a
// stats envelope.
type shard struct {
	id   int
	pl   *Pipeline
	hub  *subHub // verdict fan-out, one publish per sub-batch; a single atomic load when idle
	reqs chan shardReq
	quit chan struct{} // Abort: stop without draining
	done chan struct{}

	ingested atomic.Uint64
	outliers atomic.Uint64
	rejected atomic.Uint64 // incremented by the admission layer

	// Drift counters mirrored from the goroutine-owned pipeline after
	// each applied batch, so /metrics can scrape them lock-free without
	// a mailbox round trip.
	driftDetections atomic.Uint64
	driftActions    atomic.Uint64

	// role and sealed gate ingest. The admission layer reads them as an
	// advisory fast path; the authoritative check happens inside
	// handle(opIngest) at envelope-processing time, so a seal followed by
	// an enqueued snapshot envelope captures exactly the readings that
	// were ACKed (mailbox FIFO: applied ⇒ before the seal ⇒ in the
	// snapshot; refused ⇒ retried by the client against the new owner).
	role   atomic.Int32
	sealed atomic.Bool

	// repl streams applied batches to a follower node, nil when the shard
	// has none. The shard goroutine installs it (opFollow) and forwards to
	// it; Server.Stats and /metrics load it to report the link's state;
	// stopReplicator runs only after the goroutine has exited (<-done).
	repl atomic.Pointer[replicator]

	// lat samples one in latSample service times (clock reads and sketch
	// inserts off the other readings' hot path); the /stats percentiles
	// are over this sample.
	lat     *quantile.GK
	latTick uint64
}

// latSample is the service-time sampling stride (power of two).
const latSample = 8

func newShard(id int, pl *Pipeline, queueDepth int, hub *subHub) *shard {
	return &shard{
		id:   id,
		pl:   pl,
		hub:  hub,
		reqs: make(chan shardReq, queueDepth),
		quit: make(chan struct{}),
		done: make(chan struct{}),
		lat:  quantile.New(0.01),
	}
}

// run is the shard goroutine: drain envelopes until the mailbox closes
// (graceful shutdown — buffered envelopes are still served) or quit
// closes (crash simulation — stop at the next envelope boundary).
func (sh *shard) run() {
	defer close(sh.done)
	for {
		select {
		case <-sh.quit:
			return
		case req, ok := <-sh.reqs:
			if !ok {
				return
			}
			sh.handle(req)
		}
	}
}

// servable reports whether this shard currently accepts ingest: hosted
// as primary and not sealed for migration. Advisory — handle(opIngest)
// rechecks at envelope time.
func (sh *shard) servable() bool {
	return shardRole(sh.role.Load()) == rolePrimary && !sh.sealed.Load()
}

// stopReplicator tears down the follower stream; callers must first
// observe <-sh.done so the shard goroutine no longer touches sh.repl.
func (sh *shard) stopReplicator() {
	if r := sh.repl.Swap(nil); r != nil {
		r.stop()
	}
}

func (sh *shard) handle(req shardReq) {
	switch req.op {
	case opIngest:
		if !sh.servable() {
			// Sealed for migration, or a replica reached through a stale
			// map: refuse the whole sub-batch so nothing is applied and
			// the client retries against the current owner.
			req.reply <- shardResp{verdicts: req.verdicts, refused: true}
			return
		}
		verdicts := req.verdicts
		if verdicts == nil {
			verdicts = make([]Verdict, len(req.batch))
		}
		fromSeq := sh.pl.Seq() + 1
		outliers := uint64(0)
		for i := range req.batch {
			timed := sh.latTick&(latSample-1) == 0
			sh.latTick++
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			v := sh.pl.IngestSensor(req.batch[i].Sensor, req.batch[i].Value)
			if timed {
				sh.lat.Insert(float64(time.Since(t0)) / float64(time.Microsecond))
			}
			verdicts[i] = v
			if v.Outlier {
				outliers++
			}
		}
		if outliers > 0 {
			sh.outliers.Add(outliers)
		}
		sh.ingested.Add(uint64(len(req.batch)))
		if sh.hub != nil {
			// One publish per sub-batch, ahead of the reply: a client that
			// has its verdicts back can count on every subscriber's ring
			// already holding (or having counted as dropped) their events.
			sh.hub.publishBatch(sh.id, req.batch, verdicts)
		}
		sh.syncDrift()
		if r := sh.repl.Load(); r != nil {
			// Encodes the batch and its verdict bits before the reply
			// releases the caller's pooled buffers; only cluster primaries
			// with a follower pay this.
			r.forward(fromSeq, req.batch, verdicts)
		}
		req.reply <- shardResp{verdicts: verdicts}
	case opReplicate:
		resp := shardResp{seq: sh.pl.Seq()}
		switch {
		case shardRole(sh.role.Load()) != roleReplica:
			resp.err = errNotReplica
		case req.fromSeq != sh.pl.Seq()+1:
			// A gap means the replication link lost a batch; fail closed so
			// the follower stays frozen at a consistent prefix (promotion
			// from a prefix is sound — clients re-send the tail on
			// catch-up).
			resp.err = fmt.Errorf("%w: follower at seq %d, batch starts at %d", errReplGap, sh.pl.Seq(), req.fromSeq)
		default:
			for i := range req.batch {
				if sh.pl.Apply(req.batch[i].Sensor, req.batch[i].Value, req.verdicts[i].Outlier).Outlier {
					sh.outliers.Add(1)
				}
			}
			sh.ingested.Add(uint64(len(req.batch)))
			sh.syncDrift()
			resp.seq = sh.pl.Seq()
		}
		req.reply <- resp
	case opFollow:
		if old := sh.repl.Swap(req.repl); old != nil {
			old.stop()
		}
		req.reply <- shardResp{}
	case opQuery:
		req.reply <- shardResp{verdict: sh.pl.QueryOutlierSensor(req.sensor, req.pt)}
	case opProb:
		req.reply <- shardResp{prob: sh.pl.QueryProbSensor(req.sensor, req.pt, req.radius)}
	case opStats:
		req.reply <- shardResp{stats: sh.statsLocked()}
	case opSnapshot:
		snap, err := sh.pl.Snapshot()
		req.reply <- shardResp{snap: snap, err: err}
	}
}

// syncDrift mirrors the pipeline's drift counters into the shard's
// lock-free atomics; called from the shard goroutine after each applied
// batch (per batch, not per reading, so the hot path pays nothing).
func (sh *shard) syncDrift() {
	if !sh.pl.DriftEnabled() {
		return
	}
	st := sh.pl.DriftStats()
	sh.driftDetections.Store(st.Detector.Detections + st.JSTrips)
	sh.driftActions.Store(st.Refreshes + st.Shrinks)
}

// statsLocked reads counters plus the goroutine-owned latency sketch;
// called only from the shard goroutine.
func (sh *shard) statsLocked() ShardStats {
	st := ShardStats{
		Shard:      sh.id,
		Arrivals:   sh.pl.Seq(),
		Ingested:   sh.ingested.Load(),
		Rejected:   sh.rejected.Load(),
		Outliers:   sh.outliers.Load(),
		QueueDepth: len(sh.reqs),
		Sealed:     sh.sealed.Load(),
	}
	if shardRole(sh.role.Load()) == roleReplica {
		st.Role = "replica"
	} else {
		st.Role = "primary"
	}
	if sh.lat.N() > 0 {
		st.P50Micros = sh.lat.Query(0.5)
		st.P99Micros = sh.lat.Query(0.99)
	}
	if sh.pl.DriftEnabled() {
		ds := sh.pl.DriftStats()
		st.Drift = &ds
	}
	st.Backends = sh.pl.BackendStats()
	return st
}

var (
	errShardDown  = errors.New("serve: shard stopped")
	errNotReplica = errors.New("serve: shard is not a replica")
	errReplGap    = errors.New("serve: replication gap")
)

// call sends a blocking envelope (queries, stats, snapshots — never
// rejected by admission control) and awaits the reply, failing cleanly if
// the shard dies first. A caller on pooled scratch brings its own empty,
// buffered reply channel.
func (sh *shard) call(req shardReq) (shardResp, error) {
	if req.reply == nil {
		req.reply = make(chan shardResp, 1)
	}
	select {
	case sh.reqs <- req:
	case <-sh.done:
		return shardResp{}, errShardDown
	}
	return sh.await(req)
}

// offer attempts a non-blocking ingest send; false means the mailbox is
// full and the sub-batch was rejected (admission control).
func (sh *shard) offer(req shardReq) bool {
	select {
	case sh.reqs <- req:
		return true
	default:
		return false
	}
}

// await collects the reply of a previously accepted ingest envelope.
func (sh *shard) await(req shardReq) (shardResp, error) {
	select {
	case resp := <-req.reply:
		return resp, resp.err
	case <-sh.done:
		select {
		case resp := <-req.reply:
			return resp, resp.err
		default:
			return shardResp{}, errShardDown
		}
	}
}
