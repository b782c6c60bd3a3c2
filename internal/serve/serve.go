package serve

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Config configures a Server.
type Config struct {
	// Shards is the number of shard goroutines; sensor ids hash onto
	// them with ShardOf. Default 1.
	Shards int
	// Pipeline is the detection configuration every shard runs;
	// Pipeline.Seed is the base seed from which per-shard seeds are
	// derived (shardSeed).
	Pipeline PipelineConfig
	// QueueDepth bounds each shard's mailbox; a full mailbox rejects
	// ingest sub-batches with retry-after. Default 64.
	QueueDepth int
	// RetryAfter is the backoff hint returned with rejections.
	// Default 250ms.
	RetryAfter time.Duration
	// SnapshotPath, when set, enables checkpoint/restore: New restores
	// from the file if it exists, Checkpoint writes it atomically, and
	// Close writes a final checkpoint.
	SnapshotPath string
	// SnapshotEvery, when positive alongside SnapshotPath, checkpoints
	// periodically in the background.
	SnapshotEvery time.Duration
	// MaxBatch bounds readings per ingest request (JSON and binary);
	// larger batches are refused with 413. Default 8192.
	MaxBatch int
	// MaxBodyBytes bounds request bodies; larger bodies are refused with
	// 413 before decoding. Default 4 MiB.
	MaxBodyBytes int64
	// SubscribeBuffer is each /subscribe ring's capacity; a subscriber
	// lagging further than this loses the oldest verdicts (counted and
	// reported as a gap record on its stream). Default 256.
	SubscribeBuffer int
	// Cluster runs the server as one node of a multi-node cluster:
	// Shards is the cluster-global shard space, and the node starts
	// hosting none of it; a router assigns shards at runtime through the
	// shard admin endpoint. Per-shard seeds are derived from the global
	// shard id, so a shard's pipeline is bit-identical no matter which
	// node hosts it. Incompatible with SnapshotPath: cluster durability
	// is replica chains plus snapshot-shipped migration, not local
	// checkpoint files.
	Cluster bool
}

func (c *Config) fill() error {
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards < 0 {
		return fmt.Errorf("serve: shards %d must be positive", c.Shards)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		return fmt.Errorf("serve: queue depth %d must be positive", c.QueueDepth)
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 8192
	}
	if c.MaxBatch < 0 {
		return fmt.Errorf("serve: max batch %d must be positive", c.MaxBatch)
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.MaxBodyBytes < 0 {
		return fmt.Errorf("serve: max body bytes %d must be positive", c.MaxBodyBytes)
	}
	if c.SubscribeBuffer == 0 {
		c.SubscribeBuffer = 256
	}
	if c.SubscribeBuffer < 0 {
		return fmt.Errorf("serve: subscribe buffer %d must be positive", c.SubscribeBuffer)
	}
	if c.Cluster && c.SnapshotPath != "" {
		return fmt.Errorf("serve: cluster mode is incompatible with SnapshotPath (durability is replication + shipped snapshots)")
	}
	return c.Pipeline.Validate()
}

// Server is the sharded ingest/query engine. Construct with New, expose
// Handler over HTTP, stop with Close (graceful: drains mailboxes and
// writes a final checkpoint) or Abort (simulated crash: shards stop
// mid-queue and no checkpoint is written — restart recovery then relies
// on the last periodic snapshot).
type Server struct {
	cfg Config
	// shards is indexed by global shard id; in cluster mode entries are
	// nil for shards this node does not host (mutated only under mu by
	// the shard admin install/release ops, admin.go).
	shards []*shard
	hub    *subHub // /subscribe fan-out

	// epoch is the cluster map version this node believes; requests
	// carrying an X-Odds-Epoch header that disagrees are refused (409)
	// so a router with a stale or newer map never applies work here.
	epoch atomic.Uint64

	// peers carries this node's replica streams to its followers: one
	// client for every shard's replicator, so they share a connection pool.
	peers *http.Client

	wireFP  uint64    // config fingerprint carried by every binary frame
	names   Interner  // sensor-id intern table for zero-alloc binary decode
	scratch sync.Pool // *ingestScratch

	// mu excludes request handling (read side) from shutdown (write
	// side), so no handler can send on a closing mailbox.
	mu     sync.RWMutex
	closed bool

	snapMu sync.Mutex // serializes checkpoint file writes

	ckStop chan struct{}
	ckDone chan struct{}
}

var errServerClosed = errors.New("serve: server closed")

// errWrongNode marks work addressed to a shard this node does not host;
// the HTTP layer answers 404 and a router retries against the map owner.
var errWrongNode = errors.New("serve: shard not hosted on this node")

// errBadBatch marks client-side batch defects (wrong dimensionality);
// the HTTP layer answers them 400, never 5xx.
var errBadBatch = errors.New("serve: bad batch")

// New builds a server, restoring every shard from cfg.SnapshotPath if the
// file exists (seed-exact resume), and starts the shard goroutines plus
// the periodic checkpoint loop when configured. The shards are built
// concurrently; if any fails, New returns the error of the lowest failing
// shard id, as "serve: shard N: …", and starts nothing. A cluster node
// starts empty: the router installs its shards (admin.go).
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, hub: newSubHub(), peers: NewNodeHTTPClient(cfg.Shards), wireFP: wireFingerprint(cfg.Shards, cfg.Pipeline)}
	s.shards = make([]*shard, cfg.Shards)
	if cfg.Cluster {
		return s, nil
	}

	blobs := make([][]byte, cfg.Shards)
	if cfg.SnapshotPath != "" {
		data, err := os.ReadFile(cfg.SnapshotPath)
		switch {
		case err == nil:
			blobs, err = decodeFile(data, cfg.Shards, cfg.Pipeline)
			if err != nil {
				return nil, err
			}
		case errors.Is(err, os.ErrNotExist):
			// Fresh start.
		default:
			return nil, err
		}
	}

	// Build every pipeline in its own goroutine, so a restart restores its
	// shards on every core. Goroutine i writes only pls[i] and errs[i], and
	// nothing reads them before the join: the first error in shard order
	// wins, and no shard loop starts while another shard is still being
	// built.
	pls := make([]*Pipeline, cfg.Shards)
	errs := make([]error, cfg.Shards)
	var wg sync.WaitGroup
	for i := range pls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pls[i], errs[i] = s.buildPipeline(i, blobs[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", i, err)
		}
	}
	for i, pl := range pls {
		s.shards[i] = newShard(i, pl, cfg.QueueDepth, s.hub)
		go s.shards[i].run()
	}

	if cfg.SnapshotPath != "" && cfg.SnapshotEvery > 0 {
		s.ckStop = make(chan struct{})
		s.ckDone = make(chan struct{})
		go s.checkpointLoop()
	}
	return s, nil
}

// buildPipeline builds shard id's pipeline: a restore of blob, or a fresh
// pipeline when blob is empty. Its seed derives from the global shard id,
// so every node builds the same pipeline for a shard.
func (s *Server) buildPipeline(id int, blob []byte) (*Pipeline, error) {
	pcfg := s.cfg.Pipeline
	pcfg.Seed = shardSeed(pcfg.Seed, id)
	if len(blob) > 0 {
		return RestorePipeline(pcfg, blob)
	}
	return NewPipeline(pcfg)
}

func (s *Server) checkpointLoop() {
	defer close(s.ckDone)
	t := time.NewTicker(s.cfg.SnapshotEvery)
	defer t.Stop()
	for {
		select {
		case <-s.ckStop:
			return
		case <-t.C:
			// Best-effort: a checkpoint racing shutdown simply fails.
			_ = s.Checkpoint()
		}
	}
}

// Checkpoint snapshots every shard through its mailbox (so each snapshot
// is a clean per-shard cut) and writes the snapshot file atomically.
func (s *Server) Checkpoint() error {
	if s.cfg.SnapshotPath == "" {
		return errors.New("serve: no snapshot path configured")
	}
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return errServerClosed
	}
	blobs := make([][]byte, len(s.shards))
	var err error
	for i, sh := range s.shards {
		if sh == nil {
			continue
		}
		var resp shardResp
		resp, err = sh.call(shardReq{op: opSnapshot})
		if err != nil {
			break
		}
		blobs[i] = resp.snap
	}
	s.mu.RUnlock()
	if err != nil {
		return err
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return writeFileAtomic(s.cfg.SnapshotPath, encodeFile(s.cfg.Shards, s.cfg.Pipeline, blobs))
}

// stopCheckpointLoop is safe to call more than once.
func (s *Server) stopCheckpointLoop() {
	if s.ckStop == nil {
		return
	}
	select {
	case <-s.ckStop:
	default:
		close(s.ckStop)
	}
	<-s.ckDone
}

// Close shuts down gracefully: new requests are refused, queued
// envelopes are drained, shard goroutines exit, and — when a snapshot
// path is configured — a final checkpoint captures the drained state.
// The embedding HTTP server should stop accepting connections first.
func (s *Server) Close() error {
	s.stopCheckpointLoop()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, sh := range s.shards {
		if sh != nil {
			close(sh.reqs)
		}
	}
	s.mu.Unlock()
	for _, sh := range s.shards {
		if sh != nil {
			<-sh.done
			sh.stopReplicator()
		}
	}
	s.peers.CloseIdleConnections()
	// Shards have drained, so every verdict has been published; let the
	// subscription streams flush their rings and end.
	s.hub.shutdown()
	if s.cfg.SnapshotPath == "" {
		return nil
	}
	// Goroutines have exited; pipelines are safe to touch directly.
	blobs := make([][]byte, len(s.shards))
	for i, sh := range s.shards {
		if sh == nil {
			continue
		}
		b, err := sh.pl.Snapshot()
		if err != nil {
			return err
		}
		blobs[i] = b
	}
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	return writeFileAtomic(s.cfg.SnapshotPath, encodeFile(s.cfg.Shards, s.cfg.Pipeline, blobs))
}

// Abort simulates a crash: shard goroutines stop at the next envelope
// boundary, queued work is dropped, and no final checkpoint is written.
// Recovery from the last periodic checkpoint is exactly what a restarted
// process would do.
func (s *Server) Abort() {
	s.stopCheckpointLoop()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for _, sh := range s.shards {
		if sh != nil {
			close(sh.quit)
		}
	}
	s.mu.Unlock()
	for _, sh := range s.shards {
		if sh != nil {
			<-sh.done
			sh.stopReplicator()
		}
	}
	s.peers.CloseIdleConnections()
	s.hub.shutdown()
}

// Ingest routes a batch to its shards (order-preserving sub-batches),
// applies admission control per shard, and returns per-reading results in
// request order plus the number of rejected readings.
func (s *Server) Ingest(readings []Reading) ([]ReadingResult, int, error) {
	results := make([]ReadingResult, len(readings))
	sc := s.getScratch()
	rejected, err := s.ingestInto(readings, results, &sc.route)
	if err != nil {
		// A failed round may leave an un-awaited reply in a pooled
		// channel; drop the scratch rather than poison the pool.
		return nil, 0, err
	}
	s.scratch.Put(sc)
	return results, rejected, nil
}

// ingestInto is the pooled ingest core shared by the /ingest handler (on
// either codec) and Ingest: route readings to shards, offer sub-batches
// non-blocking, and scatter verdicts back into results (len(results) ==
// len(readings)). All per-call state lives in rs, so at steady state the
// whole route→detect→scatter path allocates nothing.
func (s *Server) ingestInto(readings []Reading, results []ReadingResult, rs *routeScratch) (int, error) {
	// Each subscriber this request stored events for is woken once, after
	// the last sub-batch is applied and before the caller writes the
	// reply; error returns wake too.
	defer s.hub.wake()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0, errServerClosed
	}

	dim := s.cfg.Pipeline.Core.Dim
	for i := range readings {
		if len(readings[i].Value) != dim {
			return 0, fmt.Errorf("%w: reading %d: dim %d, want %d", errBadBatch, i, len(readings[i].Value), dim)
		}
	}

	n := len(s.shards)
	for sid := 0; sid < n; sid++ {
		rs.byShard[sid] = rs.byShard[sid][:0]
		rs.pos[sid] = rs.pos[sid][:0]
	}
	for i := range readings {
		sh := ShardOf(readings[i].Sensor, n)
		results[i] = ReadingResult{Shard: sh}
		rs.byShard[sh] = append(rs.byShard[sh], readings[i])
		rs.pos[sh] = append(rs.pos[sh], i)
	}

	// Phase 1: offer every sub-batch (non-blocking). A full mailbox
	// rejects its whole sub-batch, keeping per-shard order intact for
	// the client's retry.
	rejected := 0
	for sid := 0; sid < n; sid++ {
		batch := rs.byShard[sid]
		if len(batch) == 0 {
			rs.accepted[sid] = false
			continue
		}
		sh := s.shards[sid]
		if sh == nil || !sh.servable() {
			// Wrong node (or mid-migration seal): reject the sub-batch so
			// the client retries it, in order, against the map owner.
			rs.accepted[sid] = false
			if sh != nil {
				sh.rejected.Add(uint64(len(batch)))
			}
			rejected += len(batch)
			continue
		}
		rs.verdicts[sid] = growVerdicts(rs.verdicts[sid], len(batch))
		req := shardReq{op: opIngest, batch: batch, verdicts: rs.verdicts[sid], reply: rs.replies[sid]}
		rs.reqs[sid] = req
		if sh.offer(req) {
			rs.accepted[sid] = true
		} else {
			rs.accepted[sid] = false
			sh.rejected.Add(uint64(len(batch)))
			rejected += len(batch)
		}
	}

	// Phase 2: collect replies of accepted sub-batches and scatter the
	// verdicts back into request order.
	for sid := 0; sid < n; sid++ {
		if !rs.accepted[sid] {
			continue
		}
		resp, err := s.shards[sid].await(rs.reqs[sid])
		if err != nil {
			return 0, err
		}
		if resp.refused {
			s.shards[sid].rejected.Add(uint64(len(rs.byShard[sid])))
			rejected += len(rs.byShard[sid])
			continue
		}
		for k := range resp.verdicts {
			v := &resp.verdicts[k]
			i := rs.pos[sid][k]
			results[i].Accepted = true
			results[i].Seq = v.Seq
			results[i].Outlier = v.Outlier
			results[i].Exact = v.Exact
			results[i].Warmed = v.Warmed
		}
	}
	return rejected, nil
}

// QueryOutlier answers a read-only outlier check for a sensor's value.
func (s *Server) QueryOutlier(sensor string, value []float64) (QueryResponse, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return QueryResponse{}, errServerClosed
	}
	sid := ShardOf(sensor, len(s.shards))
	sh := s.shards[sid]
	if sh == nil {
		return QueryResponse{}, fmt.Errorf("%w: shard %d", errWrongNode, sid)
	}
	resp, err := sh.call(shardReq{op: opQuery, sensor: sensor, pt: value})
	if err != nil {
		return QueryResponse{}, err
	}
	v := resp.verdict
	return QueryResponse{Shard: sid, Seq: v.Seq, Outlier: v.Outlier, Exact: v.Exact, Warmed: v.Warmed}, nil
}

// QueryProb answers the estimated probability mass near a sensor's value.
func (s *Server) QueryProb(sensor string, value []float64, radius float64) (ProbResponse, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ProbResponse{}, errServerClosed
	}
	sid := ShardOf(sensor, len(s.shards))
	sh := s.shards[sid]
	if sh == nil {
		return ProbResponse{}, fmt.Errorf("%w: shard %d", errWrongNode, sid)
	}
	resp, err := sh.call(shardReq{op: opProb, sensor: sensor, pt: value, radius: radius})
	if err != nil {
		return ProbResponse{}, err
	}
	return ProbResponse{Shard: sid, Prob: resp.prob}, nil
}

// Stats collects the full configuration and per-shard counters.
func (s *Server) Stats() (StatsResponse, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return StatsResponse{}, errServerClosed
	}
	out := StatsResponse{
		Shards:          len(s.shards),
		PipelineConfig:  s.cfg.Pipeline,
		PerShard:        make([]ShardStats, 0, len(s.shards)),
		WireFingerprint: s.wireFP,
		Cluster:         s.cfg.Cluster,
		Epoch:           s.epoch.Load(),
	}
	for _, sh := range s.shards {
		if sh == nil {
			continue
		}
		resp, err := sh.call(shardReq{op: opStats})
		if err != nil {
			return StatsResponse{}, err
		}
		if s.cfg.Cluster {
			resp.stats.Replication = sh.repl.Load().stats()
		}
		out.PerShard = append(out.PerShard, resp.stats)
	}
	return out, nil
}
