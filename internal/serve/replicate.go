package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"odds/internal/binfmt"
)

// Replication — the primary → follower half of a cluster shard's replica
// chain. After a primary shard applies an ingest sub-batch, it forwards a
// copy to its follower node as an ODRP frame; the follower applies it
// through the same single-writer mailbox, enforcing sequence contiguity
// so the replica is always a bit-exact prefix of the primary.
//
// The chain fails closed: any shipping error, full forward queue, or
// contiguity violation marks the link broken and stops forwarding. A
// broken follower is frozen at a consistent prefix — promoting it is
// sound because clients re-send the un-replicated tail on catch-up
// (exactly the crash/restore contract oddload already verifies).
//
// ODRP frame ("ODRP"):
//
//	u32  magic 0x4f445250
//	u8   version (1)
//	u8   reserved (0)
//	u16  reserved (0)
//	u32  shard        — global shard id
//	u64  fromSeq      — pipeline seq of the first reading in the batch
//	ODWB batch frame  — the readings, carrying the config fingerprint
//	u32  crc32-IEEE over all preceding bytes
const (
	replMagic     = uint32(0x4f445250) // "ODRP"
	replHeaderLen = 20
)

var (
	errReplFrame = errors.New("serve: replicate: bad frame")
)

// appendReplFrame encodes a replication frame appended to dst.
func appendReplFrame(dst []byte, shard int, fromSeq uint64, readings []Reading, dim int, fp uint64) []byte {
	w := binfmt.Writer{B: dst}
	w.U32(replMagic)
	w.U8(wireVersion)
	w.U8(0)
	w.U16(0)
	w.U32(uint32(shard))
	w.U64(fromSeq)
	return binfmt.SealCRC(AppendBatch(w.B, readings, dim, fp), len(dst))
}

// decodeReplFrame splits a replication frame into (shard, fromSeq, inner
// ODWB frame). The inner frame still needs DecodeBatchInto, which is
// where the config fingerprint is enforced.
func decodeReplFrame(data []byte) (shard int, fromSeq uint64, inner []byte, err error) {
	body, err := openFrame(data, replMagic, replHeaderLen)
	if err == nil {
		r := binfmt.NewReader(body[5:])
		if r.U8() != 0 || r.U16() != 0 {
			r.Fail(errFrameReserved)
		}
		shard, fromSeq, inner = int(r.U32()), r.U64(), r.Rest()
		err = r.Err()
	}
	if err != nil {
		return 0, 0, nil, fmt.Errorf("%w: %v", errReplFrame, err)
	}
	return shard, fromSeq, inner, nil
}

// replBatch is one forwarded sub-batch (readings are replicator-owned
// copies — the primary's pooled buffers are recycled after its reply).
type replBatch struct {
	from     uint64
	readings []Reading
}

// replicator ships one primary shard's applied batches to a follower
// node. forward is called from the shard goroutine; shipping happens on
// the replicator's own goroutine so a slow follower never blocks the
// primary — a backed-up queue breaks the link instead (fail closed).
type replicator struct {
	shard    int
	follower Client
	dim      int
	fp       uint64

	ch       chan replBatch
	stopc    chan struct{}
	done     chan struct{}
	stopOnce sync.Once

	broken  atomic.Bool
	shipped atomic.Uint64 // batches acknowledged by the follower
}

func newReplicator(shard int, follower Client, dim int, fp uint64) *replicator {
	r := &replicator{
		shard:    shard,
		follower: follower,
		dim:      dim,
		fp:       fp,
		ch:       make(chan replBatch, 64),
		stopc:    make(chan struct{}),
		done:     make(chan struct{}),
	}
	go r.run()
	return r
}

// forward copies the batch and queues it for shipping. Called from the
// shard goroutine after the batch has been applied locally.
func (r *replicator) forward(fromSeq uint64, batch []Reading) {
	if r.broken.Load() {
		return
	}
	// One backing array for the whole batch's values, not one per reading.
	cp := make([]Reading, len(batch))
	flat := make([]float64, 0, len(batch)*r.dim)
	for i := range batch {
		at := len(flat)
		flat = append(flat, batch[i].Value...)
		cp[i] = Reading{Sensor: batch[i].Sensor, Value: flat[at:len(flat):len(flat)]}
	}
	select {
	case r.ch <- replBatch{from: fromSeq, readings: cp}:
	default:
		// Dropping a batch would break contiguity anyway; break the link
		// now so the follower stays frozen at a consistent prefix.
		r.broken.Store(true)
	}
}

func (r *replicator) run() {
	defer close(r.done)
	var buf []byte
	for {
		select {
		case <-r.stopc:
			return
		case b := <-r.ch:
			if r.broken.Load() {
				continue
			}
			buf = appendReplFrame(buf[:0], r.shard, b.from, b.readings, r.dim, r.fp)
			if err := r.follower.Replicate(buf); err != nil {
				r.broken.Store(true)
				continue
			}
			r.shipped.Add(1)
		}
	}
}

func (r *replicator) stop() {
	r.stopOnce.Do(func() { close(r.stopc) })
	<-r.done
}

// stats reports the link as /stats shows it, a nil replicator being a shard
// with no follower; safe from any goroutine.
func (r *replicator) stats() *ReplicationStats {
	if r == nil {
		return &ReplicationStats{State: "none"}
	}
	st := &ReplicationStats{State: "ok", ShippedBatches: r.shipped.Load()}
	if r.broken.Load() {
		st.State = "broken"
	}
	return st
}

// handleReplicate is the follower side, in handleIngest's shape: the body,
// the decoded batch and the ack live in pooled scratch, so a frame costs
// the follower no allocation of its own.
func (s *Server) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodPost) {
		return
	}
	sc := s.getScratch()
	body, err := readAllInto(sc.body, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	sc.body = body
	status := http.StatusBadRequest
	if err == nil {
		status, err = s.applyReplFrame(sc)
	}
	if err != nil {
		// A shard call that failed may leave its reply in the pooled
		// channel; an error can afford the fresh scratch dropping this one
		// costs the next request.
		WriteErr(w, status, err)
		return
	}
	// The shard has replied, so nothing refers to the batch any more.
	WriteBody(w, status, "application/json", sc.out)
	s.scratch.Put(sc)
}

// applyReplFrame decodes the ODRP frame in sc.body, enforces the config
// fingerprint (fail closed, same check as snapshot restore), applies the
// batch through the shard mailbox, where role and contiguity are checked,
// and leaves the ack in sc.out. A failure comes with its HTTP status.
func (s *Server) applyReplFrame(sc *ingestScratch) (int, error) {
	shard, fromSeq, inner, err := decodeReplFrame(sc.body)
	if err != nil {
		return http.StatusBadRequest, err
	}
	readings, err := DecodeBatchInto(inner, sc.readings, s.cfg.Pipeline.Core.Dim, s.cfg.MaxBatch, s.wireFP, &s.names)
	if err != nil {
		return IngestDecodeStatus(err), err
	}
	sc.readings = readings

	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return http.StatusServiceUnavailable, errServerClosed
	}
	if shard < 0 || shard >= len(s.shards) || s.shards[shard] == nil {
		return http.StatusNotFound, fmt.Errorf("%w: shard %d", errWrongNode, shard)
	}
	resp, err := s.shards[shard].call(shardReq{op: opReplicate, batch: readings, fromSeq: fromSeq, reply: sc.route.replies[shard]})
	switch {
	case errors.Is(err, errNotReplica), errors.Is(err, errReplGap):
		return http.StatusConflict, err
	case err != nil:
		return http.StatusServiceUnavailable, err
	}
	// The ack, as json.Encoder wrote map[string]uint64{"seq": n}.
	sc.out = append(strconv.AppendUint(append(sc.out[:0], `{"seq":`...), resp.seq, 10), "}\n"...)
	return http.StatusOK, nil
}
