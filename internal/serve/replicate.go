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
// chain. After a primary shard applies an ingest sub-batch, it forwards the
// readings and its estimate verdict bits to its follower node as an ODRP
// frame; the follower folds them in through the same single-writer
// mailbox (Pipeline.Apply: the primary's bits stand in for the estimate
// query), enforcing sequence contiguity so the replica is always a
// bit-exact prefix of the primary.
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
//	u8   version (2)
//	u8   reserved (0)
//	u16  reserved (0)
//	u32  shard        — global shard id
//	u64  fromSeq      — pipeline seq of the first reading in the batch
//	u32  ⌈n/8⌉, then that many bytes: the primary's estimate verdicts, bit
//	     i%8 of byte i/8 set when reading i was an outlier, pad bits zero
//	ODWB batch frame  — the n readings, carrying the config fingerprint
//	u32  crc32-IEEE over all preceding bytes
//
// A version-1 frame carries no verdict bits and is refused, as are a
// bitmap whose length is not ⌈n/8⌉ and a set pad bit: no encoder writes
// them, and a follower never guesses a bit.
const (
	replMagic     = uint32(0x4f445250) // "ODRP"
	replVersion   = byte(2)
	replHeaderLen = 20
)

var (
	errReplFrame = errors.New("serve: replicate: bad frame")
)

// appendReplFrame encodes a replication frame appended to dst; verdicts[i]
// is readings[i]'s verdict on the primary, and only its Outlier bit ships.
func appendReplFrame(dst []byte, shard int, fromSeq uint64, readings []Reading, verdicts []Verdict, dim int, fp uint64) []byte {
	w := binfmt.Writer{B: dst}
	w.U32(replMagic)
	w.U8(replVersion)
	w.U8(0)
	w.U16(0)
	w.U32(uint32(shard))
	w.U64(fromSeq)
	w.U32(uint32((len(verdicts) + 7) / 8))
	for i := 0; i < len(verdicts); i += 8 {
		var bits byte
		for j, v := range verdicts[i:min(i+8, len(verdicts))] {
			if v.Outlier {
				bits |= 1 << j
			}
		}
		w.U8(bits)
	}
	return binfmt.SealCRC(AppendBatch(w.B, readings, dim, fp), len(dst))
}

// replFrameLen is the length of readings' replication frame.
func replFrameLen(readings []Reading, dim int) int {
	n := replHeaderLen + 4 + (len(readings)+7)/8 + wireBatchHeaderLen + 4 + 4
	for i := range readings {
		n += 2 + len(readings[i].Sensor) + 8*dim
	}
	return n
}

// replFrame is one decoded replication frame. outliers aliases the frame's
// bytes and readings the caller's buffer.
type replFrame struct {
	shard    int
	fromSeq  uint64
	outliers []byte
	readings []Reading
}

// outlierBit reads reading i's bit from a frame's verdict bitmap.
func outlierBit(bits []byte, i int) bool { return bits[i>>3]&(1<<(i&7)) != 0 }

// decodeReplFrame decodes a replication frame, the readings into dst under
// DecodeBatchInto's rules (reuse, interning, the config fingerprint). It
// fails closed on a version-1 frame, a bitmap that is not ⌈n/8⌉ bytes for
// the n readings, and a set pad bit.
func decodeReplFrame(data []byte, dst []Reading, dim, maxBatch int, fp uint64, names *Interner) (replFrame, error) {
	fail := func(err error) (replFrame, error) { return replFrame{}, fmt.Errorf("%w: %v", errReplFrame, err) }
	body, err := openFrame(data, replMagic, replVersion, replHeaderLen)
	if err != nil {
		return fail(err)
	}
	r := binfmt.NewReader(body[5:])
	if r.U8() != 0 || r.U16() != 0 {
		r.Fail(errFrameReserved)
	}
	f := replFrame{shard: int(r.U32()), fromSeq: r.U64(), outliers: r.Bytes()}
	inner := r.Rest()
	if err := r.Err(); err != nil {
		return fail(err)
	}
	if f.readings, err = DecodeBatchInto(inner, dst, dim, maxBatch, fp, names); err != nil {
		return replFrame{}, err
	}
	switch n := len(f.readings); {
	case len(f.outliers) != (n+7)/8:
		return fail(fmt.Errorf("%d-byte verdict bitmap for %d readings", len(f.outliers), n))
	case n%8 != 0 && f.outliers[n/8]>>(n%8) != 0:
		return fail(errors.New("verdict bitmap pad bit set"))
	}
	return f, nil
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

	ch       chan []byte // encoded frames, each the replicator's own
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
		ch:       make(chan []byte, 64),
		stopc:    make(chan struct{}),
		done:     make(chan struct{}),
	}
	go r.run()
	return r
}

// forward encodes the batch and its verdict bits as one frame and queues
// it for shipping. Called from the shard goroutine after the batch has
// been applied locally; the frame is the one allocation, and holds its own
// copy of everything, since the caller's pooled buffers are recycled after
// its reply.
func (r *replicator) forward(fromSeq uint64, batch []Reading, verdicts []Verdict) {
	if r.broken.Load() {
		return
	}
	frame := appendReplFrame(make([]byte, 0, replFrameLen(batch, r.dim)), r.shard, fromSeq, batch, verdicts, r.dim, r.fp)
	select {
	case r.ch <- frame:
	default:
		// Dropping a batch would break contiguity anyway; break the link
		// now so the follower stays frozen at a consistent prefix.
		r.broken.Store(true)
	}
}

func (r *replicator) run() {
	defer close(r.done)
	for {
		select {
		case <-r.stopc:
			return
		case frame := <-r.ch:
			if r.broken.Load() {
				continue
			}
			if err := r.follower.Replicate(frame); err != nil {
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
	var status int
	if err != nil {
		status = IngestDecodeStatus(err)
	} else {
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

// applyReplFrame decodes the ODRP frame in sc.body, enforcing the config
// fingerprint (fail closed, same check as snapshot restore) and the verdict
// bitmap's shape, applies the batch through the shard mailbox, where role
// and contiguity are checked, and leaves the ack in sc.out. A failure comes
// with its HTTP status; a refused frame reaches no mailbox.
func (s *Server) applyReplFrame(sc *ingestScratch) (int, error) {
	f, err := decodeReplFrame(sc.body, sc.readings, s.cfg.Pipeline.Core.Dim, s.cfg.MaxBatch, s.wireFP, &s.names)
	if err != nil {
		return IngestDecodeStatus(err), err
	}
	sc.readings = f.readings

	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return http.StatusServiceUnavailable, errServerClosed
	}
	if f.shard < 0 || f.shard >= len(s.shards) || s.shards[f.shard] == nil {
		return http.StatusNotFound, fmt.Errorf("%w: shard %d", errWrongNode, f.shard)
	}
	// The primary's bits travel as the envelope's verdicts, Outlier only,
	// in the scratch buffer an ingest of this shard would use.
	verdicts := growVerdicts(sc.route.verdicts[f.shard], len(f.readings))
	for i := range verdicts {
		verdicts[i] = Verdict{Outlier: outlierBit(f.outliers, i)}
	}
	sc.route.verdicts[f.shard] = verdicts
	resp, err := s.shards[f.shard].call(shardReq{op: opReplicate, batch: f.readings, verdicts: verdicts, fromSeq: f.fromSeq, reply: sc.route.replies[f.shard]})
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
