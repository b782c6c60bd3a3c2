package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"odds/internal/serve"
)

// Served-verdict flags, one byte per stream position.
const (
	flagSeen    = 1 << iota // a verdict was served for this reading
	flagOutlier             // Verdict.Outlier
	flagExact               // Verdict.Exact
	flagWarmed              // Verdict.Warmed
	// flagUnseen marks a reading the stack applied but never answered (its
	// reply died with a killed node and the replica had already taken it):
	// the twin ingests it and compares nothing.
	flagUnseen
)

// retryBackoff paces re-sends of refused sub-batches; maxAttempts bounds
// them, so a stack that never recovers fails the run instead of hanging it.
const (
	retryBackoff = time.Millisecond
	maxAttempts  = 3000
)

// queryRec is one served read and where in the connection's stream it
// happened, so the twin can answer it from the same state. It holds no
// pointers: the records are kept off the Go heap.
type queryRec struct {
	pos    int // readings of this connection accepted before the read
	prob   bool
	sensor int // index into connInput.sensors
	value  float64
	got    serve.QueryResponse
	gotP   float64
}

// client is one of the benchmark's connections: a single persistent HTTP
// connection that delivers its pre-encoded frames in order, re-sends what
// the stack refuses (in order, before anything newer for the same shard),
// and keeps every served verdict for the twin check.
type client struct {
	id  int
	in  *input
	ci  *connInput
	hc  *http.Client
	url string

	// mu is held across every round trip. A failover or restore takes it
	// to park the connection while shard cursors move under it.
	mu sync.Mutex

	rank   []int    // rank[i]: how many earlier sensors of the period share sensors[i]'s shard
	next   int      // stream position of the next frame's first reading
	maxSeq []uint64 // per shard: highest sequence number accepted so far
	flags  []byte

	queries []queryRec
	qrng    *rand.Rand

	accepted   atomic.Int64 // readings accepted, read by the window sampler
	offered    int64        // readings sent at least once
	resent     int64        // readings re-sent after a refusal or a rewind
	refusedSub int64        // refused replies (whole or partial)
	transport  int64        // round trips lost to transport errors or 5xx
	mismatches int64        // served results that contradict the stream order
	lost       int64        // readings given up on
	firstDiff  string

	// watch and watchRefused, when armed for a shard, receive the time of
	// its next accepted reading and of its next refused sub-batch (recovery
	// and migration timing).
	watch        map[int]*time.Time
	watchRefused map[int]*time.Time

	// The traced run's hooks. send replaces the HTTP round trip when set
	// (direct calls into the layers under the handler). While traced is
	// set, each delivered frame leaves a client.rtt span in spans and its
	// request carries ordinal spanK, so the handler wrapper can attribute
	// its own spans to it.
	send   func(body []byte) ([]serve.ReadingResult, error)
	spans  *recorder
	spanK  int
	traced bool

	// Scratch reused across round trips.
	respBuf  []byte
	results  []serve.ReadingResult
	jsonResp serve.IngestResponse
	decoded  []serve.Reading
	decodedF int
	names    serve.Interner
	retryRd  []serve.Reading
	retryVal []float64
	encBuf   []byte
	framePos []int
}

func newClient(id int, in *input, url string, seed int64) (*client, error) {
	ci := &in.conns[id]
	// One flag per reading and room for every read the frames can bring
	// with them, off the Go heap and never grown (offheap_unix.go).
	flags, err := offheap[byte](ci.frames() * in.w.batch)
	if err != nil {
		return nil, err
	}
	queries, err := offheap[queryRec](ci.frames() * max(in.w.reads, 1))
	if err != nil {
		release(flags)
		return nil, err
	}
	c := &client{
		id: id, in: in, ci: ci, url: url,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		}},
		maxSeq:   make([]uint64, in.w.shards),
		flags:    flags,
		queries:  queries[:0],
		qrng:     rand.New(rand.NewSource(seed ^ int64(0x9e37*(id+1)))),
		decodedF: -1,
		framePos: make([]int, in.w.batch),
	}
	c.rank = make([]int, len(ci.sensors))
	seen := make([]int, in.w.shards)
	for i, s := range ci.shard {
		c.rank[i] = seen[s]
		seen[s]++
	}
	return c, nil
}

func (c *client) close() {
	c.hc.CloseIdleConnections()
	release(c.flags)
	release(c.queries)
	c.flags, c.queries = nil, nil
}

// ordinal is the per-shard sequence number stream position pos must be
// served under: arrival order per shard is the stream order.
func (c *client) ordinal(pos int) uint64 {
	period := len(c.ci.sensors)
	i := pos % period
	return uint64(pos/period*len(c.ci.pos[c.ci.shard[i]]) + c.rank[i] + 1)
}

// framesLeft is how many unsent frames remain.
func (c *client) framesLeft() int { return c.ci.frames() - c.next/c.in.w.batch }

// readingAt decodes the frame holding stream position pos (cached).
func (c *client) readingAt(pos int) (serve.Reading, error) {
	f := pos / c.in.w.batch
	if f != c.decodedF {
		rd, err := c.in.decodeFrame(c.ci.frame(f), c.decoded, &c.names)
		if err != nil {
			return serve.Reading{}, fmt.Errorf("conn %d: own frame %d: %w", c.id, f, err)
		}
		c.decoded, c.decodedF = rd, f
	}
	return c.decoded[pos%c.in.w.batch], nil
}

// post is one /ingest round trip. A transport failure or a non-ingest
// status comes back as err; the caller treats the whole body as refused.
func (c *client) post(body []byte) ([]serve.ReadingResult, error) {
	ct := serve.ContentTypeBinary
	if c.in.w.json {
		ct = "application/json"
	}
	req, err := http.NewRequest(http.MethodPost, c.url+"/ingest", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ct)
	if c.traced {
		req.Header.Set(spanHeader, strconv.Itoa(c.id)+"/"+strconv.Itoa(c.spanK))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("ingest status %d: %s", resp.StatusCode, msg)
	}
	if c.in.w.json {
		c.jsonResp.Results = c.jsonResp.Results[:0]
		if err := json.NewDecoder(resp.Body).Decode(&c.jsonResp); err != nil {
			return nil, err
		}
		_, _ = io.Copy(io.Discard, resp.Body) // trailing newline; keeps the connection reusable
		return c.jsonResp.Results, nil
	}
	c.respBuf, err = readInto(c.respBuf, resp.Body)
	if err != nil {
		return nil, err
	}
	c.results, _, _, err = serve.DecodeResultsInto(c.respBuf, c.results[:0])
	return c.results, err
}

// readInto is io.ReadAll into a reused buffer.
func readInto(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// record stores one accepted result after checking it against the stream
// order the seed fixes.
func (c *client) record(pos int, res serve.ReadingResult, now time.Time) {
	s := c.ci.shardAt(pos)
	want := c.ordinal(pos)
	if res.Shard != s || res.Seq != want {
		c.mismatches++
		if c.firstDiff == "" {
			c.firstDiff = fmt.Sprintf("conn %d pos %d: served shard %d seq %d, stream order says shard %d seq %d",
				c.id, pos, res.Shard, res.Seq, s, want)
		}
		return
	}
	f := byte(flagSeen)
	if res.Outlier {
		f |= flagOutlier
	}
	if res.Exact {
		f |= flagExact
	}
	if res.Warmed {
		f |= flagWarmed
	}
	c.flags[pos] = f
	if want > c.maxSeq[s] {
		c.maxSeq[s] = want
		c.accepted.Add(1)
	}
	if t := c.watch[s]; t != nil && t.IsZero() {
		*t = now
	}
}

// attempt sends the readings at positions once (body, when non-nil, is
// their pre-encoded frame), records what was accepted and returns the
// positions still to be sent. The caller holds c.mu.
func (c *client) attempt(positions []int, body []byte) (keep []int, sendErr, fatal error) {
	if body == nil {
		c.retryRd, c.retryVal = c.retryRd[:0], c.retryVal[:0]
		for _, pos := range positions {
			rd, err := c.readingAt(pos)
			if err != nil {
				return nil, nil, err
			}
			// The positions may span frames, and decoding the next frame
			// reuses the storage rd.Value points into: keep a copy.
			n := len(c.retryVal)
			c.retryVal = append(c.retryVal, rd.Value...)
			rd.Value = c.retryVal[n:len(c.retryVal):len(c.retryVal)]
			c.retryRd = append(c.retryRd, rd)
		}
		var err error
		if c.encBuf, err = c.in.encode(c.encBuf, c.retryRd); err != nil {
			return nil, nil, err
		}
		body = c.encBuf
		c.resent += int64(len(positions))
	}
	send := c.post
	if c.send != nil {
		send = c.send
	}
	results, sendErr := send(body)
	now := time.Now()
	switch {
	case sendErr != nil:
		c.transport++
		keep = append(keep, positions...)
	case len(results) != len(positions):
		return nil, nil, fmt.Errorf("conn %d: %d results for %d readings", c.id, len(results), len(positions))
	default:
		for i, res := range results {
			if res.Accepted {
				c.record(positions[i], res, now)
			} else {
				keep = append(keep, positions[i])
				if t := c.watchRefused[c.ci.shardAt(positions[i])]; t != nil && t.IsZero() {
					*t = now
				}
			}
		}
		if len(keep) > 0 {
			c.refusedSub++
		}
	}
	return keep, sendErr, nil
}

// deliver sends the readings at positions and keeps re-sending whatever
// is refused until all of it is accepted. Whole per-shard sub-batches are
// refused atomically, so re-sending the refused readings in their original
// order keeps every shard's arrival order intact. locked says the caller
// already holds c.mu (a resync re-sending a lost tail).
func (c *client) deliver(positions []int, body []byte, locked bool) error {
	left := positions
	for attempts := 1; ; attempts++ {
		if !locked {
			c.mu.Lock()
		}
		// A resync may have moved a shard's cursor past readings still
		// queued here (the promoted replica already had them): those are done.
		n := 0
		for _, pos := range left {
			if c.ordinal(pos) > c.maxSeq[c.ci.shardAt(pos)] {
				left[n] = pos
				n++
			}
		}
		if n < len(left) {
			left, body = left[:n], nil
		}
		var (
			sendErr, fatal error
		)
		if len(left) > 0 {
			left, sendErr, fatal = c.attempt(left, body)
		}
		if !locked {
			c.mu.Unlock()
		}
		if fatal != nil {
			return fatal
		}
		if len(left) == 0 {
			return nil
		}
		if attempts >= maxAttempts {
			c.lost += int64(len(left))
			return fmt.Errorf("conn %d: %d readings still refused after %d attempts (last error: %v)", c.id, len(left), attempts, sendErr)
		}
		body = nil
		time.Sleep(retryBackoff)
	}
}

// deliverNext delivers the next pre-encoded frame.
func (c *client) deliverNext() error {
	n := c.in.w.batch
	for i := range c.framePos {
		c.framePos[i] = c.next + i
	}
	c.offered += int64(n)
	t0 := time.Now()
	if err := c.deliver(c.framePos, c.ci.frame(c.next/n), false); err != nil {
		return err
	}
	if c.traced {
		c.spans.add("client.rtt", c.id, c.spanK, t0, time.Now())
	}
	c.next += n
	return nil
}

// reads issues the workload's interleaved reads (none for most workloads).
func (c *client) reads() error {
	for q := 0; q < c.in.w.reads; q++ {
		if _, err := c.read(q%2 == 1); err != nil {
			return err
		}
	}
	return nil
}

// sendFrame is one closed-loop step: an ingest batch, then its reads.
func (c *client) sendFrame() error {
	if err := c.deliverNext(); err != nil {
		return err
	}
	return c.reads()
}

// read issues one GET /query/outlier or /query/prob against a sensor of
// this connection and records the answer for the twin.
func (c *client) read(prob bool) (time.Duration, error) {
	rec := queryRec{
		pos:    c.next,
		prob:   prob,
		sensor: c.qrng.Intn(len(c.ci.sensors)),
		value:  0.2 + 0.4*c.qrng.Float64(),
	}
	path := "/query/outlier"
	if prob {
		path = "/query/prob"
	}
	u := c.url + path + "?sensor=" + c.ci.sensors[rec.sensor] + "&v=" + strconv.FormatFloat(rec.value, 'g', -1, 64)
	if prob {
		u += "&r=0.01"
	}
	t0 := time.Now()
	c.mu.Lock()
	resp, err := c.hc.Get(u)
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return 0, fmt.Errorf("conn %d: %s: status %d: %s", c.id, path, resp.StatusCode, msg)
	}
	if prob {
		var pr serve.ProbResponse
		err = json.NewDecoder(resp.Body).Decode(&pr)
		rec.gotP = pr.Prob
	} else {
		err = json.NewDecoder(resp.Body).Decode(&rec.got)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, err
	}
	c.queries = append(c.queries, rec)
	return time.Since(t0), nil
}

// resync aligns the connection with the stack after a restore or a
// promotion moved a shard's arrival count: readings the stack lost are
// sent again (and must be served the same verdicts), readings it holds but
// never answered are marked unseen. The caller holds c.mu.
func (c *client) resync(s int, arrivals uint64) (rewound []int) {
	have := c.maxSeq[s]
	switch {
	case arrivals < have:
		for q := arrivals + 1; q <= have; q++ {
			rewound = append(rewound, c.ci.position(s, q))
		}
	case arrivals > have:
		for q := have + 1; q <= arrivals; q++ {
			c.flags[c.ci.position(s, q)] = flagUnseen
		}
		c.accepted.Add(int64(arrivals - have))
	}
	c.maxSeq[s] = arrivals
	return rewound
}

// redeliver re-sends rewound readings in stream order, a batch at a time.
// The caller holds c.mu.
func (c *client) redeliver(positions []int) error {
	for len(positions) > 0 {
		n := c.in.w.batch
		if n > len(positions) {
			n = len(positions)
		}
		if err := c.deliver(positions[:n], nil, true); err != nil {
			return err
		}
		positions = positions[n:]
	}
	return nil
}
