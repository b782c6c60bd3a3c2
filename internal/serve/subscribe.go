package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
)

// Streaming outlier subscriptions. Polling /query/outlier is the wrong
// service model for fleets of dashboards — the push model of in-network
// detection (Branch et al.) inverted to datacenter scale: a subscriber
// opens GET /subscribe and the server pushes every matching verdict as
// soon as the ingest request that produced it has been applied: the
// request's events become visible together, before its reply is written.
//
// The fan-out discipline protects the ingest hot path absolutely: each
// subscriber owns a bounded ring; a shard publishing a sub-batch's
// verdicts takes the subscriber's mutex once (contended only by another
// shard's publish or the subscriber's own drain), filters and stores the
// whole sub-batch, marks the subscriber, and moves on. The request wakes
// each marked stream once, after its last sub-batch (subHub.wake); only a
// ring at least half full wakes its stream at once. A slow subscriber
// loses the oldest events — counted and reported as a gap record on its
// own stream — and can never backpressure a shard goroutine.

// Event is one pushed verdict.
type Event struct {
	Sensor  string
	Shard   int
	Seq     uint64
	Outlier bool
	Warmed  bool
}

// subscriber is one /subscribe connection's state: a fixed-capacity ring
// written by shard goroutines and drained by the connection handler.
type subscriber struct {
	hub *subHub

	// Immutable filters, set at registration.
	sensors     map[string]struct{} // nil = every sensor
	outlierOnly bool

	notify chan struct{} // capacity 1: coalesced wake-up
	marked atomic.Bool   // holds events no wake-up has announced yet

	mu      sync.Mutex
	ring    []Event
	start   int
	n       int
	dropped uint64 // drops since the last drain, reported as a gap record
}

// offerBatch publishes one shard's sub-batch — verdicts[i] judged
// batch[i] — under a single lock: each event that passes the filters is
// stored, dropping the oldest if the subscriber is behind, so a sub-batch
// longer than the ring leaves its newest len(ring) events. If something
// was stored the subscriber is marked for the request's subHub.wake, or,
// when the ring is now at least half full, its stream is woken at once so
// a request longer than the ring drains no worse than per sub-batch.
// Never blocks, never allocates.
func (sub *subscriber) offerBatch(shard int, batch []Reading, verdicts []Verdict) {
	stored := false
	var dropped uint64
	sub.mu.Lock()
	for i := range batch {
		v := &verdicts[i]
		if sub.outlierOnly && !v.Outlier {
			continue
		}
		if sub.sensors != nil {
			if _, ok := sub.sensors[batch[i].Sensor]; !ok {
				continue
			}
		}
		if sub.n == len(sub.ring) {
			sub.start++
			if sub.start == len(sub.ring) {
				sub.start = 0
			}
			sub.n--
			dropped++
		}
		k := sub.start + sub.n
		if k >= len(sub.ring) {
			k -= len(sub.ring)
		}
		sub.ring[k] = Event{
			Sensor:  batch[i].Sensor,
			Shard:   shard,
			Seq:     v.Seq,
			Outlier: v.Outlier,
			Warmed:  v.Warmed,
		}
		sub.n++
		stored = true
	}
	sub.dropped += dropped
	halfFull := 2*sub.n >= len(sub.ring)
	sub.mu.Unlock()
	if dropped > 0 {
		sub.hub.dropped.Add(dropped)
	}
	switch {
	case !stored:
	case halfFull:
		select {
		case sub.notify <- struct{}{}:
		default: // a wake-up is already pending
		}
	default:
		sub.marked.Store(true)
	}
}

// drain moves all buffered events into dst and resets the gap counter,
// returning how many events were dropped before the first one in dst.
func (sub *subscriber) drain(dst []Event) ([]Event, uint64) {
	sub.mu.Lock()
	if end := sub.start + sub.n; end <= len(sub.ring) {
		dst = append(dst, sub.ring[sub.start:end]...)
	} else {
		dst = append(dst, sub.ring[sub.start:]...)
		dst = append(dst, sub.ring[:end-len(sub.ring)]...)
	}
	sub.start, sub.n = 0, 0
	d := sub.dropped
	sub.dropped = 0
	sub.mu.Unlock()
	return dst, d
}

// subHub fans shard verdicts out to the registered subscribers.
type subHub struct {
	// subs is the registered set, copy-on-write: add and remove store a
	// fresh slice under reg, a publisher loads the pointer and ranges over
	// what it got. A publisher that loaded the slice just before a remove
	// may still write one sub-batch into the departed subscriber's ring;
	// nobody drains it and it is collected with the subscriber.
	subs atomic.Pointer[[]*subscriber]
	reg  sync.Mutex // serialises add and remove; publishers never take it

	dropped atomic.Uint64 // total ring drops across all subscribers

	done      chan struct{} // closed on server shutdown; ends every stream
	closeOnce sync.Once
}

func newSubHub() *subHub {
	return &subHub{done: make(chan struct{})}
}

// registered is the current subscriber set; callers must not modify it.
func (h *subHub) registered() []*subscriber {
	if subs := h.subs.Load(); subs != nil {
		return *subs
	}
	return nil
}

// publishBatch fans one shard's sub-batch out; verdicts[i] judged
// batch[i]. With no subscribers this is a single atomic load — the shard
// hot path stays zero-cost and zero-alloc.
func (h *subHub) publishBatch(shard int, batch []Reading, verdicts []Verdict) {
	for _, sub := range h.registered() {
		sub.offerBatch(shard, batch, verdicts)
	}
}

// wake wakes each subscriber that offerBatch marked, once. The ingest
// path defers it, so a request wakes a stream after its last sub-batch
// is applied rather than once per shard. With no subscribers this is a
// single atomic load.
func (h *subHub) wake() {
	for _, sub := range h.registered() {
		if sub.marked.Load() && sub.marked.Swap(false) {
			select {
			case sub.notify <- struct{}{}:
			default: // a wake-up is already pending
			}
		}
	}
}

func (h *subHub) add(sub *subscriber) {
	h.reg.Lock()
	defer h.reg.Unlock()
	cur := h.registered()
	next := append(cur[:len(cur):len(cur)], sub)
	h.subs.Store(&next)
}

func (h *subHub) remove(sub *subscriber) {
	h.reg.Lock()
	defer h.reg.Unlock()
	var next []*subscriber
	for _, s := range h.registered() {
		if s != sub {
			next = append(next, s)
		}
	}
	h.subs.Store(&next)
}

// shutdown ends every stream; subscribers drain what their rings still
// hold and then their handlers return.
func (h *subHub) shutdown() {
	h.closeOnce.Do(func() { close(h.done) })
}

func (h *subHub) subscribers() int { return len(h.registered()) }

// SubscribeQuery is the /subscribe query vocabulary, typed: the server
// parses it, Client.Subscribe encodes it, and the cluster router does both.
type SubscribeQuery struct {
	Sensors     []string // nil = every sensor
	OutlierOnly bool
	Binary      bool // ODWS frames to the requester instead of SSE
}

// ParseSubscribeQuery validates sensors=a,b&only=outlier&format=sse|binary.
func ParseSubscribeQuery(v url.Values) (SubscribeQuery, error) {
	var q SubscribeQuery
	switch v.Get("only") {
	case "":
	case "outlier":
		q.OutlierOnly = true
	default:
		return q, fmt.Errorf("only must be empty or %q", "outlier")
	}
	switch v.Get("format") {
	case "", "sse":
	case "binary":
		q.Binary = true
	default:
		return q, fmt.Errorf("format must be sse or binary")
	}
	if raw := v.Get("sensors"); raw != "" {
		for _, name := range strings.Split(raw, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				return q, fmt.Errorf("empty sensor id in sensors list")
			}
			q.Sensors = append(q.Sensors, name)
		}
	}
	return q, nil
}

// StreamWriter renders verdict and gap records onto one /subscribe
// response, as SSE or as ODWS binary frames: records accumulate in a
// reused buffer and Flush puts them on the wire in one write.
type StreamWriter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	binary  bool
	out     []byte
}

// StartStream commits w to a stream: status 200, the content type, and for
// a binary stream the ODWS header. A connection that cannot stream is
// answered 500 and nil is returned.
func StartStream(w http.ResponseWriter, binary bool) *StreamWriter {
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by connection"))
		return nil
	}
	sw := &StreamWriter{w: w, flusher: flusher, binary: binary}
	if binary {
		w.Header().Set("Content-Type", ContentTypeStream)
		sw.out = AppendStreamHeader(sw.out)
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if sw.Flush() != nil {
		return nil
	}
	return sw
}

// Gap buffers a record of n events lost before the next verdict.
func (sw *StreamWriter) Gap(n uint64) {
	if sw.binary {
		sw.out = AppendGapFrame(sw.out, n)
	} else {
		sw.out = fmt.Appendf(sw.out, "event: gap\ndata: {\"dropped\":%d}\n\n", n)
	}
}

// Verdict buffers one verdict event. An SSE event's data is JSON (its
// "exact" key is always false, as in every JSON reply): the
// sensor id, any 1–255 bytes on the binary wire, is written with
// encoding/json's escaping (\u0001 for a control byte, \ufffd for a byte
// that is not UTF-8).
func (sw *StreamWriter) Verdict(ev Event) {
	if sw.binary {
		sw.out = AppendVerdictFrame(sw.out, ev)
	} else {
		sensor, _ := json.Marshal(ev.Sensor) // a string always marshals
		sw.out = fmt.Appendf(sw.out,
			"event: verdict\ndata: {\"sensor\":%s,\"shard\":%d,\"seq\":%d,\"outlier\":%t,\"exact\":false,\"warmed\":%t}\n\n",
			sensor, ev.Shard, ev.Seq, ev.Outlier, ev.Warmed)
	}
}

// Flush writes the buffered records and flushes the connection.
func (sw *StreamWriter) Flush() error {
	_, err := sw.w.Write(sw.out)
	sw.out = sw.out[:0]
	sw.flusher.Flush()
	return err
}

// handleSubscribe serves GET /subscribe?sensors=a,b&only=outlier&format=sse|binary:
// a long-lived stream of verdict events for the selected sensors
// (default: all sensors, all verdicts), as SSE (default) or ODWS binary
// frames. Slow consumers get drop-oldest semantics with an explicit gap
// record; disconnect or server shutdown ends the stream cleanly.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	q, err := ParseSubscribeQuery(r.URL.Query())
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	var sensors map[string]struct{}
	if q.Sensors != nil {
		sensors = make(map[string]struct{}, len(q.Sensors))
		for _, name := range q.Sensors {
			sensors[name] = struct{}{}
		}
	}

	sub := &subscriber{
		hub:         s.hub,
		sensors:     sensors,
		outlierOnly: q.OutlierOnly,
		notify:      make(chan struct{}, 1),
		ring:        make([]Event, s.cfg.SubscribeBuffer),
	}
	// Registration excludes shutdown (s.mu), so a stream can never attach
	// to a hub whose done channel it missed.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		WriteErr(w, http.StatusServiceUnavailable, errServerClosed)
		return
	}
	s.hub.add(sub)
	s.mu.RUnlock()
	defer s.hub.remove(sub)

	sw := StartStream(w, q.Binary)
	if sw == nil {
		return
	}

	var events []Event
	flush := func() bool {
		var gap uint64
		events, gap = sub.drain(events[:0])
		if gap == 0 && len(events) == 0 {
			return true
		}
		if gap > 0 {
			// Dropped events are older than everything in the ring, so
			// the gap record precedes the drained events.
			sw.Gap(gap)
		}
		for _, ev := range events {
			sw.Verdict(ev)
		}
		return sw.Flush() == nil
	}

	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.hub.done:
			flush() // deliver what the ring still holds, then end the stream
			return
		case <-sub.notify:
			if !flush() {
				return
			}
		}
	}
}
