package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"odds/internal/serve"
)

// Subscription fan-in: a /subscribe client attached to the router gets
// one merged verdict stream spanning every node, surviving shard
// migration without silent loss or duplicates.
//
// Per-shard sequence numbers make this possible: verdict seqs are
// assigned by the shard pipeline, which is bit-identical wherever the
// shard is hosted, so the router can run a per-shard sequencer over the
// merged node streams:
//
//   - first event ever seen for a shard: baseline (deliver, no gap) —
//     the subscription accounts only for what happened while attached;
//   - seq == last+1: in order, deliver;
//   - seq >  last+1: events were lost upstream — emit a gap record for
//     the missing count, then deliver;
//   - seq <= last: duplicate (e.g. a promoted replica re-serving a
//     rewound tail) — discard; deterministic replay makes the verdicts
//     bit-identical, so dropping the copy loses nothing.
//
// Across a clean migration the target resumes exactly where the source
// sealed, so the merged stream stays contiguous: zero gaps, zero
// duplicates. Node-side ring-drop gap frames are forwarded as-is, and
// the seq jump the same drop shows the sequencer next is not reported a
// second time (see sequencer.credit).

// upMsg is one frame from one upstream node stream.
type upMsg struct {
	src  int // index of the upstream stream the frame came from
	ev   serve.Event
	gap  uint64
	kind byte
	err  error // stream ended (io.EOF for a clean close)
}

// sequencer is the merge state of one client subscription.
type sequencer struct {
	lastSeq []uint64 // per shard; 0 means "not yet baselined"
	// credit is, per upstream stream, the ring drops that stream has
	// already reported (and the router forwarded) but that no seq jump
	// has been matched to yet. A node's gap frame precedes the events
	// that survived the drop, so the jump it causes arrives right after
	// it on the same stream; counting both would report each dropped
	// event twice.
	credit []uint64
}

// ringDrop records an upstream gap frame of n dropped events.
func (s *sequencer) ringDrop(src int, n uint64) { s.credit[src] += n }

// event runs the per-shard rules on one upstream verdict: deliver reports
// whether to pass it on, gap how many lost events to report before it.
func (s *sequencer) event(src int, ev serve.Event) (gap uint64, deliver bool) {
	if ev.Shard < 0 || ev.Shard >= len(s.lastSeq) {
		return 0, false
	}
	last := s.lastSeq[ev.Shard]
	switch {
	case last == 0:
	case ev.Seq <= last:
		return 0, false // duplicate from a rewound promotion: discard
	case ev.Seq > last+1:
		gap = ev.Seq - last - 1
		reported := min(gap, s.credit[src])
		s.credit[src] -= reported
		gap -= reported
	}
	s.lastSeq[ev.Shard] = ev.Seq
	return gap, true
}

// pump forwards one upstream node stream's frames into ch until the stream
// or ctx ends.
func pump(ctx context.Context, src int, sr *serve.StreamReader, ch chan<- upMsg) {
	defer sr.Close()
	for {
		ev, gap, kind, err := sr.Next()
		select {
		case ch <- upMsg{src: src, ev: ev, gap: gap, kind: kind, err: err}:
		case <-ctx.Done():
			return
		}
		if err != nil {
			return
		}
	}
}

// handleSubscribe merges node streams for one client. The client-facing
// format mirrors a node's /subscribe (binary ODWS frames or SSE);
// upstream is always binary.
func (r *Router) handleSubscribe(w http.ResponseWriter, req *http.Request) {
	if !serve.RequireMethod(w, req, http.MethodGet) {
		return
	}
	q, err := serve.ParseSubscribeQuery(req.URL.Query())
	if err != nil {
		serve.WriteErr(w, http.StatusBadRequest, err)
		return
	}

	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()

	r.mu.RLock()
	m := r.m
	dead := append([]bool(nil), r.dead...)
	r.mu.RUnlock()

	// Upstream: the same sensor/only filters on every live node. A failed
	// attach returns, and the deferred cancel ends the pumps already running.
	// The buffer absorbs a burst from every node while a client write is in
	// flight; when full it backpressures the pumps, never a node's shard
	// (its subscriber ring drops instead).
	ch := make(chan upMsg, 64)
	streams := 0
	for id, nodeURL := range m.Nodes {
		if dead[id] {
			continue
		}
		sr, err := serve.Client{HTTP: r.streamClient, Base: nodeURL}.Subscribe(ctx, q)
		if err != nil {
			serve.WriteErr(w, http.StatusServiceUnavailable, fmt.Errorf("node %d: %w", id, err))
			return
		}
		go pump(ctx, streams, sr, ch)
		streams++
	}
	if streams == 0 {
		serve.WriteErr(w, http.StatusServiceUnavailable, errors.New("no live nodes"))
		return
	}

	sw := serve.StartStream(w, q.Binary)
	if sw == nil {
		return
	}

	merge(ctx, ch, streams, sw, &sequencer{lastSeq: make([]uint64, m.Shards), credit: make([]uint64, streams)})
}

// merge runs the per-shard sequencer over the frames the pumps deliver on
// ch and writes the merged stream to sw, until each of the streams
// upstream streams has ended, ctx is done, or a client write fails.
func merge(ctx context.Context, ch <-chan upMsg, streams int, sw *serve.StreamWriter, seq *sequencer) {
	// take runs one upstream message through the merge rules and reports
	// whether it buffered a record for the client.
	take := func(msg upMsg) bool {
		if msg.err != nil {
			// One node stream ended (shutdown or crash); the rest keep
			// flowing. The client stream ends cleanly when the last
			// upstream does.
			streams--
			return false
		}
		if msg.kind == serve.StreamFrameGap {
			// Upstream ring drop: already a counted gap — forward.
			seq.ringDrop(msg.src, msg.gap)
			sw.Gap(msg.gap)
			return true
		}
		gap, deliver := seq.event(msg.src, msg.ev)
		if !deliver {
			return false
		}
		if gap > 0 {
			sw.Gap(gap)
		}
		sw.Verdict(msg.ev)
		return true
	}
	for streams > 0 {
		var buffered bool
		select {
		case <-ctx.Done():
			return
		case msg := <-ch:
			buffered = take(msg)
		}
		// A node flushes a wake-up's events in one write, so its frames
		// arrive as a burst: take what the pumps already hold (merge is
		// ch's only reader, so none of these receives blocks, and a
		// steady flow cannot postpone the flush), then put it all on the
		// wire in one flush.
		for n := len(ch); n > 0 && streams > 0; n-- {
			if ctx.Err() != nil {
				return
			}
			buffered = take(<-ch) || buffered
		}
		if buffered && sw.Flush() != nil {
			return
		}
	}
}
