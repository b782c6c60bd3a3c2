package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"

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

// openUpstream attaches one binary subscription to a node and pumps its
// frames into ch until the stream or ctx ends.
func openUpstream(ctx context.Context, client *http.Client, src int, nodeURL, rawQuery string, ch chan<- upMsg) error {
	u := nodeURL + "/subscribe?" + rawQuery
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return fmt.Errorf("cluster: node subscribe returned %d: %s", resp.StatusCode, msg)
	}
	go func() {
		defer resp.Body.Close()
		sr := serve.NewStreamReader(resp.Body)
		for {
			ev, gap, kind, err := sr.Next()
			if err != nil {
				select {
				case ch <- upMsg{src: src, err: err}:
				case <-ctx.Done():
				}
				return
			}
			select {
			case ch <- upMsg{src: src, ev: ev, gap: gap, kind: kind}:
			case <-ctx.Done():
				return
			}
		}
	}()
	return nil
}

// handleSubscribe merges node streams for one client. The client-facing
// format mirrors a node's /subscribe (binary ODWS frames or SSE);
// upstream is always binary.
func (r *Router) handleSubscribe(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := req.URL.Query()
	binaryOut := false
	switch q.Get("format") {
	case "", "sse":
	case "binary":
		binaryOut = true
	default:
		http.Error(w, "unknown format (sse or binary)", http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}

	// Upstream query: same sensor/only filters, binary framing.
	up := url.Values{}
	if s := q.Get("sensors"); s != "" {
		up.Set("sensors", s)
	}
	if o := q.Get("only"); o != "" {
		up.Set("only", o)
	}
	up.Set("format", "binary")

	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()

	r.mu.RLock()
	m := r.m
	dead := append([]bool(nil), r.dead...)
	r.mu.RUnlock()

	ch := make(chan upMsg, 64)
	streams := 0
	for id, nodeURL := range m.Nodes {
		if dead[id] {
			continue
		}
		if err := openUpstream(ctx, r.streamClient, streams, nodeURL, up.Encode(), ch); err != nil {
			http.Error(w, fmt.Sprintf("node %d: %v", id, err), http.StatusServiceUnavailable)
			return
		}
		streams++
	}
	if streams == 0 {
		http.Error(w, "no live nodes", http.StatusServiceUnavailable)
		return
	}

	var buf []byte
	if binaryOut {
		w.Header().Set("Content-Type", serve.ContentTypeStream)
		w.WriteHeader(http.StatusOK)
		buf = serve.AppendStreamHeader(buf[:0])
		if _, err := w.Write(buf); err != nil {
			return
		}
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
	}
	flusher.Flush()

	seq := sequencer{lastSeq: make([]uint64, m.Shards), credit: make([]uint64, streams)}

	emit := func(ev serve.Event, gap uint64, kind byte) bool {
		if binaryOut {
			if kind == serve.StreamFrameGap {
				buf = serve.AppendGapFrame(buf[:0], gap)
			} else {
				buf = serve.AppendVerdictFrame(buf[:0], ev)
			}
			if _, err := w.Write(buf); err != nil {
				return false
			}
		} else {
			var line string
			if kind == serve.StreamFrameGap {
				line = fmt.Sprintf("event: gap\ndata: {\"dropped\":%d}\n\n", gap)
			} else {
				line = fmt.Sprintf("event: verdict\ndata: {\"sensor\":%q,\"shard\":%d,\"seq\":%d,\"outlier\":%t,\"exact\":%t,\"warmed\":%t}\n\n",
					ev.Sensor, ev.Shard, ev.Seq, ev.Outlier, ev.Exact, ev.Warmed)
			}
			if _, err := io.WriteString(w, line); err != nil {
				return false
			}
		}
		flusher.Flush()
		return true
	}

	for streams > 0 {
		select {
		case <-ctx.Done():
			return
		case msg := <-ch:
			if msg.err != nil {
				// One node stream ended (shutdown or crash); the rest
				// keep flowing. The client stream ends cleanly when the
				// last upstream does.
				streams--
				continue
			}
			if msg.kind == serve.StreamFrameGap {
				// Upstream ring drop: already a counted gap — forward.
				seq.ringDrop(msg.src, msg.gap)
				if !emit(serve.Event{}, msg.gap, serve.StreamFrameGap) {
					return
				}
				continue
			}
			gap, deliver := seq.event(msg.src, msg.ev)
			if !deliver {
				continue
			}
			if gap > 0 && !emit(serve.Event{}, gap, serve.StreamFrameGap) {
				return
			}
			if !emit(msg.ev, 0, serve.StreamFrameVerdict) {
				return
			}
		}
	}
}
