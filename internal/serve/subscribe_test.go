package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"odds/internal/core"
	"odds/internal/detector"
	"odds/internal/distance"
	"odds/internal/mdef"
	"odds/internal/stream"
)

// subBatch builds one shard's sub-batch: a reading per name, seqs counting
// up from seq; a name ending in "!" is judged an outlier.
func subBatch(seq uint64, names ...string) ([]Reading, []Verdict) {
	batch := make([]Reading, len(names))
	verdicts := make([]Verdict, len(names))
	for i, name := range names {
		outlier := strings.HasSuffix(name, "!")
		batch[i] = Reading{Sensor: strings.TrimSuffix(name, "!")}
		verdicts[i] = Verdict{Seq: seq + uint64(i), Outlier: outlier, Warmed: true}
	}
	return batch, verdicts
}

func newTestSubscriber(hub *subHub, ring int) *subscriber {
	return &subscriber{hub: hub, notify: make(chan struct{}, 1), ring: make([]Event, ring)}
}

// TestSubscriberRingDropOldest pins the fan-out discipline at the struct
// level: a full ring drops the oldest event, counts the drop, and the
// next drain reports the gap before the surviving events.
func TestSubscriberRingDropOldest(t *testing.T) {
	hub := newSubHub()
	sub := newTestSubscriber(hub, 3)
	offer := func(seq uint64, names ...string) {
		batch, verdicts := subBatch(seq, names...)
		sub.offerBatch(0, batch, verdicts)
	}
	offer(1, "a", "a")
	offer(3, "a", "a", "a")
	events, gap := sub.drain(nil)
	if gap != 2 {
		t.Fatalf("gap %d, want 2", gap)
	}
	if len(events) != 3 || events[0].Seq != 3 || events[2].Seq != 5 {
		t.Fatalf("drained %+v, want seqs 3..5", events)
	}
	if hub.dropped.Load() != 2 {
		t.Fatalf("hub dropped %d, want 2", hub.dropped.Load())
	}
	// After a drain the gap counter resets.
	offer(6, "a")
	events, gap = sub.drain(events[:0])
	if gap != 0 || len(events) != 1 || events[0].Seq != 6 {
		t.Fatalf("post-drain state: gap=%d events=%+v", gap, events)
	}
}

// TestOfferBatch pins what one sub-batch does to one subscriber: filters
// run inside the batch (a filtered event costs no ring space and a batch
// filtered whole leaves no mark), a batch longer than the ring leaves its
// newest len(ring) events behind one gap, events drain in the order each
// shard published them, and a batch that stores events marks the
// subscriber for its request's wake-up — unless it left the ring at least
// half full, which wakes the stream at once instead. How many wake-ups a
// request raises is TestSubscriberWokenOncePerRequest's.
func TestOfferBatch(t *testing.T) {
	type publish struct {
		shard int
		seq   uint64
		names []string
	}
	type key struct {
		shard int
		seq   uint64
	}
	for _, tc := range []struct {
		name        string
		sensors     []string
		outlierOnly bool
		ring        int
		publishes   []publish
		want        []key
		wantGap     uint64
		wantMarked  bool
	}{
		{
			name: "unfiltered", ring: 8,
			publishes: []publish{{0, 1, []string{"a", "b!", "a"}}},
			want:      []key{{0, 1}, {0, 2}, {0, 3}}, wantMarked: true,
		},
		{
			name: "sensor filter", sensors: []string{"a"}, ring: 8,
			publishes: []publish{{0, 1, []string{"b", "a", "c!", "a!"}}},
			want:      []key{{0, 2}, {0, 4}}, wantMarked: true,
		},
		{
			name: "only outliers", outlierOnly: true, ring: 8,
			publishes: []publish{{0, 1, []string{"a", "a!", "b!", "b"}}},
			want:      []key{{0, 2}, {0, 3}}, wantMarked: true,
		},
		{
			name: "batch filtered whole", sensors: []string{"a"}, outlierOnly: true, ring: 8,
			publishes: []publish{{0, 1, []string{"b!", "a", "c"}}},
		},
		{
			// Four of six filtered out: the two survivors fit a ring of
			// two, which they fill, so the stream is woken, not marked.
			name: "filtered events cost no ring space", sensors: []string{"a"}, ring: 2,
			publishes: []publish{{0, 1, []string{"b", "b", "b", "a", "b", "a"}}},
			want:      []key{{0, 4}, {0, 6}},
		},
		{
			name: "batch longer than the ring", ring: 4,
			publishes: []publish{{0, 1, []string{"a", "a", "a", "a", "a", "a", "a", "a", "a", "a"}}},
			want:      []key{{0, 7}, {0, 8}, {0, 9}, {0, 10}}, wantGap: 6,
		},
		{
			name: "shards interleave by batch", ring: 16,
			publishes: []publish{{0, 1, []string{"a", "a"}}, {1, 1, []string{"b", "b"}}, {0, 3, []string{"a"}}},
			want:      []key{{0, 1}, {0, 2}, {1, 1}, {1, 2}, {0, 3}}, wantMarked: true,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hub := newSubHub()
			sub := newTestSubscriber(hub, tc.ring)
			sub.outlierOnly = tc.outlierOnly
			if tc.sensors != nil {
				sub.sensors = map[string]struct{}{}
				for _, name := range tc.sensors {
					sub.sensors[name] = struct{}{}
				}
			}
			hub.add(sub)
			for _, p := range tc.publishes {
				batch, verdicts := subBatch(p.seq, p.names...)
				hub.publishBatch(p.shard, batch, verdicts)
			}
			if sub.marked.Load() != tc.wantMarked {
				t.Fatalf("marked %t, want %t", sub.marked.Load(), tc.wantMarked)
			}
			events, gap := sub.drain(nil)
			if gap != tc.wantGap || hub.dropped.Load() != tc.wantGap {
				t.Fatalf("gap %d, hub dropped %d, want both %d", gap, hub.dropped.Load(), tc.wantGap)
			}
			if len(events) != len(tc.want) {
				t.Fatalf("drained %+v, want %+v", events, tc.want)
			}
			for i, ev := range events {
				if (key{ev.Shard, ev.Seq}) != tc.want[i] {
					t.Fatalf("event %d is shard %d seq %d, want %+v (drained %+v)", i, ev.Shard, ev.Seq, tc.want[i], events)
				}
			}
		})
	}
}

// TestSubscriberWokenOncePerRequest pins when a stream is woken, on a
// four-shard server: a request spanning every shard wakes its subscriber
// once, after its last sub-batch, with every event already in the ring
// when Ingest returns; a request whose events the filters drop wakes
// nobody; and a sub-batch that leaves the ring at least half full wakes
// the stream at once, so a request longer than the ring is drained per
// sub-batch as before. Each test subscriber's notify channel is deep
// enough to count every wake-up a coalescing capacity-1 channel would
// absorb.
func TestSubscriberWokenOncePerRequest(t *testing.T) {
	const shards, perShard = 4, 8
	srv := mustServer(t, testServerConfig(shards, 1))
	defer srv.Close()
	sensors := make([]string, shards)
	for found, i := 0, 0; found < shards; i++ {
		id := fmt.Sprintf("s%d", i)
		if sid := ShardOf(id, shards); sensors[sid] == "" {
			sensors[sid] = id
			found++
		}
	}
	readings := make([]Reading, shards*perShard)
	for i := range readings {
		readings[i] = Reading{Sensor: sensors[i%shards], Value: []float64{float64(i%10) / 10}}
	}
	attach := func(ring int, sensors ...string) *subscriber {
		sub := newTestSubscriber(srv.hub, ring)
		sub.notify = make(chan struct{}, 2*shards)
		if sensors != nil {
			sub.sensors = map[string]struct{}{}
			for _, name := range sensors {
				sub.sensors[name] = struct{}{}
			}
		}
		srv.hub.add(sub)
		return sub
	}
	ingest := func() []ReadingResult {
		t.Helper()
		results, rejected, err := srv.Ingest(readings)
		if err != nil || rejected != 0 {
			t.Fatalf("ingest: rejected=%d err=%v", rejected, err)
		}
		return results
	}

	t.Run("one wake-up per request", func(t *testing.T) {
		sub := attach(4 * len(readings))
		defer srv.hub.remove(sub)
		for round := 0; round < 3; round++ {
			results := ingest()
			if n := len(sub.notify); n != 1 {
				t.Fatalf("round %d: %d wake-ups for a request over %d shards, want 1", round, n, shards)
			}
			<-sub.notify
			events, gap := sub.drain(nil)
			if gap != 0 || len(events) != len(readings) {
				t.Fatalf("round %d: ring held %d events (gap %d) when Ingest returned, want %d", round, len(events), gap, len(readings))
			}
			want := map[Event]bool{}
			for i, r := range results {
				want[Event{Sensor: readings[i].Sensor, Shard: r.Shard, Seq: r.Seq, Outlier: r.Outlier, Warmed: r.Warmed}] = true
			}
			for _, ev := range events {
				if !want[ev] {
					t.Fatalf("round %d: event %+v matches no result", round, ev)
				}
				delete(want, ev)
			}
		}
	})

	t.Run("filtered request wakes nobody", func(t *testing.T) {
		sub := attach(4*len(readings), "absent")
		defer srv.hub.remove(sub)
		ingest()
		if n := len(sub.notify); n != 0 || sub.marked.Load() {
			t.Fatalf("%d wake-ups (marked %t) for a request the filter dropped whole", n, sub.marked.Load())
		}
	})

	t.Run("half-full ring wakes at once", func(t *testing.T) {
		// Directly: one sub-batch that half fills the ring wakes before
		// any request's wake-up runs.
		direct := newTestSubscriber(newSubHub(), 2*perShard)
		batch, verdicts := subBatch(1, make([]string, perShard)...)
		direct.offerBatch(0, batch, verdicts)
		if len(direct.notify) != 1 || direct.marked.Load() {
			t.Fatalf("half-full ring: %d wake-ups, marked %t; want 1, false", len(direct.notify), direct.marked.Load())
		}
		// Through the server: every shard's sub-batch fills a ring of
		// perShard, so each wakes the stream as it lands.
		sub := attach(perShard)
		defer srv.hub.remove(sub)
		ingest()
		if n := len(sub.notify); n != shards {
			t.Fatalf("%d wake-ups for %d sub-batches that each fill the ring, want %d", n, shards, shards)
		}
	})
}

// TestSubscriberFilters pins that a published event carries its reading's
// sensor and its verdict's fields through the filters.
func TestSubscriberFilters(t *testing.T) {
	hub := newSubHub()
	sub := newTestSubscriber(hub, 8)
	sub.sensors = map[string]struct{}{"a": {}}
	sub.outlierOnly = true
	batch, verdicts := subBatch(7, "b!", "a", "a!")
	sub.offerBatch(5, batch, verdicts)
	events, gap := sub.drain(nil)
	want := Event{Sensor: "a", Shard: 5, Seq: 9, Outlier: true, Warmed: true}
	if gap != 0 || len(events) != 1 || events[0] != want {
		t.Fatalf("drained %+v gap=%d, want just %+v", events, gap, want)
	}
}

// TestHubPublishIdle pins the hot-path guarantee: publishing with no
// subscribers — never any, or all departed — is free of allocations.
func TestHubPublishIdle(t *testing.T) {
	hub := newSubHub()
	batch, verdicts := subBatch(1, "a", "b")
	idle := func() {
		t.Helper()
		if avg := testing.AllocsPerRun(100, func() { hub.publishBatch(0, batch, verdicts) }); avg != 0 {
			t.Fatalf("idle publish allocates %v, want 0", avg)
		}
	}
	idle()
	sub := newTestSubscriber(hub, 4)
	hub.add(sub)
	hub.remove(sub)
	if hub.subscribers() != 0 {
		t.Fatalf("%d subscribers after the only one left", hub.subscribers())
	}
	idle()
	if events, _ := sub.drain(nil); len(events) != 0 {
		t.Fatalf("departed subscriber was published %+v", events)
	}
}

// TestSubscribeConcurrentPublish drives the copy-on-write registry the way
// a busy node does: four shards publishing sub-batches concurrently into
// two streams that stay (one unfiltered, one sensors=) while a third
// subscriber attaches and detaches in a loop. For the two that stayed,
// delivered events plus gap-counted drops equal the accepted readings
// they select, and each shard's events arrive in seq order. Nothing is
// asserted about the churning one: a publisher that loaded the registry
// before a remove may still write that sub-batch into the departed ring,
// so "no event after remove" is not a property the hub has.
func TestSubscribeConcurrentPublish(t *testing.T) {
	const shards, writers, rounds, batchLen = 4, 4, 60, 48
	cfg := testServerConfig(shards, 1)
	cfg.SubscribeBuffer = 32 // small enough that the streams lag and drop
	srv := mustServer(t, cfg)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sensors := make([]string, 16)
	for i := range sensors {
		sensors[i] = fmt.Sprintf("s%d", i)
	}
	picked := map[string]bool{sensors[1]: true, sensors[6]: true, sensors[11]: true}

	type tally struct {
		events, gaps uint64
		err          error
	}
	follow := func(query string, out chan<- tally) {
		resp := openStream(t, ts.URL+"/subscribe?format=binary"+query)
		go func() {
			defer resp.Body.Close()
			var res tally
			last := make([]uint64, shards)
			sr := NewStreamReader(resp.Body)
			for {
				ev, gap, kind, err := sr.Next()
				if err != nil {
					if err != io.EOF {
						res.err = err
					}
					out <- res
					return
				}
				if kind == StreamFrameGap {
					res.gaps += gap
					continue
				}
				if ev.Seq <= last[ev.Shard] {
					res.err = fmt.Errorf("shard %d seq %d after seq %d", ev.Shard, ev.Seq, last[ev.Shard])
				}
				last[ev.Shard] = ev.Seq
				res.events++
			}
		}()
	}
	all, some := make(chan tally, 1), make(chan tally, 1)
	follow("", all)
	follow("&sensors="+sensors[1]+","+sensors[6]+","+sensors[11], some)

	stop := make(chan struct{})
	churned := make(chan struct{})
	go func() {
		defer close(churned)
		var events []Event
		for {
			select {
			case <-stop:
				return
			default:
			}
			sub := newTestSubscriber(srv.hub, 8)
			srv.hub.add(sub)
			events, _ = sub.drain(events[:0])
			srv.hub.remove(sub)
		}
	}()

	var accepted, acceptedPicked atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			readings := make([]Reading, batchLen)
			for r := 0; r < rounds; r++ {
				for i := range readings {
					readings[i] = Reading{Sensor: sensors[(w+r+i)%len(sensors)], Value: []float64{float64(i%10) / 10}}
				}
				results, _, err := srv.Ingest(readings)
				if err != nil {
					t.Error(err)
					return
				}
				for i, res := range results {
					if res.Accepted {
						accepted.Add(1)
						if picked[readings[i].Sensor] {
							acceptedPicked.Add(1)
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-churned

	// Close flushes what the rings still hold and ends both streams.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		got  tally
		want uint64
	}{
		{"unfiltered", <-all, accepted.Load()},
		{"sensors=", <-some, acceptedPicked.Load()},
	} {
		t.Logf("%s stream: %d events, %d dropped, %d accepted", c.name, c.got.events, c.got.gaps, c.want)
		if c.got.err != nil {
			t.Errorf("%s stream: %v", c.name, c.got.err)
		}
		if c.got.events+c.got.gaps != c.want || c.want == 0 {
			t.Errorf("%s stream: %d events + %d dropped != %d accepted", c.name, c.got.events, c.got.gaps, c.want)
		}
	}
	if srv.hub.subscribers() != 0 {
		t.Errorf("%d subscribers left registered", srv.hub.subscribers())
	}
}

type sseEvent struct {
	kind string
	data string
}

// readSSE reads n events from an SSE stream.
func readSSE(t *testing.T, r *bufio.Reader, n int) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	for len(out) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended after %d/%d events: %v", len(out), n, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.kind = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.kind != "" {
				out = append(out, cur)
				cur = sseEvent{}
			}
		}
	}
	return out
}

func openStream(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("subscribe status %d: %s", resp.StatusCode, body)
	}
	return resp
}

// TestSubscribeSSE pins end-to-end push delivery: events arrive on an
// open SSE stream the moment their batch is ingested, with fields
// matching the ingest results.
func TestSubscribeSSE(t *testing.T) {
	srv := mustServer(t, testServerConfig(2, 1))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := openStream(t, ts.URL+"/subscribe")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	readings := make([]Reading, 6)
	for i := range readings {
		readings[i] = Reading{Sensor: fmt.Sprintf("s%d", i%3), Value: []float64{float64(i) / 10}}
	}
	results, rejected, err := srv.Ingest(readings)
	if err != nil || rejected != 0 {
		t.Fatalf("ingest: rejected=%d err=%v", rejected, err)
	}

	events := readSSE(t, bufio.NewReader(resp.Body), len(readings))
	type key struct {
		Sensor string `json:"sensor"`
		Shard  int    `json:"shard"`
		Seq    uint64 `json:"seq"`
		Out    bool   `json:"outlier"`
	}
	got := map[string]bool{}
	for _, ev := range events {
		if ev.kind != "verdict" {
			t.Fatalf("unexpected event %q (%s)", ev.kind, ev.data)
		}
		var k key
		if err := json.Unmarshal([]byte(ev.data), &k); err != nil {
			t.Fatalf("bad event data %q: %v", ev.data, err)
		}
		got[fmt.Sprintf("%s/%d/%d/%t", k.Sensor, k.Shard, k.Seq, k.Out)] = true
	}
	for i, r := range results {
		want := fmt.Sprintf("%s/%d/%d/%t", readings[i].Sensor, r.Shard, r.Seq, r.Outlier)
		if !got[want] {
			t.Fatalf("event for reading %d (%s) not delivered; got %v", i, want, got)
		}
	}
}

// TestSubscribeSSEIsJSON pins that every SSE data line is JSON whatever
// bytes the sensor id holds: the binary wire admits any 1–255 bytes, and
// the stream writes the id with encoding/json's escaping — \u0001 for a
// control byte, \ufffd for a byte that is not UTF-8. The router's merged
// stream renders through the same StreamWriter.
func TestSubscribeSSEIsJSON(t *testing.T) {
	srv := mustServer(t, testServerConfig(2, 1))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := openStream(t, ts.URL+"/subscribe")
	defer resp.Body.Close()

	ids := []string{"a\x01b", "caf\xe9", "quote\"back\\slash", "tab\tnl\n", "plain"}
	want := map[string]bool{"a\u0001b": true, "caf\ufffd": true, "quote\"back\\slash": true, "tab\tnl\n": true, "plain": true}
	readings := make([]Reading, len(ids))
	for i, id := range ids {
		readings[i] = Reading{Sensor: id, Value: []float64{float64(i) / 10}}
	}
	if _, rejected, err := srv.Ingest(readings); err != nil || rejected != 0 {
		t.Fatalf("ingest: rejected=%d err=%v", rejected, err)
	}
	for _, ev := range readSSE(t, bufio.NewReader(resp.Body), len(ids)) {
		if !json.Valid([]byte(ev.data)) {
			t.Fatalf("%s data is not JSON: %q", ev.kind, ev.data)
		}
		var got struct {
			Sensor string `json:"sensor"`
		}
		if err := json.Unmarshal([]byte(ev.data), &got); err != nil {
			t.Fatal(err)
		}
		if !want[got.Sensor] {
			t.Fatalf("sensor %q decoded from %q, want one of %v", got.Sensor, ev.data, want)
		}
		delete(want, got.Sensor)
	}
}

// TestSubscribeSensorFilter pins server-side filtering: a stream opened
// for one sensor sees that sensor's verdicts only.
func TestSubscribeSensorFilter(t *testing.T) {
	srv := mustServer(t, testServerConfig(1, 1))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := openStream(t, ts.URL+"/subscribe?sensors=a")
	defer resp.Body.Close()

	if _, rejected, err := srv.Ingest([]Reading{
		{Sensor: "b", Value: []float64{0.1}},
		{Sensor: "a", Value: []float64{0.2}},
		{Sensor: "c", Value: []float64{0.3}},
		{Sensor: "a", Value: []float64{0.4}},
	}); err != nil || rejected != 0 {
		t.Fatalf("ingest: rejected=%d err=%v", rejected, err)
	}

	events := readSSE(t, bufio.NewReader(resp.Body), 2)
	for _, ev := range events {
		if !strings.Contains(ev.data, `"sensor":"a"`) {
			t.Fatalf("filtered stream delivered %s", ev.data)
		}
	}
}

// TestSubscribeBinaryStream pins the ODWS framing end to end: header,
// CRC-checked verdict frames, clean EOF on server close.
func TestSubscribeBinaryStream(t *testing.T) {
	srv := mustServer(t, testServerConfig(2, 1))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := openStream(t, ts.URL+"/subscribe?format=binary")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeStream {
		t.Fatalf("Content-Type %q", ct)
	}

	readings := []Reading{
		{Sensor: "alpha", Value: []float64{0.5}},
		{Sensor: "beta", Value: []float64{0.7}},
	}
	results, rejected, err := srv.Ingest(readings)
	if err != nil || rejected != 0 {
		t.Fatalf("ingest: rejected=%d err=%v", rejected, err)
	}

	sr := NewStreamReader(resp.Body)
	seen := map[string]Event{}
	for len(seen) < len(readings) {
		ev, _, kind, err := sr.Next()
		if err != nil {
			t.Fatalf("stream ended early: %v", err)
		}
		if kind == StreamFrameVerdict {
			seen[ev.Sensor] = ev
		}
	}
	for i, r := range results {
		ev, ok := seen[readings[i].Sensor]
		if !ok || ev.Seq != r.Seq || ev.Shard != r.Shard || ev.Outlier != r.Outlier {
			t.Fatalf("reading %d: stream event %+v vs result %+v", i, ev, r)
		}
	}

	// Graceful close ends the stream with io.EOF after a final flush.
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	for {
		if _, _, _, err := sr.Next(); err != nil {
			if err != io.EOF {
				t.Fatalf("stream ended with %v, want io.EOF", err)
			}
			break
		}
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}

// TestSubscribeBadParams pins 4xx fail-closed on malformed subscription
// requests.
func TestSubscribeBadParams(t *testing.T) {
	srv := mustServer(t, testServerConfig(1, 1))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, q := range []string{
		"?only=warmed",
		"?format=msgpack",
		"?sensors=a,,b",
	} {
		resp, err := http.Get(ts.URL + "/subscribe" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestSubscribeAfterClose pins that a closed server refuses new streams
// instead of hanging them.
func TestSubscribeAfterClose(t *testing.T) {
	srv := mustServer(t, testServerConfig(1, 1))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(ts.URL + "/subscribe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}

// flushCountingWriter is a streaming ResponseWriter that discards what it
// is sent and counts flushes.
type flushCountingWriter struct {
	hdr     http.Header
	flushes atomic.Int64
}

func (w *flushCountingWriter) Header() http.Header         { return w.hdr }
func (w *flushCountingWriter) WriteHeader(int)             {}
func (w *flushCountingWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *flushCountingWriter) Flush()                      { w.flushes.Add(1) }

// BenchmarkIngestSubscribed is light-fanout's ingest with its one binary
// subscriber, outside the frozen benchmark: 8 shards (ewma by default, q-
// sensors on qn, c- on coreset, |W| = 10⁴), 4096 sensors, 64-reading
// requests through Server.Ingest, while a stream goroutine drains the
// subscriber's ring and renders ODWS frames as handleSubscribe does. It
// reports, beside ns/op, how often that stream woke and flushed per
// request, and fails unless its events plus gap-counted drops come to
// every reading ingested. Alternate it with the parent for a push-path
// A/B; CI runs it once for liveness.
func BenchmarkIngestSubscribed(b *testing.B) {
	const shards, batchLen, cycle = 8, 64, 256
	ccfg := core.DefaultConfig(1)
	ccfg.WindowCap, ccfg.SampleSize = 10000, 500
	pcfg := PipelineConfig{
		Core:     ccfg,
		Kind:     DetectDistance,
		Distance: distance.Params{Radius: 0.01, Threshold: 45},
		MDEF:     mdef.Params{R: 0.08, AlphaR: 0.01, KSigma: 3},
		Seed:     1,
		Backends: detector.Params{}.WithDefaults(),
		Backend:  detector.KindEWMA,
		Selector: []BackendRule{
			{Prefix: "q-", Backend: detector.KindQn},
			{Prefix: "c-", Backend: detector.KindCoreset},
		},
	}
	srv, err := New(Config{Shards: shards, Pipeline: pcfg})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	var names []string
	for _, g := range []struct {
		prefix string
		n      int
	}{{"s-", 2048}, {"q-", 1024}, {"c-", 1024}} {
		for i := 0; i < g.n; i++ {
			names = append(names, fmt.Sprintf("%s%04d", g.prefix, i))
		}
	}
	src, err := stream.ByName("mixture", 1, 7)
	if err != nil {
		b.Fatal(err)
	}
	batches := make([][]Reading, cycle)
	for i := range batches {
		batches[i] = make([]Reading, batchLen)
		for j := range batches[i] {
			batches[i][j] = Reading{Sensor: names[(i*batchLen+j)%len(names)], Value: src.Next()}
		}
	}

	sub := &subscriber{hub: srv.hub, notify: make(chan struct{}, 1), ring: make([]Event, srv.cfg.SubscribeBuffer)}
	srv.hub.add(sub)
	defer srv.hub.remove(sub)
	w := &flushCountingWriter{hdr: http.Header{}}
	sw := StartStream(w, true)
	var wakes, delivered atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		var events []Event
		for {
			select {
			case <-stop:
				return
			case <-sub.notify:
				wakes.Add(1)
				var gap uint64
				events, gap = sub.drain(events[:0])
				if gap == 0 && len(events) == 0 {
					continue
				}
				if gap > 0 {
					sw.Gap(gap)
				}
				for _, ev := range events {
					sw.Verdict(ev)
				}
				delivered.Add(int64(gap) + int64(len(events)))
				_ = sw.Flush()
			}
		}
	}()

	ingested := 0
	ingest := func(batch []Reading) {
		if _, rejected, err := srv.Ingest(batch); err != nil || rejected != 0 {
			b.Fatalf("ingest: %d rejected, err %v", rejected, err)
		}
		ingested += len(batch)
	}
	// settle waits until the stream has delivered, or counted as dropped,
	// every reading ingested so far.
	settle := func() {
		for deadline := time.Now().Add(10 * time.Second); delivered.Load() != int64(ingested); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				b.Fatalf("stream saw %d events and drops of %d readings ingested", delivered.Load(), ingested)
			}
		}
	}
	for _, batch := range batches {
		ingest(batch)
	}
	settle()
	wakes0, flushes0 := wakes.Load(), w.flushes.Load()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ingest(batches[i%cycle])
	}
	b.StopTimer()
	settle()
	b.ReportMetric(float64(wakes.Load()-wakes0)/float64(b.N), "wakes/req")
	b.ReportMetric(float64(w.flushes.Load()-flushes0)/float64(b.N), "flushes/req")
	close(stop)
	<-stopped
}
