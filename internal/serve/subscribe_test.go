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
// filtered whole raises no wake-up), a batch longer than the ring leaves
// its newest len(ring) events behind one gap, events drain in the order
// each shard published them, and a batch wakes the stream once.
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
		wantWakes   int
	}{
		{
			name: "unfiltered", ring: 8,
			publishes: []publish{{0, 1, []string{"a", "b!", "a"}}},
			want:      []key{{0, 1}, {0, 2}, {0, 3}}, wantWakes: 1,
		},
		{
			name: "sensor filter", sensors: []string{"a"}, ring: 8,
			publishes: []publish{{0, 1, []string{"b", "a", "c!", "a!"}}},
			want:      []key{{0, 2}, {0, 4}}, wantWakes: 1,
		},
		{
			name: "only outliers", outlierOnly: true, ring: 8,
			publishes: []publish{{0, 1, []string{"a", "a!", "b!", "b"}}},
			want:      []key{{0, 2}, {0, 3}}, wantWakes: 1,
		},
		{
			name: "batch filtered whole", sensors: []string{"a"}, outlierOnly: true, ring: 8,
			publishes: []publish{{0, 1, []string{"b!", "a", "c"}}},
		},
		{
			// Four of six filtered out: the two survivors fit a ring of two.
			name: "filtered events cost no ring space", sensors: []string{"a"}, ring: 2,
			publishes: []publish{{0, 1, []string{"b", "b", "b", "a", "b", "a"}}},
			want:      []key{{0, 4}, {0, 6}}, wantWakes: 1,
		},
		{
			name: "batch longer than the ring", ring: 4,
			publishes: []publish{{0, 1, []string{"a", "a", "a", "a", "a", "a", "a", "a", "a", "a"}}},
			want:      []key{{0, 7}, {0, 8}, {0, 9}, {0, 10}}, wantGap: 6, wantWakes: 1,
		},
		{
			name: "shards interleave by batch", ring: 8,
			publishes: []publish{{0, 1, []string{"a", "a"}}, {1, 1, []string{"b", "b"}}, {0, 3, []string{"a"}}},
			want:      []key{{0, 1}, {0, 2}, {1, 1}, {1, 2}, {0, 3}}, wantWakes: 3,
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
			wakes := 0
			for _, p := range tc.publishes {
				batch, verdicts := subBatch(p.seq, p.names...)
				hub.publishBatch(p.shard, batch, verdicts)
				select {
				case <-sub.notify:
					wakes++
				default:
				}
			}
			events, gap := sub.drain(nil)
			if gap != tc.wantGap || hub.dropped.Load() != tc.wantGap {
				t.Fatalf("gap %d, hub dropped %d, want both %d", gap, hub.dropped.Load(), tc.wantGap)
			}
			if wakes != tc.wantWakes {
				t.Fatalf("%d wake-ups, want %d", wakes, tc.wantWakes)
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

// TestSubscriberFilters pins that a published event carries its reading's
// sensor and its verdict's fields through the filters.
func TestSubscriberFilters(t *testing.T) {
	hub := newSubHub()
	sub := newTestSubscriber(hub, 8)
	sub.sensors = map[string]struct{}{"a": {}}
	sub.outlierOnly = true
	batch, verdicts := subBatch(7, "b!", "a", "a!")
	verdicts[2].Exact = true
	sub.offerBatch(5, batch, verdicts)
	events, gap := sub.drain(nil)
	want := Event{Sensor: "a", Shard: 5, Seq: 9, Outlier: true, Exact: true, Warmed: true}
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
