package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// sentRequest is what the recording node saw of one request.
type sentRequest struct {
	line        string // "METHOD request-URI"
	contentType string
	epoch       string
	body        string
}

// TestClientContract pins the node HTTP contract from the client side:
// every Client method must put exactly this request line, these headers and
// this body on the wire. scripts/serve_smoke.sh and scripts/cluster_smoke.sh
// curl the same endpoints by hand, and the handlers in http.go, admin.go,
// subscribe.go and replicate.go answer them.
func TestClientContract(t *testing.T) {
	oneResult := []ReadingResult{{Shard: 1, Accepted: true, Seq: 9, Outlier: true, Warmed: true}}
	odwr := string(AppendResults(nil, oneResult, 0, 0))
	reading := []Reading{{Sensor: "s", Value: []float64{0.5}}}

	var (
		mu    sync.Mutex // the handler runs on the server's goroutine
		got   sentRequest
		reply string
	)
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		mu.Lock()
		defer mu.Unlock()
		got = sentRequest{
			line:        r.Method + " " + r.RequestURI,
			contentType: r.Header.Get("Content-Type"),
			epoch:       r.Header.Get(EpochHeader),
			body:        string(body),
		}
		_, _ = io.WriteString(w, reply)
	}))
	defer node.Close()
	c := Client{HTTP: node.Client(), Base: node.URL}

	cases := []struct {
		name  string
		reply string
		call  func() (any, error)
		want  sentRequest
		value any // what the call must return, when it returns one
	}{
		{"Stats", `{"shards":2,"wire_fingerprint":7}`,
			func() (any, error) { return c.Stats() },
			sentRequest{line: "GET /stats"}, &StatsResponse{Shards: 2, WireFingerprint: 7}},
		{"Shards", `[{"shard":3,"role":"replica","sealed":true,"arrivals":5}]`,
			func() (any, error) { return c.Shards() },
			sentRequest{line: "GET /admin/shards"}, []AdminShardInfo{{Shard: 3, Role: "replica", Sealed: true, Arrivals: 5}}},
		{"Healthy", "ok\n",
			func() (any, error) { return c.Healthy(), nil },
			sentRequest{line: "GET /healthz"}, true},
		{"Get", `{"shard":0}`,
			func() (any, error) {
				_, _, body, err := c.Get("/query/outlier?sensor=s&v=0.5")
				return string(body), err
			},
			sentRequest{line: "GET /query/outlier?sensor=s&v=0.5"}, `{"shard":0}`},
		{"IngestJSON", `{"results":[{"shard":1,"accepted":true,"seq":9,"outlier":true,"exact":false,"warmed":true}],"rejected":0}`,
			func() (any, error) { return c.IngestJSON(IngestRequest{Readings: reading}) },
			sentRequest{line: "POST /ingest", contentType: "application/json", body: `{"readings":[{"sensor":"s","value":[0.5]}]}`},
			&IngestResponse{Results: oneResult}},
		{"IngestFrame unstamped", odwr,
			func() (any, error) { var out IngestResponse; return &out, c.IngestFrame([]byte("ODWB"), 0, &out) },
			sentRequest{line: "POST /ingest", contentType: ContentTypeBinary, body: "ODWB"},
			&IngestResponse{Results: oneResult}},
		{"IngestFrame stamped", odwr,
			func() (any, error) { var out IngestResponse; return &out, c.IngestFrame([]byte("ODWB"), 7, &out) },
			sentRequest{line: "POST /ingest", contentType: ContentTypeBinary, epoch: "7", body: "ODWB"},
			&IngestResponse{Results: oneResult}},
		{"Replicate", `{"seq":4}`,
			func() (any, error) { return nil, c.Replicate([]byte("ODRP")) },
			sentRequest{line: "POST /replicate", contentType: "application/x-odds-repl", body: "ODRP"}, nil},
		{"Subscribe", string(AppendStreamHeader(nil)),
			func() (any, error) {
				sr, err := c.Subscribe(context.Background(), SubscribeQuery{Sensors: []string{"a", "b"}, OutlierOnly: true})
				if err == nil {
					_, _, _, err = sr.Next()
					sr.Close()
				}
				if err == io.EOF { // the recording node ends the stream after its header
					err = nil
				}
				return nil, err
			},
			sentRequest{line: "GET /subscribe?format=binary&only=outlier&sensors=a%2Cb"}, nil},
		{"Shard create replica", `{"status":"ok"}`,
			func() (any, error) { return c.Shard(ShardCreate, 3, ShardArgs{Replica: true}) },
			sentRequest{line: "POST /admin/shard?op=create&id=3&role=replica", contentType: "application/octet-stream"}, []byte(`{"status":"ok"}`)},
		{"Shard install", `{"status":"ok"}`,
			func() (any, error) { return c.Shard(ShardInstall, 3, ShardArgs{Frame: []byte("ODSH")}) },
			sentRequest{line: "POST /admin/shard?op=install&id=3", contentType: "application/octet-stream", body: "ODSH"}, []byte(`{"status":"ok"}`)},
		{"Shard snapshot sealed", "ODSH",
			func() (any, error) { return c.Shard(ShardSnapshot, 3, ShardArgs{Seal: true}) },
			sentRequest{line: "POST /admin/shard?op=snapshot&id=3&seal=1", contentType: "application/octet-stream"}, []byte("ODSH")},
		{"Shard follow", `{"status":"ok"}`,
			func() (any, error) { return c.Shard(ShardFollow, 3, ShardArgs{Target: "http://node:1"}) },
			sentRequest{line: "POST /admin/shard?op=follow&id=3&target=http%3A%2F%2Fnode%3A1", contentType: "application/octet-stream"}, []byte(`{"status":"ok"}`)},
		{"Shard promote", `{"status":"ok"}`,
			func() (any, error) { return c.Shard(ShardPromote, 0, ShardArgs{}) },
			sentRequest{line: "POST /admin/shard?op=promote&id=0", contentType: "application/octet-stream"}, []byte(`{"status":"ok"}`)},
		{"PushEpoch", `{"epoch":9}`,
			func() (any, error) { return nil, c.PushEpoch(9) },
			sentRequest{line: "POST /admin/epoch?epoch=9"}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mu.Lock()
			reply = tc.reply
			mu.Unlock()
			value, err := tc.call()
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			sent := got
			mu.Unlock()
			if sent != tc.want {
				t.Errorf("request on the wire:\n got  %+v\n want %+v", sent, tc.want)
			}
			if tc.value != nil && !reflect.DeepEqual(value, tc.value) {
				t.Errorf("returned %+v, want %+v", value, tc.value)
			}
		})
	}
}

// TestClientStatusMapping drives the status → error half of the contract
// against a real cluster node where the node can be made to refuse, and a
// canned 429 where it cannot on demand.
func TestClientStatusMapping(t *testing.T) {
	srv, err := New(clusterConfig([]int{0}, nil, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := Client{HTTP: ts.Client(), Base: ts.URL}
	srv.SetEpoch(5)

	// 404: a shard this node does not host.
	_, err = c.Shard(ShardPromote, 2, ShardArgs{})
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound || se.Msg == "" {
		t.Errorf("promote of an unhosted shard: %v, want a 404 StatusError carrying the node's message", err)
	}
	if errors.Is(err, ErrEpochConflict) {
		t.Error("a 404 matched ErrEpochConflict")
	}

	// 409 on a stale stamp, the node's own epoch echoed back.
	frame := AppendBatch(nil, []Reading{{Sensor: sensorOnShard(t, 0, 4), Value: []float64{0.5}}}, 1, srv.wireFP)
	var out IngestResponse
	err = c.IngestFrame(frame, 4, &out)
	if !errors.Is(err, ErrEpochConflict) || !errors.As(err, &se) || se.Status != http.StatusConflict || !strings.Contains(err.Error(), "node is at epoch 5") {
		t.Errorf("stale-epoch ingest: %v, want ErrEpochConflict naming the node's epoch 5", err)
	}
	// The current stamp, and no stamp, are served.
	for _, epoch := range []uint64{5, 0} {
		if err := c.IngestFrame(frame, epoch, &out); err != nil || len(out.Results) != 1 || !out.Results[0].Accepted {
			t.Errorf("ingest stamped %d: %+v, %v", epoch, out, err)
		}
	}
	// A 409 that is not about epochs — installing a frame cut under another
	// configuration — does not match ErrEpochConflict.
	if _, err = c.Shard(ShardInstall, 1, ShardArgs{Frame: AppendShipFrame(nil, 1, []byte("other-config"), nil)}); !errors.As(err, &se) || se.Status != http.StatusConflict || errors.Is(err, ErrEpochConflict) {
		t.Errorf("fingerprint-mismatch install: %v, want a plain 409 StatusError", err)
	}

	// 429 is a reply: the per-reading results still come back decoded.
	rejected := []ReadingResult{{Shard: 2}, {Shard: 2}}
	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") == ContentTypeBinary {
			w.WriteHeader(http.StatusTooManyRequests)
			_, _ = w.Write(AppendResults(nil, rejected, 2, 40))
			return
		}
		WriteJSON(w, http.StatusTooManyRequests, IngestResponse{Results: rejected, Rejected: 2, RetryAfterMS: 40})
	}))
	defer busy.Close()
	c = Client{HTTP: busy.Client(), Base: busy.URL}
	want := IngestResponse{Results: rejected, Rejected: 2, RetryAfterMS: 40}
	if err := c.IngestFrame(nil, 0, &out); err != nil || !reflect.DeepEqual(out, want) {
		t.Errorf("binary 429: %+v, %v; want %+v", out, err, want)
	}
	if got, err := c.IngestJSON(IngestRequest{}); err != nil || !reflect.DeepEqual(*got, want) {
		t.Errorf("json 429: %+v, %v; want %+v", got, err, want)
	}

	// Any non-200 to an epoch push is an error (the router counts it).
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteErr(w, http.StatusServiceUnavailable, errServerClosed)
	}))
	defer refusing.Close()
	if err := (Client{HTTP: refusing.Client(), Base: refusing.URL}).PushEpoch(3); !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Errorf("refused epoch push: %v, want a 503 StatusError", err)
	}
}

// TestClientSubscribeEndsOnCancel: cancelling the context ends a stream
// cleanly on both sides — Next returns, and the node's handler sees the
// disconnect.
func TestClientSubscribeEndsOnCancel(t *testing.T) {
	handlerDone := make(chan struct{})
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(handlerDone)
		sw := StartStream(w, true)
		sw.Verdict(Event{Sensor: "s", Shard: 1, Seq: 1})
		if sw.Flush() != nil {
			return
		}
		<-r.Context().Done()
	}))
	defer node.Close()

	ctx, cancel := context.WithCancel(context.Background())
	sr, err := Client{HTTP: node.Client(), Base: node.URL}.Subscribe(ctx, SubscribeQuery{})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if ev, _, kind, err := sr.Next(); err != nil || kind != StreamFrameVerdict || ev.Seq != 1 {
		t.Fatalf("first frame: %+v kind %d err %v", ev, kind, err)
	}
	cancel()
	if _, _, _, err := sr.Next(); err == nil {
		t.Fatal("Next returned a frame after cancel")
	} else if ctx.Err() == nil {
		t.Fatalf("stream ended for a reason other than the cancel: %v", err)
	}
	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("node handler still running 5s after the client cancelled")
	}
}

// TestClientReplyCaps: a node that answers 200 and then never stops
// sending cannot make any call allocate without bound — each fails with
// ErrReplyTooLarge after reading at most its cap (8 MiB for frames, 1 MiB
// for control replies).
func TestClientReplyCaps(t *testing.T) {
	chunk := make([]byte, 64<<10)
	endless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for {
			if _, err := w.Write(chunk); err != nil {
				return // the client hung up
			}
		}
	}))
	defer endless.Close()
	c := Client{HTTP: endless.Client(), Base: endless.URL}

	cases := []struct {
		name string
		cap  uint64
		call func() error
	}{
		{"Stats", maxControlReply, func() error { _, err := c.Stats(); return err }},
		{"Shards", maxControlReply, func() error { _, err := c.Shards(); return err }},
		{"Get", maxControlReply, func() error { _, _, _, err := c.Get("/query/outlier?sensor=s&v=1"); return err }},
		{"IngestJSON", maxFrameReply, func() error { _, err := c.IngestJSON(IngestRequest{}); return err }},
		{"IngestFrame", maxFrameReply, func() error { return c.IngestFrame(nil, 1, new(IngestResponse)) }},
		{"Replicate", maxControlReply, func() error { return c.Replicate(nil) }},
		{"Shard snapshot", maxFrameReply, func() error { _, err := c.Shard(ShardSnapshot, 0, ShardArgs{}); return err }},
		{"Shard unseal", maxControlReply, func() error { _, err := c.Shard(ShardUnseal, 0, ShardArgs{}); return err }},
		{"PushEpoch", maxControlReply, func() error { return c.PushEpoch(2) }},
		{"Healthy", maxControlReply, func() error {
			if c.Healthy() {
				return nil
			}
			return ErrReplyTooLarge
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.call()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrReplyTooLarge) {
				t.Errorf("error %v, want ErrReplyTooLarge", err)
			}
			// io.ReadAll reallocates as it grows, so the bytes allocated on
			// the way to the cap are a small multiple of it — but a multiple
			// of the cap, not of what the peer sends.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*tc.cap {
				t.Errorf("allocated %s bytes reading a reply capped at %s", strconv.FormatUint(grew, 10), strconv.FormatUint(tc.cap, 10))
			}
		})
	}

	// A stream is unbounded by nature; what is bounded is one frame, and a
	// body that is not ODWS fails at its first bytes.
	sr, err := c.Subscribe(context.Background(), SubscribeQuery{})
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	if _, _, _, err := sr.Next(); err == nil {
		t.Error("an endless non-ODWS body decoded as a stream frame")
	}
}

// TestNodeHTTPClient: the one client peers talk through bounds every
// exchange and keeps an idle connection per shard, and a follower that
// accepts a batch and never answers breaks the replica link when the
// timeout fires instead of parking the replicator for good — and says so.
func TestNodeHTTPClient(t *testing.T) {
	for _, shards := range []int{0, 4, 200} {
		c := NewNodeHTTPClient(shards)
		tr := c.Transport.(*http.Transport)
		if c.Timeout <= 0 || tr.ResponseHeaderTimeout <= 0 {
			t.Errorf("shards=%d: unbounded exchange (timeout %v, header timeout %v)", shards, c.Timeout, tr.ResponseHeaderTimeout)
		}
		if tr.MaxIdleConnsPerHost < shards || tr.MaxIdleConnsPerHost < minIdlePerNode {
			t.Errorf("shards=%d: %d idle connections per node", shards, tr.MaxIdleConnsPerHost)
		}
	}

	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-release }))
	defer hung.Close()
	defer close(release)
	impatient := NewNodeHTTPClient(1)
	impatient.Timeout = 50 * time.Millisecond
	defer impatient.CloseIdleConnections()
	repl := newReplicator(0, Client{HTTP: impatient, Base: hung.URL}, 1, 7)
	repl.forward(1, []Reading{{Sensor: "a", Value: []float64{1}}})
	if st := repl.stats(); st.State != "ok" || st.ShippedBatches != 0 {
		t.Fatalf("link reads %+v before its first answer, want ok with nothing shipped", st)
	}
	for deadline := time.Now().Add(5 * time.Second); repl.stats().State != "broken"; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("replicator still waiting on a hung follower")
		}
	}
	repl.stop()
}

// TestReplicatorForwardCopies: forward's copy is the replicator's own —
// values as they were when it was called, the caller's buffers being
// recycled after — and costs two allocations however long the batch.
func TestReplicatorForwardCopies(t *testing.T) {
	quiet := &replicator{dim: 1, ch: make(chan replBatch, 1)}
	src := []Reading{{Sensor: "a", Value: []float64{1}}, {Sensor: "b", Value: []float64{2}}}
	quiet.forward(1, src)
	src[0].Value[0], src[1].Value[0] = -1, -1
	got := (<-quiet.ch).readings
	if got[0].Value[0] != 1 || got[1].Value[0] != 2 || cap(got[0].Value) != 1 {
		t.Errorf("forwarded copy %v (cap %d): want [1] [2], each capped at its own value", got, cap(got[0].Value))
	}
	long := make([]Reading, 64)
	for i := range long {
		long[i] = Reading{Sensor: "s", Value: []float64{float64(i)}}
	}
	if a := testing.AllocsPerRun(20, func() { quiet.forward(1, long); <-quiet.ch }); a > 2 {
		t.Errorf("forward allocates %v times for a 64-reading batch, want 2", a)
	}
}
