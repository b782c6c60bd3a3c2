package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// spanHeader tags an ingest request with "<conn>/<ordinal>" so the handler
// wrapper can name the client span that caused its span.
const spanHeader = "X-Bench-Span"

// span is one timed call into a layer, recorded from outside it.
type span struct {
	Name   string `json:"name"`
	Conn   int    `json:"conn"`
	Batch  int    `json:"batch"` // ordinal of the frame within its traced pass
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
}

// spanParent is the nesting seen from outside: a client round trip holds
// the wrapped handler, which holds decode, ingest and encode, and so on
// down to the detector. A span's parent is the span of that name with the
// same connection and frame ordinal.
var spanParent = map[string]string{
	"http.handler":    "client.rtt",
	"http.read":       "http.handler",
	"http.write":      "http.handler",
	"codec.decode":    "http.handler",
	"route.ingest":    "http.handler",
	"codec.encode":    "http.handler",
	"pipeline.ingest": "route.ingest",
	"detector.ingest": "pipeline.ingest",
}

// recorder keeps spans in memory; nothing is written until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(name string, conn, batch int, start, end time.Time) {
	r.mu.Lock()
	r.spans = append(r.spans, span{
		Name: name, Conn: conn, Batch: batch, Parent: -1,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	r.mu.Unlock()
}

// wrap times the client-facing handler from outside, for requests that
// carry a span tag: the whole call, and inside it the time the handler
// spent blocked reading the request body and writing the reply.
func (r *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tag := req.Header.Get(spanHeader)
		if tag == "" {
			h.ServeHTTP(w, req)
			return
		}
		conn, batch, _ := strings.Cut(tag, "/")
		c, _ := strconv.Atoi(conn)
		k, _ := strconv.Atoi(batch)
		body := &timedBody{ReadCloser: req.Body}
		reply := &timedWriter{ResponseWriter: w}
		req.Body = body
		t0 := time.Now()
		h.ServeHTTP(reply, req)
		t1 := time.Now()
		r.add("http.handler", c, k, t0, t1)
		// The I/O spans carry their summed duration, anchored at the call.
		r.add("http.read", c, k, t0, t0.Add(body.spent))
		r.add("http.write", c, k, t1.Add(-reply.spent), t1)
	})
}

type timedBody struct {
	io.ReadCloser
	spent time.Duration
}

func (b *timedBody) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := b.ReadCloser.Read(p)
	b.spent += time.Since(t0)
	return n, err
}

type timedWriter struct {
	http.ResponseWriter
	spent time.Duration
}

func (w *timedWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := w.ResponseWriter.Write(p)
	w.spent += time.Since(t0)
	return n, err
}

// link resolves every span's parent and returns, per span name, the total
// duration and the self time: duration minus what its children cover.
func (r *recorder) link() (total, self map[string]int64) {
	type key struct {
		name        string
		conn, batch int
	}
	index := make(map[key]int, len(r.spans))
	for i, s := range r.spans {
		index[key{s.Name, s.Conn, s.Batch}] = i
	}
	total, self = map[string]int64{}, map[string]int64{}
	for i := range r.spans {
		s := &r.spans[i]
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d
		if p, ok := index[key{spanParent[s.Name], s.Conn, s.Batch}]; ok && spanParent[s.Name] != "" {
			s.Parent = p
			self[r.spans[p].Name] -= d
		}
	}
	return total, self
}

// dump writes the spans as JSON lines.
func (r *recorder) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
