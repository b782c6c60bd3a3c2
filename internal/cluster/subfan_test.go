package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"

	"odds/internal/serve"
)

// flushCounter is a streaming ResponseWriter that keeps what it is sent
// and counts flushes.
type flushCounter struct {
	hdr     http.Header
	body    bytes.Buffer
	flushes int
}

func (w *flushCounter) Header() http.Header         { return w.hdr }
func (w *flushCounter) WriteHeader(int)             {}
func (w *flushCounter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *flushCounter) Flush()                      { w.flushes++ }

// TestMergeFlushesPerBurst pins the merged stream's write discipline:
// frames the upstream pumps have already buffered are merged and put on
// the client's wire in one flush, so a burst of N events reaches the
// client in fewer than N flushes — here in one — with the sequencer's
// rules still applied to each (the duplicate is discarded, the seq jump
// becomes a gap record).
func TestMergeFlushesPerBurst(t *testing.T) {
	const burst = 40
	ch := make(chan upMsg, burst+3)
	for i := 0; i < burst; i++ {
		ch <- upMsg{kind: serve.StreamFrameVerdict, ev: serve.Event{Sensor: "s", Shard: i % 2, Seq: uint64(1 + i/2)}}
	}
	ch <- upMsg{kind: serve.StreamFrameVerdict, ev: serve.Event{Sensor: "s", Shard: 0, Seq: 1}}  // duplicate
	ch <- upMsg{kind: serve.StreamFrameVerdict, ev: serve.Event{Sensor: "s", Shard: 1, Seq: 25}} // 4 lost
	ch <- upMsg{err: io.EOF}                                                                     // the one upstream ends
	w := &flushCounter{hdr: http.Header{}}
	sw := serve.StartStream(w, true)
	header := w.flushes
	merge(context.Background(), ch, 1, sw, &sequencer{lastSeq: make([]uint64, 2), credit: make([]uint64, 1)})

	var events int
	var gaps uint64
	sr := serve.NewStreamReader(&w.body)
	for {
		_, gap, kind, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if kind == serve.StreamFrameGap {
			gaps += gap
		} else {
			events++
		}
	}
	flushes := w.flushes - header
	t.Logf("%d events and a gap of %d in %d flushes", events, gaps, flushes)
	if events != burst+1 || gaps != 4 {
		t.Fatalf("%d events and %d gap-counted, want %d and 4", events, gaps, burst+1)
	}
	if flushes >= burst {
		t.Fatalf("%d buffered events reached the client in %d flushes, want fewer than %d", burst+1, flushes, burst)
	}
}
