package twin

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"odds/internal/quantile"
	"odds/internal/serve"
	"odds/internal/stats"
	"odds/internal/stream"
)

// Options configures one load run against a server (a node or a router).
type Options struct {
	// BaseURL of the server, e.g. "http://localhost:8077".
	BaseURL string
	// Sensors is the number of simulated sensors (round-robin arrivals).
	Sensors int
	// Total is the length of the seeded stream. A run always generates
	// readings [0, Total) but sends only the per-shard suffix the server
	// has not processed yet: the prefix its /stats arrivals cover is fed
	// to the twin with CatchUp. So a run is idempotent across restarts —
	// after a crash and restore the same invocation re-sends the lost tail
	// and checks the re-served verdicts.
	Total int
	// Batch readings per request.
	Batch int
	// Stream names the per-sensor source (stream.ByName).
	Stream string
	// Seed derives every per-sensor stream; the same (Seed, Sensors,
	// Stream) triple regenerates the identical global stream.
	Seed int64
	// MaxRetries bounds consecutive fully rejected rounds (backpressure);
	// the count restarts whenever a round gets a reading accepted
	// (0 = unlimited).
	MaxRetries int
	// Encoding selects the /ingest wire encoding: "json" (default) or
	// "binary" (ODWP frames). Both run the same twin, so an A/B of the two
	// pins their verdicts bit-identical.
	Encoding string
	// Subscribe also opens a /subscribe stream for the run and checks every
	// pushed verdict with Twin.Event, and conservation, after the last batch.
	Subscribe bool
}

// Report summarises a run that agreed with the twin: every served verdict
// was checked by Twin.Accept (a disagreement is Run's error instead).
type Report struct {
	Sent        int           `json:"sent"`
	CaughtUp    int           `json:"caught_up"` // fed to the twin only
	Rejections  int           `json:"rejections"`
	Outliers    int           `json:"outliers"`
	Elapsed     time.Duration `json:"elapsed_ns"`
	Throughput  float64       `json:"throughput_rps"`
	ClientP50us float64       `json:"client_p50_us"`
	ClientP99us float64       `json:"client_p99_us"`
	// Push path (Options.Subscribe): events delivered and drops the
	// stream's gap records counted; together they equal Sent.
	StreamEvents  int    `json:"stream_events,omitempty"`
	StreamDropped uint64 `json:"stream_dropped,omitempty"`
}

// loadReading is one generated stream element with its routing fixed.
type loadReading struct {
	serve.Reading
	shard int
	seq   uint64 // per-shard sequence this reading occupies
}

// Run replays a seeded multi-sensor stream against a server and checks
// every served verdict against a twin built from the server's /stats.
func Run(opts Options) (*Report, error) {
	if opts.Sensors <= 0 || opts.Total <= 0 || opts.Batch <= 0 {
		return nil, fmt.Errorf("twin: sensors, total, and batch must be positive")
	}
	binaryEnc := false
	switch opts.Encoding {
	case "", "json":
	case "binary":
		binaryEnc = true
	default:
		return nil, fmt.Errorf("twin: unknown encoding %q (json or binary)", opts.Encoding)
	}

	node := serve.Client{HTTP: http.DefaultClient, Base: opts.BaseURL}
	st, err := node.Stats()
	if err != nil {
		return nil, err
	}
	tw, err := New(st)
	if err != nil {
		return nil, err
	}
	dim := st.Core.Dim

	// Generate the full seeded stream with per-shard sequence numbers.
	sensors := make([]stream.Source, opts.Sensors)
	names := make([]string, opts.Sensors)
	for i := range sensors {
		names[i] = fmt.Sprintf("sensor-%03d", i)
		if sensors[i], err = stream.ByName(opts.Stream, dim, stats.ChildSeed(opts.Seed, i)); err != nil {
			return nil, err
		}
	}
	arrivals := make([]uint64, st.Shards)
	for _, ss := range st.PerShard {
		arrivals[ss.Shard] = ss.Arrivals
	}
	rep := &Report{}
	seqs := make([]uint64, st.Shards)
	var pending []loadReading
	for k := 0; k < opts.Total; k++ {
		i := k % opts.Sensors
		rd := loadReading{Reading: serve.Reading{Sensor: names[i], Value: sensors[i].Next()}}
		rd.shard = serve.ShardOf(rd.Sensor, st.Shards)
		seqs[rd.shard]++
		rd.seq = seqs[rd.shard]
		if rd.seq <= arrivals[rd.shard] {
			tw.CatchUp(rd.shard, rd.Reading)
			rep.CaughtUp++
			continue
		}
		pending = append(pending, rd)
	}

	// Open the stream before the first batch so every verdict the run
	// produces is expected on it.
	var sub *Stream
	if opts.Subscribe {
		if sub, err = OpenStream(node); err != nil {
			return nil, err
		}
		defer sub.Close()
	}

	// Reused buffers: at steady state the binary encode→POST→decode round
	// allocates only what net/http itself needs.
	var (
		encBuf  []byte
		binResp serve.IngestResponse
		batch   = make([]serve.Reading, 0, opts.Batch)
		lat     = quantile.New(0.01)
		stalled int // consecutive fully rejected rounds
	)
	start := time.Now()
	for len(pending) > 0 {
		n := min(opts.Batch, len(pending))
		round := pending[:n]
		batch = batch[:0]
		for _, rd := range round {
			batch = append(batch, rd.Reading)
		}

		t0 := time.Now()
		resp := &binResp
		if binaryEnc {
			encBuf = serve.AppendBatch(encBuf[:0], batch, dim, st.WireFingerprint)
			err = node.IngestFrame(encBuf, 0, resp)
		} else {
			resp, err = node.IngestJSON(serve.IngestRequest{Readings: batch})
		}
		if err != nil {
			return nil, err
		}
		lat.Insert(float64(time.Since(t0)) / float64(time.Microsecond) / float64(n))
		rep.Rejections += resp.Rejected
		if len(resp.Results) != n {
			return nil, fmt.Errorf("twin: ingest returned %d results for %d readings", len(resp.Results), n)
		}

		// Check accepted readings; keep rejected ones (whole per-shard
		// sub-batches, so per-shard order is intact) for the next round,
		// compacting them into round[:rejected] as the scan goes.
		rejected := 0
		for i, rd := range round {
			res := resp.Results[i]
			if !res.Accepted {
				round[rejected] = rd
				rejected++
				continue
			}
			if err := tw.Accept(rd.shard, rd.seq, rd.Reading, res); err != nil {
				return nil, err
			}
			rep.Sent++
			if res.Outlier {
				rep.Outliers++
			}
		}
		pending = requeue(pending, n, rejected)
		if rejected < n {
			stalled = 0
			continue
		}
		// Fully rejected round: honor the server's backoff hint.
		if stalled++; opts.MaxRetries > 0 && stalled > opts.MaxRetries {
			return nil, fmt.Errorf("twin: %d consecutive fully rejected rounds exceed the retry budget of %d", stalled, opts.MaxRetries)
		}
		wait := time.Duration(resp.RetryAfterMS) * time.Millisecond
		if wait <= 0 {
			wait = 50 * time.Millisecond
		}
		time.Sleep(wait)
	}
	rep.Elapsed = time.Since(start)
	if rep.Elapsed > 0 {
		rep.Throughput = float64(rep.Sent) / rep.Elapsed.Seconds()
	}
	if lat.N() > 0 {
		rep.ClientP50us = lat.Query(0.5)
		rep.ClientP99us = lat.Query(0.99)
	}
	if sub != nil {
		if rep.StreamEvents, rep.StreamDropped, err = sub.Check(tw, rep.Sent); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// requeue advances pending past a round that sent its first n readings,
// of which the k rejected ones were compacted in their original order
// into pending[:k]. They are moved into the k slots just consumed, so the
// result is the retries followed by the untouched unsent tail and a round
// costs O(k) — never a copy of the whole tail.
func requeue(pending []loadReading, n, k int) []loadReading {
	copy(pending[n-k:n], pending[:k])
	return pending[n-k:]
}

// Stream collects a binary /subscribe stream on its own goroutine — the
// verdict events and the drops its gap records count — for Check to
// judge once the load has stopped.
type Stream struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	events  []serve.Event
	dropped uint64
	err     error
}

// OpenStream subscribes to every verdict the node (or router) serves.
func OpenStream(node serve.Client) (*Stream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	sr, err := node.Subscribe(ctx, serve.SubscribeQuery{})
	if err != nil {
		cancel()
		return nil, err
	}
	s := &Stream{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer sr.Close()
		for {
			ev, gap, kind, err := sr.Next()
			s.mu.Lock()
			switch {
			case err != nil:
				// EOF is a clean server-side close; a cancelled context is
				// our own stop. Anything else is a framing failure.
				if err != io.EOF && ctx.Err() == nil {
					s.err = err
				}
			case kind == serve.StreamFrameGap:
				s.dropped += gap
			default:
				s.events = append(s.events, ev)
			}
			s.mu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	return s, nil
}

// Close ends the stream and reports a framing failure, if there was one.
func (s *Stream) Close() error {
	s.cancel()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Check waits (up to 5 s) for the stream to account for sent readings,
// closes it, and judges it: every event must pass tw.Event, and delivered
// events plus gap-counted drops must equal sent (conservation). Call it
// once nothing is being ingested any more.
func (s *Stream) Check(tw *Twin, sent int) (events int, dropped uint64, err error) {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		s.mu.Lock()
		n := len(s.events) + int(s.dropped)
		s.mu.Unlock()
		if n >= sent {
			break
		}
	}
	if err := s.Close(); err != nil {
		return 0, 0, fmt.Errorf("twin: subscribe stream: %w", err)
	}
	for _, ev := range s.events {
		if err := tw.Event(ev); err != nil {
			return 0, 0, err
		}
	}
	if len(s.events)+int(s.dropped) != sent {
		return 0, 0, fmt.Errorf("twin: stream conservation: %d events + %d dropped for %d sent", len(s.events), s.dropped, sent)
	}
	return len(s.events), s.dropped, nil
}
