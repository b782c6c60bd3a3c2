package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"odds/internal/quantile"
	"odds/internal/stats"
	"odds/internal/stream"
)

// LoadOptions configures one load-generation run against a server.
type LoadOptions struct {
	// BaseURL of the server, e.g. "http://localhost:8077".
	BaseURL string
	// Sensors is the number of simulated sensors (round-robin arrivals).
	Sensors int
	// Total is the length of the seeded stream. A run always generates
	// readings [0, Total) but only sends the suffix the server has not
	// already processed (see CatchUp).
	Total int
	// Batch readings per request.
	Batch int
	// Stream names the per-sensor source (stream.ByName).
	Stream string
	// Seed derives every per-sensor stream; the same (Seed, Sensors,
	// Stream) triple regenerates the identical global stream, which is
	// what lets a second run resume against a restarted server.
	Seed int64
	// CatchUp (default true via NewLoadOptions) replays the prefix the
	// server has already seen into the in-process twin without sending
	// it, using per-shard arrival counts from /stats. This makes the run
	// idempotent across server restarts: after a crash+restore the
	// server's arrivals rewind to the snapshot point and the client
	// simply re-sends the lost tail, checking the re-served verdicts
	// against the twin's stored expectations.
	CatchUp bool
	// Client defaults to http.DefaultClient.
	Client *http.Client
	// MaxRetries bounds consecutive backpressure retries of one batch
	// (0 = unlimited).
	MaxRetries int
	// Encoding selects the /ingest wire encoding: "json" (default) or
	// "binary" (ODWP frames over a persistent connection). Both run the
	// identical twin oracle, so an A/B of the two encodings pins their
	// verdicts bit-identical.
	Encoding string
	// Subscribe additionally opens a binary /subscribe stream for the
	// run and verifies every pushed verdict against the twin — the
	// push-path half of the oracle.
	Subscribe bool
}

// NewLoadOptions fills defaults.
func NewLoadOptions(baseURL string) LoadOptions {
	return LoadOptions{
		BaseURL: baseURL,
		Sensors: 8,
		Total:   20000,
		Batch:   64,
		Stream:  "mixture",
		Seed:    1,
		CatchUp: true,
	}
}

// LoadReport summarizes a run. The acceptance oracle is Disagreements ==
// 0: every verdict served over the wire was bit-identical to the
// in-process twin running the same pipelines on the same stream.
type LoadReport struct {
	Sent          int           `json:"sent"`
	CaughtUp      int           `json:"caught_up"` // replayed into the twin only
	Rejections    int           `json:"rejections"`
	Agreements    int           `json:"agreements"`
	Disagreements int           `json:"disagreements"`
	FirstDiff     string        `json:"first_diff,omitempty"`
	Elapsed       time.Duration `json:"elapsed_ns"`
	Throughput    float64       `json:"throughput_rps"`
	ClientP50us   float64       `json:"client_p50_us"`
	ClientP99us   float64       `json:"client_p99_us"`
	Outliers      int           `json:"outliers"`

	// Subscribe-stream oracle (populated when LoadOptions.Subscribe):
	// every pushed verdict must match the twin, and events + ring drops
	// must account for every reading sent while the stream was open.
	StreamEvents        int    `json:"stream_events,omitempty"`
	StreamDropped       uint64 `json:"stream_dropped,omitempty"`
	StreamDisagreements int    `json:"stream_disagreements,omitempty"`
	StreamFirstDiff     string `json:"stream_first_diff,omitempty"`
}

// reading is one generated stream element with its routing fixed.
type loadReading struct {
	Reading
	shard int
	seq   uint64 // per-shard sequence this reading occupies
}

// RunLoad replays a seeded multi-sensor stream against a server and
// verifies every served verdict against an in-process twin. See
// LoadOptions for the resume/catch-up semantics.
func RunLoad(opts LoadOptions) (*LoadReport, error) {
	if opts.Client == nil {
		opts.Client = http.DefaultClient
	}
	if opts.Sensors <= 0 || opts.Total <= 0 || opts.Batch <= 0 {
		return nil, fmt.Errorf("serve: sensors, total, and batch must be positive")
	}
	binaryEnc := false
	switch opts.Encoding {
	case "", "json":
	case "binary":
		binaryEnc = true
	default:
		return nil, fmt.Errorf("serve: unknown encoding %q (json or binary)", opts.Encoding)
	}

	node := Client{HTTP: opts.Client, Base: opts.BaseURL}
	st, err := node.Stats()
	if err != nil {
		return nil, err
	}
	dim := st.Core.Dim

	// The twin: one pipeline per shard, configured and seeded exactly as
	// the server's.
	twins := make([]*Pipeline, st.Shards)
	for i := range twins {
		if twins[i], err = NewPipeline(st.PipelineConfigFor(i)); err != nil {
			return nil, err
		}
	}

	// Generate the full seeded stream with per-shard sequence numbers.
	sensors := make([]stream.Source, opts.Sensors)
	names := make([]string, opts.Sensors)
	for i := range sensors {
		names[i] = fmt.Sprintf("sensor-%03d", i)
		if sensors[i], err = stream.ByName(opts.Stream, dim, stats.ChildSeed(opts.Seed, i)); err != nil {
			return nil, err
		}
	}
	readings := make([]loadReading, opts.Total)
	seqs := make([]uint64, st.Shards)
	for k := range readings {
		i := k % opts.Sensors
		v := sensors[i].Next()
		sh := ShardOf(names[i], st.Shards)
		seqs[sh]++
		readings[k] = loadReading{
			Reading: Reading{Sensor: names[i], Value: v},
			shard:   sh,
			seq:     seqs[sh],
		}
	}

	rep := &LoadReport{}
	lat := quantile.New(0.01)

	// Catch-up: feed the twin the per-shard prefix the server has
	// already processed, without sending it.
	arrivals := make([]uint64, st.Shards)
	if opts.CatchUp {
		for _, ss := range st.PerShard {
			arrivals[ss.Shard] = ss.Arrivals
		}
	}
	var pending []loadReading
	for _, rd := range readings {
		if rd.seq <= arrivals[rd.shard] {
			tv := twins[rd.shard].IngestSensor(rd.Sensor, rd.Value)
			if tv.Seq != rd.seq {
				return nil, fmt.Errorf("serve: twin desync during catch-up: shard %d seq %d vs %d", rd.shard, tv.Seq, rd.seq)
			}
			rep.CaughtUp++
			continue
		}
		pending = append(pending, rd)
	}

	// The push-path oracle: open the subscribe stream before the first
	// batch so every verdict the run produces is expected on it.
	var (
		ls     *loadStream
		expect map[evKey]Event
	)
	if opts.Subscribe {
		if ls, err = openLoadStream(node); err != nil {
			return nil, err
		}
		defer ls.cancel()
		expect = make(map[evKey]Event, len(pending))
	}

	// Reused binary-client buffers: at steady state the encode→POST→decode
	// round allocates only what net/http itself needs.
	var (
		encBuf  []byte
		binResp IngestResponse
	)

	start := time.Now()
	batchReadings := make([]Reading, 0, opts.Batch)
	for len(pending) > 0 {
		n := opts.Batch
		if n > len(pending) {
			n = len(pending)
		}
		batch := pending[:n]
		batchReadings = batchReadings[:0]
		for _, rd := range batch {
			batchReadings = append(batchReadings, rd.Reading)
		}

		t0 := time.Now()
		resp := &binResp
		if binaryEnc {
			encBuf = AppendBatch(encBuf[:0], batchReadings, dim, st.WireFingerprint)
			err = node.IngestFrame(encBuf, 0, resp)
		} else {
			resp, err = node.IngestJSON(IngestRequest{Readings: batchReadings})
		}
		if err != nil {
			return nil, err
		}
		lat.Insert(float64(time.Since(t0)) / float64(time.Microsecond) / float64(n))

		rep.Rejections += resp.Rejected
		if len(resp.Results) != n {
			return nil, fmt.Errorf("serve: ingest returned %d results for %d readings", len(resp.Results), n)
		}

		// Check accepted readings against the twin; keep rejected ones
		// (whole per-shard sub-batches, so per-shard order is intact)
		// at the front of the next round, compacting them into
		// batch[:rejected] as the scan goes.
		rejected := 0
		for i, rd := range batch {
			res := resp.Results[i]
			if !res.Accepted {
				batch[rejected] = rd
				rejected++
				continue
			}
			tv := twins[rd.shard].IngestSensor(rd.Sensor, rd.Value)
			rep.Sent++
			if tv.Outlier {
				rep.Outliers++
			}
			if expect != nil {
				expect[evKey{rd.shard, tv.Seq}] = Event{
					Sensor: rd.Sensor, Shard: rd.shard, Seq: tv.Seq,
					Outlier: tv.Outlier, Exact: tv.Exact, Warmed: tv.Warmed,
				}
			}
			if res.Seq == tv.Seq && res.Outlier == tv.Outlier && res.Exact == tv.Exact && res.Warmed == tv.Warmed {
				rep.Agreements++
			} else {
				rep.Disagreements++
				if rep.FirstDiff == "" {
					rep.FirstDiff = fmt.Sprintf(
						"shard %d seq %d (%s): served {seq %d outlier %v exact %v warmed %v} twin {seq %d outlier %v exact %v warmed %v}",
						rd.shard, rd.seq, rd.Sensor,
						res.Seq, res.Outlier, res.Exact, res.Warmed,
						tv.Seq, tv.Outlier, tv.Exact, tv.Warmed)
				}
			}
		}
		pending = requeue(pending, n, rejected)
		if rejected == n {
			// Fully rejected round: honor the server's backoff hint.
			if opts.MaxRetries > 0 {
				opts.MaxRetries--
				if opts.MaxRetries == 0 {
					return nil, fmt.Errorf("serve: retry budget exhausted under backpressure")
				}
			}
			wait := time.Duration(resp.RetryAfterMS) * time.Millisecond
			if wait <= 0 {
				wait = 50 * time.Millisecond
			}
			time.Sleep(wait)
		}
	}
	rep.Elapsed = time.Since(start)
	if rep.Elapsed > 0 {
		rep.Throughput = float64(rep.Sent) / rep.Elapsed.Seconds()
	}
	if lat.N() > 0 {
		rep.ClientP50us = lat.Query(0.5)
		rep.ClientP99us = lat.Query(0.99)
	}

	if ls != nil {
		// Quiesce: nothing is being ingested anymore, so the stream drains
		// to conservation — every sent reading accounted for as a delivered
		// event or a counted ring drop.
		deadline := time.Now().Add(5 * time.Second)
		for {
			n, d := ls.counts()
			if n+int(d) >= rep.Sent || time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		events, dropped, serr := ls.stop()
		if serr != nil {
			return nil, fmt.Errorf("serve: subscribe stream: %w", serr)
		}
		rep.StreamEvents = len(events)
		rep.StreamDropped = dropped
		for _, ev := range events {
			exp, ok := expect[evKey{ev.Shard, ev.Seq}]
			if ok && exp == ev {
				continue
			}
			rep.StreamDisagreements++
			if rep.StreamFirstDiff == "" {
				rep.StreamFirstDiff = fmt.Sprintf("stream event %+v vs twin %+v (expected=%t)", ev, exp, ok)
			}
		}
		if rep.StreamEvents+int(rep.StreamDropped) != rep.Sent && rep.StreamFirstDiff == "" {
			rep.StreamDisagreements++
			rep.StreamFirstDiff = fmt.Sprintf("stream conservation: %d events + %d dropped for %d sent",
				rep.StreamEvents, rep.StreamDropped, rep.Sent)
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

// evKey identifies one verdict: sequence numbers are per-shard.
type evKey struct {
	shard int
	seq   uint64
}

// loadStream is the subscribe half of the oracle: a goroutine reading a
// binary /subscribe stream, accumulating verdict events and gap counts.
type loadStream struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu      sync.Mutex
	events  []Event
	dropped uint64
	err     error
}

func openLoadStream(node Client) (*loadStream, error) {
	ctx, cancel := context.WithCancel(context.Background())
	sr, err := node.Subscribe(ctx, SubscribeQuery{})
	if err != nil {
		cancel()
		return nil, err
	}
	ls := &loadStream{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		defer sr.Close()
		for {
			ev, gap, kind, err := sr.Next()
			if err != nil {
				// EOF is a clean server-side close; a cancelled context is
				// our own stop. Anything else is a framing failure.
				if err != io.EOF && ctx.Err() == nil {
					ls.mu.Lock()
					ls.err = err
					ls.mu.Unlock()
				}
				return
			}
			ls.mu.Lock()
			if kind == StreamFrameGap {
				ls.dropped += gap
			} else {
				ls.events = append(ls.events, ev)
			}
			ls.mu.Unlock()
		}
	}()
	return ls, nil
}

func (ls *loadStream) counts() (int, uint64) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return len(ls.events), ls.dropped
}

// stop ends the stream and returns everything it delivered.
func (ls *loadStream) stop() ([]Event, uint64, error) {
	ls.cancel()
	<-ls.done
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.events, ls.dropped, ls.err
}
