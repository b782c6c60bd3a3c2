// Package twin is the serving tier's verdict oracle, written once: an
// in-process replay of every shard pipeline, built from a node's (or a
// router's) /stats, that every served verdict must equal bit for bit.
// oddload, the serve and cluster integration tests and the cluster chaos
// suite all judge what the server said through it.
package twin

import (
	"fmt"

	"odds/internal/serve"
)

// record is one reading the twin has judged: who sent it and its verdict.
type record struct {
	sensor string
	v      serve.Verdict
	pushed bool // delivered on a /subscribe stream already
}

// Twin holds one pipeline per shard, configured and seeded exactly as the
// server's, and every verdict it has produced, indexed by (shard, seq−1).
// It is single-goroutine: the caller's send loop drives it.
type Twin struct {
	pipes  []*serve.Pipeline
	served [][]record
}

// New builds the twin of the server whose /stats reply st is.
func New(st *serve.StatsResponse) (*Twin, error) {
	t := &Twin{pipes: make([]*serve.Pipeline, st.Shards), served: make([][]record, st.Shards)}
	for sh := range t.pipes {
		p, err := serve.NewPipeline(st.PipelineConfigFor(sh))
		if err != nil {
			return nil, err
		}
		t.pipes[sh] = p
	}
	return t, nil
}

// CatchUp feeds the shard's next reading to the twin without a served
// verdict to check: the prefix a resumed run finds already processed.
func (t *Twin) CatchUp(shard int, r serve.Reading) {
	t.ingest(shard, r)
}

func (t *Twin) ingest(shard int, r serve.Reading) serve.Verdict {
	v := t.pipes[shard].IngestSensor(r.Sensor, r.Value)
	t.served[shard] = append(t.served[shard], record{sensor: r.Sensor, v: v})
	return v
}

// Accept checks one served reading the client sent as the shard's seq-th:
//   - seq = stored+1: the twin ingests it and must give the served verdict;
//   - seq ≤ stored: a re-serve after a rewind (restore, failover) must
//     repeat the stored verdict for the same sensor;
//   - anything else is a gap.
//
// The error names the shard, seq, sensor, value and both verdicts.
func (t *Twin) Accept(shard int, seq uint64, r serve.Reading, served serve.ReadingResult) error {
	got := serve.Verdict{Seq: served.Seq, Outlier: served.Outlier, Exact: served.Exact, Warmed: served.Warmed}
	stored := uint64(len(t.served[shard]))
	var want serve.Verdict
	switch {
	case seq == stored+1:
		want = t.ingest(shard, r)
	case seq >= 1 && seq <= stored:
		rec := t.served[shard][seq-1]
		if rec.sensor != r.Sensor {
			return fmt.Errorf("twin: shard %d seq %d re-sent as %s, first sent as %s", shard, seq, r.Sensor, rec.sensor)
		}
		want = rec.v
	default:
		return fmt.Errorf("twin: shard %d seq %d (%s) sent after seq %d: gap", shard, seq, r.Sensor, stored)
	}
	if got != want {
		return fmt.Errorf("twin: shard %d seq %d (%s, value %v): served %+v, twin %+v", shard, seq, r.Sensor, r.Value, got, want)
	}
	return nil
}

// Event checks one verdict pushed on a /subscribe stream: its (shard, seq)
// must have been accepted, must not have been pushed before, and the event
// must equal the stored record.
func (t *Twin) Event(ev serve.Event) error {
	if ev.Shard < 0 || ev.Shard >= len(t.served) || ev.Seq < 1 || ev.Seq > uint64(len(t.served[ev.Shard])) {
		return fmt.Errorf("twin: stream event %+v for a reading never sent", ev)
	}
	rec := &t.served[ev.Shard][ev.Seq-1]
	if rec.pushed {
		return fmt.Errorf("twin: duplicate stream event %+v", ev)
	}
	rec.pushed = true
	want := serve.Event{Sensor: rec.sensor, Shard: ev.Shard, Seq: ev.Seq,
		Outlier: rec.v.Outlier, Warmed: rec.v.Warmed}
	if ev != want {
		return fmt.Errorf("twin: stream event %+v, twin %+v", ev, want)
	}
	return nil
}
