package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"odds/internal/serve"
)

// verdictCheck is the outcome of replaying a run through the twin.
type verdictCheck struct {
	checked    int64 // served verdicts and reads compared with the twin
	unseen     int64 // readings applied by the stack but never answered
	mismatches int64
	firstDiff  string
	digest     uint64 // FNV-64a over (shard, seq, flags) of the digest prefix
	outliers   int64  // estimate-path outliers among the checked verdicts
}

// verify replays everything the connections had accepted through an
// in-process twin of every shard pipeline — same configuration, same
// per-shard seeds, same arrival order — and compares every served verdict
// and every served read bit for bit. One goroutine per connection: the
// connections own disjoint shards.
// The digest covers the first digest readings of each connection: a count,
// not a duration, so two runs of one seed print the same digest however
// fast the host is and whatever recoveries happened on the way.
func verify(stats *serve.StatsResponse, clients []*client, digest int) verdictCheck {
	parts := make([]verdictCheck, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			parts[i] = c.verify(stats, digest)
		}(i, c)
	}
	wg.Wait()
	var out verdictCheck
	h := fnv.New64a()
	for _, p := range parts {
		out.checked += p.checked
		out.unseen += p.unseen
		out.mismatches += p.mismatches
		out.outliers += p.outliers
		if out.firstDiff == "" {
			out.firstDiff = p.firstDiff
		}
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], p.digest)
		h.Write(b[:])
	}
	out.digest = h.Sum64()
	return out
}

func (c *client) verify(stats *serve.StatsResponse, digest int) verdictCheck {
	var out verdictCheck
	fail := func(format string, args ...any) {
		out.mismatches++
		if out.firstDiff == "" {
			out.firstDiff = fmt.Sprintf("conn %d: ", c.id) + fmt.Sprintf(format, args...)
		}
	}
	twins := make([]*serve.Pipeline, c.in.w.shards)
	for s, idx := range c.ci.pos {
		if len(idx) == 0 {
			continue
		}
		pl, err := serve.NewPipeline(stats.PipelineConfigFor(s))
		if err != nil {
			fail("twin for shard %d: %v", s, err)
			return out
		}
		twins[s] = pl
	}

	answer := func(q *queryRec) {
		sensor := c.ci.sensors[q.sensor]
		s := c.ci.shard[q.sensor]
		v := []float64{q.value}
		out.checked++
		if q.prob {
			if want := twins[s].QueryProbSensor(sensor, v, 0.01); math.Float64bits(want) != math.Float64bits(q.gotP) {
				fail("read at pos %d: served prob %v, twin %v", q.pos, q.gotP, want)
			}
			return
		}
		tv := twins[s].QueryOutlierSensor(sensor, v)
		want := serve.QueryResponse{Shard: s, Seq: tv.Seq, Outlier: tv.Outlier, Exact: tv.Exact, Warmed: tv.Warmed}
		if q.got != want {
			fail("read at pos %d: served %+v, twin %+v", q.pos, q.got, want)
		}
	}

	h := fnv.New64a()
	var (
		names serve.Interner
		rd    []serve.Reading
		qi    int
		rec   [11]byte
	)
	n := c.in.w.batch
	for pos := 0; pos < c.next; pos++ {
		if pos%n == 0 {
			var err error
			if rd, err = c.in.decodeFrame(c.ci.frame(pos/n), rd, &names); err != nil {
				fail("own frame %d: %v", pos/n, err)
				return out
			}
		}
		for ; qi < len(c.queries) && c.queries[qi].pos == pos; qi++ {
			answer(&c.queries[qi])
		}
		s := c.ci.shardAt(pos)
		tv := twins[s].IngestSensor(rd[pos%n].Sensor, rd[pos%n].Value)
		got := c.flags[pos]
		want := byte(flagSeen)
		if tv.Outlier {
			want |= flagOutlier
		}
		if tv.Exact {
			want |= flagExact
		}
		if tv.Warmed {
			want |= flagWarmed
		}
		if pos < digest {
			// The twin's verdict, which every served verdict must equal: a
			// reading applied but never answered hashes like the rest.
			binary.LittleEndian.PutUint16(rec[0:], uint16(s))
			binary.LittleEndian.PutUint64(rec[2:], tv.Seq)
			rec[10] = want
			h.Write(rec[:])
		}
		if got == flagUnseen {
			out.unseen++
			continue
		}
		if tv.Outlier {
			out.outliers++
		}
		out.checked++
		if got != want || tv.Seq != c.ordinal(pos) {
			fail("pos %d shard %d seq %d: served flags %04b, twin %04b", pos, s, tv.Seq, got, want)
		}
	}
	for ; qi < len(c.queries); qi++ {
		if c.queries[qi].pos != c.next {
			fail("read recorded at pos %d, past the accepted stream (%d)", c.queries[qi].pos, c.next)
			continue
		}
		answer(&c.queries[qi])
	}
	if c.next < digest {
		fail("only %d readings accepted, the digest needs %d", c.next, digest)
	}
	out.digest = h.Sum64()
	return out
}
