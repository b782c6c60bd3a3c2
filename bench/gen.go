package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"odds/internal/serve"
	"odds/internal/stats"
	"odds/internal/stream"
)

// connOf is the shard-ownership partition: every shard belongs to exactly
// one connection, so per-shard arrival order — and with it every verdict —
// is fixed by the seed even with both connections sending at once.
func connOf(shard int) int { return shard % conns }

// fleet lists the workload's sensor ids with the groups interleaved in
// proportion to their sizes, so any run of consecutive ids carries the
// fleet's backend mix.
func (w *workload) fleet() []string {
	type keyed struct {
		key   float64
		group int
		name  string
	}
	var all []keyed
	for g, grp := range w.groups {
		width := len(fmt.Sprint(grp.count - 1))
		if width < 3 {
			width = 3
		}
		for k := 0; k < grp.count; k++ {
			all = append(all, keyed{
				key:   (float64(k) + 0.5) / float64(grp.count),
				group: g,
				name:  fmt.Sprintf("%s%0*d", grp.prefix, width, k),
			})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].key != all[j].key {
			return all[i].key < all[j].key
		}
		return all[i].group < all[j].group
	})
	names := make([]string, len(all))
	for i, k := range all {
		names[i] = k.name
	}
	return names
}

// connInput is one connection's whole seeded input: its sensors (those
// whose shard it owns, visited round-robin), and every request body it
// may send, encoded before the clock starts.
type connInput struct {
	sensors []string
	shard   []int   // shard[i] is sensors[i]'s shard
	pos     [][]int // pos[s] lists the i with shard[i] == s, ascending
	// Every request body back to back, and where each ends: frame f is
	// arena[ends[f-1]:ends[f]]. Both are off the Go heap (offheap_unix.go).
	arena []byte
	ends  []int
	// warmFrames is the number of leading frames that bring every shard
	// this connection feeds to 2·|W| arrivals.
	warmFrames int
}

// frames is how many request bodies the connection has.
func (ci *connInput) frames() int { return len(ci.ends) }

// frame is the f-th request body.
func (ci *connInput) frame(f int) []byte {
	start := 0
	if f > 0 {
		start = ci.ends[f-1]
	}
	return ci.arena[start:ci.ends[f]:ci.ends[f]]
}

// shardAt is the shard of the connection's j-th reading.
func (ci *connInput) shardAt(j int) int { return ci.shard[j%len(ci.sensors)] }

// position is the stream index of shard s's q-th reading (q is 1-based,
// as pipeline sequence numbers are).
func (ci *connInput) position(s int, q uint64) int {
	idx := ci.pos[s]
	k := int(q - 1)
	return k/len(idx)*len(ci.sensors) + idx[k%len(idx)]
}

// input is a workload's generated traffic.
type input struct {
	w     *workload
	dim   int
	fp    uint64
	conns [conns]connInput

	// Generator self-measurement (guards that it is not the bottleneck).
	took     time.Duration // the whole of generate
	encodeNS float64       // ns per reading spent encoding frames
	nextNS   float64       // ns per stream.Next
}

// generate builds the traffic for seed: readings per connection cover
// perConn readings beyond the warm-up. The same (workload, seed, perConn,
// fp) always yields the same bytes.
func generate(w *workload, seed int64, perConn int, fp uint64) (*input, error) {
	began := time.Now()
	in := &input{w: w, dim: 1, fp: fp}
	names := w.fleet()
	pcfg := w.pipeline()
	warm := 2 * pcfg.Core.WindowCap

	var nextDur, encDur time.Duration
	var nextN, encN int
	for c := 0; c < conns; c++ {
		ci := &in.conns[c]
		ci.pos = make([][]int, w.shards)
		var srcs []stream.Source
		for g, name := range names {
			s := serve.ShardOf(name, w.shards)
			if connOf(s) != c {
				continue
			}
			src, err := stream.ByName(w.stream, in.dim, stats.ChildSeed(seed, g))
			if err != nil {
				return nil, err
			}
			ci.pos[s] = append(ci.pos[s], len(ci.sensors))
			ci.sensors = append(ci.sensors, name)
			ci.shard = append(ci.shard, s)
			srcs = append(srcs, src)
		}
		if len(ci.sensors) == 0 {
			return nil, fmt.Errorf("%s: connection %d owns no sensors", w.name, c)
		}

		// Readings needed before the thinnest owned shard reaches 2·|W|.
		period := len(ci.sensors)
		warmReadings := 0
		for _, idx := range ci.pos {
			if len(idx) == 0 {
				continue
			}
			if n := (warm + len(idx) - 1) / len(idx) * period; n > warmReadings {
				warmReadings = n
			}
		}
		ci.warmFrames = (warmReadings + w.batch - 1) / w.batch
		nFrames := ci.warmFrames + (perConn+w.batch-1)/w.batch

		batch := make([]serve.Reading, w.batch)
		// No frame is larger than frameMax: a binary reading is its id, a
		// length and its values; a JSON one adds keys, punctuation and up to
		// 24 characters a value. Pages never written cost nothing.
		longest := 0
		for _, name := range ci.sensors {
			longest = max(longest, len(name))
		}
		frameMax := 64 + w.batch*(longest+32+32*in.dim)
		arena, err := offheap[byte](nFrames * frameMax)
		if err != nil {
			return nil, err
		}
		arena = arena[:0]
		if ci.ends, err = offheap[int](nFrames); err != nil {
			return nil, err
		}
		j := 0
		for f := range ci.ends {
			t0 := time.Now()
			for i := range batch {
				k := j % period
				batch[i] = serve.Reading{Sensor: ci.sensors[k], Value: srcs[k].Next()}
				j++
			}
			t1 := time.Now()
			if len(arena)+frameMax > cap(arena) {
				return nil, fmt.Errorf("%s: frame %d of connection %d does not fit the arena", w.name, f, c)
			}
			if w.json {
				body, err := json.Marshal(serve.IngestRequest{Readings: batch})
				if err != nil {
					return nil, err
				}
				arena = append(arena, body...)
			} else {
				arena = serve.AppendBatch(arena, batch, in.dim, fp)
			}
			ci.ends[f] = len(arena)
			nextDur += t1.Sub(t0)
			encDur += time.Since(t1)
		}
		ci.arena = arena
		nextN += j
		encN += j
	}
	in.nextNS = float64(nextDur.Nanoseconds()) / float64(nextN)
	in.encodeNS = float64(encDur.Nanoseconds()) / float64(encN)
	in.took = time.Since(began)
	return in, nil
}

// decodeFrame recovers the readings of one of the input's own frames.
func (in *input) decodeFrame(frame []byte, dst []serve.Reading, names *serve.Interner) ([]serve.Reading, error) {
	if in.w.json {
		req := serve.IngestRequest{Readings: dst[:0]}
		if err := json.Unmarshal(frame, &req); err != nil {
			return nil, err
		}
		return req.Readings, nil
	}
	return serve.DecodeBatchInto(frame, dst, in.dim, in.w.batch, in.fp, names)
}

// encode builds a request body for readings (the retry and rewind path;
// first sends use the pre-encoded frames).
func (in *input) encode(dst []byte, readings []serve.Reading) ([]byte, error) {
	if in.w.json {
		return json.Marshal(serve.IngestRequest{Readings: readings})
	}
	return serve.AppendBatch(dst[:0], readings, in.dim, in.fp), nil
}
