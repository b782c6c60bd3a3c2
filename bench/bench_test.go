package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"odds/internal/serve"
)

// TestPercentile pins the nearest-rank percentile against a counted
// reference, and the rule that a tail percentile needs ten samples beyond.
func TestPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 10, 99, 100, 101, 1000, 1234} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(rng.Intn(50)) // ties on purpose
		}
		sort.Float64s(xs)
		for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			got := percentile(xs, p)
			// Reference: the smallest sample with at least p·n samples ≤ it.
			var want float64
			for _, x := range xs {
				atOrBelow := sort.SearchFloat64s(xs, x+0.5)
				if float64(atOrBelow) >= p*float64(n) {
					want = x
					break
				}
			}
			if got != want {
				t.Errorf("n=%d p=%g: percentile %v, reference %v", n, p, got, want)
			}
			// The rule is on ranks: ten samples must rank beyond the one reported.
			rank := sort.SearchFloat64s(xs, got+0.5) // samples at or below it, ties included
			for rank > 0 && float64(rank-1) >= p*float64(n) {
				rank-- // back to the first rank that reaches p·n
			}
			if supported(n, p) != (n-rank >= 10) {
				t.Errorf("n=%d p=%g: supported=%t with %d ranks beyond", n, p, supported(n, p), n-rank)
			}
		}
	}
	if supported(999, 0.99) || !supported(1000, 0.99) {
		t.Error("p99 must need exactly 1000 samples")
	}
}

// TestPacer: latency runs from the due time, so a slow reply is charged to
// the batches queued behind it, and a batch that starts late though its
// connection was idle is counted against the generator.
func TestPacer(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }
	p := pacer{first: t0, interval: 10 * time.Millisecond, idleAt: t0}

	// Batch 0 on time, served in 2 ms.
	p.begin(0, at(0.1))
	if rtt := p.end(0, at(2)); rtt != 2*time.Millisecond {
		t.Fatalf("batch 0 rtt %v", rtt)
	}
	// Batch 1 on time, but the stack stalls: its reply lands at 35 ms.
	p.begin(1, at(10.05))
	if rtt := p.end(1, at(35)); rtt != 25*time.Millisecond {
		t.Fatalf("batch 1 rtt %v", rtt)
	}
	// Batches 2 and 3 were due at 20 and 30 ms, during the stall. They go out
	// back to back at 35 ms; each is timed from when it was due, and neither
	// is the generator's fault.
	p.begin(2, at(35))
	if rtt := p.end(2, at(37)); rtt != 17*time.Millisecond {
		t.Fatalf("batch 2 rtt %v, want 17ms from its due time", rtt)
	}
	p.begin(3, at(37))
	if rtt := p.end(3, at(39)); rtt != 9*time.Millisecond {
		t.Fatalf("batch 3 rtt %v, want 9ms from its due time", rtt)
	}
	if p.late != 0 {
		t.Fatalf("%d batches blamed on the generator during a stack stall", p.late)
	}
	// Batch 4 is due at 40 ms with the connection idle since 39 ms, but the
	// sender itself wakes 6 ms late: that is generator lateness, and it
	// still counts toward the batch's latency.
	p.begin(4, at(46))
	if rtt := p.end(4, at(48)); rtt != 8*time.Millisecond {
		t.Fatalf("batch 4 rtt %v", rtt)
	}
	if p.late != 1 {
		t.Fatalf("late = %d after a sender stall, want 1", p.late)
	}
	// Within the slack (lateAfter) nothing is counted.
	p.begin(5, at(50.5))
	p.end(5, at(52))
	if p.late != 1 {
		t.Fatalf("late = %d after an on-time batch", p.late)
	}
}

// TestHostMeter: the compute yardstick keeps its window sorted and equal
// to the ring it slides (or it would be timing a different loop as it ages),
// and both yardsticks yield a finite positive speed.
func TestHostMeter(t *testing.T) {
	h, err := newHostMeter()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	for i := 0; i < 3; i++ {
		h.sampleCompute(2 * time.Millisecond)
		if err := h.sampleWire(2 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	w := h.windows[0]
	if !sort.Float64sAreSorted(w.sorted) {
		t.Error("window no longer sorted")
	}
	ring := append([]float64(nil), w.ring...)
	sort.Float64s(ring)
	if !reflect.DeepEqual(ring, w.sorted) {
		t.Error("sorted window and ring hold different values")
	}
	speed, compute, wire := h.speed()
	if !(speed > 0 && compute > 0 && wire > 0) || speed > 1e6 {
		t.Errorf("speed %v (compute %v, wire %v)", speed, compute, wire)
	}
}

// TestOffheap: memory from outside the Go heap comes zeroed, holds what is
// written, keeps append within its capacity in place, and can be released
// after reslicing.
func TestOffheap(t *testing.T) {
	recs, err := offheap[queryRec](1000)
	if err != nil {
		t.Fatal(err)
	}
	if recs[999] != (queryRec{}) {
		t.Error("not zeroed")
	}
	q := recs[:0]
	for i := 0; i < 1000; i++ {
		q = append(q, queryRec{pos: i, value: float64(i)})
	}
	if &q[0] != &recs[0] || recs[999].pos != 999 {
		t.Error("append within capacity moved the slice")
	}
	release(q[:10])
	if none, err := offheap[byte](0); err != nil || none != nil {
		t.Errorf("zero-length request: %v, %v", none, err)
	}
	release([]byte(nil))
}

// TestOwnership: the shard→connection map is a partition (disjoint and
// complete) at every shard count the workloads use, and generated inputs
// respect it.
func TestOwnership(t *testing.T) {
	for _, shards := range []int{2, 4, 8} {
		owned := make([]int, conns)
		for s := 0; s < shards; s++ {
			c := connOf(s)
			if c < 0 || c >= conns {
				t.Fatalf("shards=%d: shard %d owned by connection %d", shards, s, c)
			}
			owned[c]++
		}
		for c, n := range owned {
			if n != shards/conns {
				t.Errorf("shards=%d: connection %d owns %d shards", shards, c, n)
			}
		}
	}
	for _, w := range workloads {
		in, err := generate(w.small(), 3, 4*w.batch, 0x0dd5)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]int{}
		for c := range in.conns {
			ci := &in.conns[c]
			for i, name := range ci.sensors {
				if prev, dup := seen[name]; dup {
					t.Errorf("%s: sensor %s on connections %d and %d", w.name, name, prev, c)
				}
				seen[name] = c
				if s := serve.ShardOf(name, w.shards); s != ci.shard[i] || connOf(s) != c {
					t.Errorf("%s: sensor %s (shard %d) sits on connection %d", w.name, name, s, c)
				}
			}
			// position inverts ordinal bookkeeping: the q-th reading of a
			// shard is where the stream says it is.
			cl, err := newClient(c, in, "", 3)
			if err != nil {
				t.Fatal(err)
			}
			for pos := 0; pos < 3*len(ci.sensors); pos++ {
				if back := ci.position(ci.shardAt(pos), cl.ordinal(pos)); back != pos {
					t.Fatalf("%s: position(ordinal(%d)) = %d", w.name, pos, back)
				}
			}
		}
		if len(seen) != len(w.small().fleet()) {
			t.Errorf("%s: %d of %d sensors assigned", w.name, len(seen), len(w.small().fleet()))
		}
	}
}

// TestGenerateDeterministic: the same seed yields the same frames, byte
// for byte; another seed does not.
func TestGenerateDeterministic(t *testing.T) {
	for _, w := range workloads {
		w := w.small()
		a, err := generate(w, 11, 8*w.batch, 0x0dd5)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(w, 11, 8*w.batch, 0x0dd5)
		c, _ := generate(w, 12, 8*w.batch, 0x0dd5)
		for k := range a.conns {
			if !bytes.Equal(a.conns[k].arena, b.conns[k].arena) || !reflect.DeepEqual(a.conns[k].ends, b.conns[k].ends) {
				t.Errorf("%s: seed 11 twice gave different frames on connection %d", w.name, k)
			}
			if bytes.Equal(a.conns[k].arena, c.conns[k].arena) {
				t.Errorf("%s: seeds 11 and 12 gave the same frames on connection %d", w.name, k)
			}
			f := a.conns[k].frame(0)
			rd, err := a.decodeFrame(f, nil, &serve.Interner{})
			if err != nil || len(rd) != w.batch {
				t.Fatalf("%s: own frame does not decode: %d readings, %v", w.name, len(rd), err)
			}
			again, _ := a.encode(nil, rd)
			if !w.json && !bytes.Equal(again, f) {
				t.Errorf("%s: re-encoding a decoded frame changed it", w.name)
			}
		}
	}
}

// TestResendAcrossFrames: a rewind after a restore re-sends one shard's
// readings, which sit in several frames; the body sent must carry each
// position's own value, though decoding a frame reuses the storage of the
// one decoded before it.
func TestResendAcrossFrames(t *testing.T) {
	w, err := workloadByName("kernel-steady")
	if err != nil {
		t.Fatal(err)
	}
	w = w.small()
	in, err := generate(w, 5, 4*w.batch, 0x0dd5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newClient(0, in, "", 5)
	if err != nil {
		t.Fatal(err)
	}
	positions := []int{w.batch - 1, w.batch, 2*w.batch - 1, 2 * w.batch, 3*w.batch + 1}
	var want []serve.Reading
	for _, pos := range positions {
		rd, err := in.decodeFrame(in.conns[0].frame(pos/w.batch), nil, &serve.Interner{})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rd[pos%w.batch])
	}
	var got []serve.Reading
	c.send = func(body []byte) ([]serve.ReadingResult, error) {
		if got, err = in.decodeFrame(body, nil, &serve.Interner{}); err != nil {
			return nil, err
		}
		return make([]serve.ReadingResult, len(got)), nil // all refused
	}
	keep, sendErr, fatal := c.attempt(positions, nil)
	if sendErr != nil || fatal != nil {
		t.Fatal(sendErr, fatal)
	}
	if !reflect.DeepEqual(keep, positions) {
		t.Errorf("refused positions %v, sent %v", keep, positions)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-sent body carries %v, the stream has %v", got, want)
	}
}

// smokeRun runs one workload's smoke configuration.
func smokeRun(t *testing.T, name string, seed int64, traced bool) *outcome {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := runConfig{w: w.small(), seed: seed, seconds: 0.6, dir: t.TempDir(), sz: smoke}
	var out *outcome
	if traced {
		out, err = runTraced(cfg, "")
	} else {
		out, err = runEndToEnd(cfg)
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !out.correct || out.failed != 0 || out.attempted == 0 {
		t.Fatalf("%s: correct=%t, %d of %d failed\n%v", name, out.correct, out.failed, out.attempted, out.notes)
	}
	return out
}

// TestSmoke drives every phase of every workload end to end at smoke size
// — closed loop, paced loop, reads, crash recoveries (a failover on
// cluster-ops), the verified tail, the twin check — and requires every
// end-to-end metric to come out, finite and non-zero.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		out := smokeRun(t, w.name, 1, false)
		metrics, missing := pick(endToEnd, out.values)
		if len(missing) > 0 {
			t.Errorf("%s: no value for %v", w.name, missing)
		}
		for name, m := range metrics {
			if !(m.Value > 0) || m.Value > 1e12 {
				t.Errorf("%s: %s = %v", w.name, name, m.Value)
			}
		}
	}
}

// TestSmokeTraced drives the traced run on the cluster workload: the
// interleaved pass, both rigs, a live migration and a failover under load,
// and every per-layer metric. The digest and the exact counters must
// repeat for one seed.
func TestSmokeTraced(t *testing.T) {
	a := smokeRun(t, "cluster-ops", 1, true)
	if _, missing := pick(perLayer, a.values); len(missing) > 0 {
		t.Errorf("no value for %v", missing)
	}
	b := smokeRun(t, "cluster-ops", 1, true)
	for _, name := range exactCounts {
		if a.values[name] != b.values[name] {
			t.Errorf("%s: %v then %v for one seed", name, a.values[name], b.values[name])
		}
	}
	digest := func(o *outcome) (d []string) {
		for _, n := range o.notes {
			if i := strings.Index(n, "verdict_digest "); i >= 0 {
				d = append(d, n[i:i+31])
			}
		}
		return d
	}
	if da, db := digest(a), digest(b); len(da) != 2 || !reflect.DeepEqual(da, db) {
		t.Errorf("digests %v then %v for one seed", da, db)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables in this package:
// names, units, directions and bounds are written once and repeated there.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) || !reflect.DeepEqual(file.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the package", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.name || file.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q / %q", i, file.Workloads[i].Name, file.Workloads[i].Why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("file has %d+%d metrics, package %d+%d", len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		f := file.EndToEnd[i]
		if f.Name != d.name || f.Unit != d.unit || f.Better != d.better || f.Bound != d.bound {
			t.Errorf("end-to-end %d: file %+v, package %+v", i, f, d)
		}
	}
	for i, d := range perLayer {
		f := file.PerLayer[i]
		if f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
			t.Errorf("per-layer %d: file %+v, package %+v", i, f, d)
		}
	}
}
