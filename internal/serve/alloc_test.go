package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"odds/internal/drift"
)

// constSrc is a rand.Source64 that always returns the same value. With
// v = wcap-1 every Float64 draw is tiny (the adoption skip-sampler jumps
// past all slots, so no adoptions and hence no model rebuilds) and every
// Int63n(wcap) successor draw lands at the far edge of the window — the
// chain keeps exercising its expiry/capture event machinery on pooled
// storage while the measured loop stays at a deterministic steady state.
type constSrc struct{ v int64 }

func (c constSrc) Int63() int64   { return c.v }
func (c constSrc) Uint64() uint64 { return uint64(c.v) }
func (c constSrc) Seed(int64)     {}

// hotPipeline warms a distance pipeline on a repeating input cycle (so the
// exact index's cell set is stable, as in the distance package's own
// steady-state harness), then pins the rng so the measured window is
// deterministic.
func hotPipeline(t testing.TB, wcap int) (*Pipeline, func()) {
	return hotPipelineKind(t, DetectDistance, wcap, DriftConfig{})
}

// parkedDetector is the full bank (so every detector's maintenance cost
// is measured) with parked PH/MK thresholds and a near-ceiling KS
// threshold, so the deterministic cyclic input of the steady-state
// harnesses can never fire — a fire would trigger adaptations (refresh
// rebuilds, reference clones) that are amortized in production but
// would pollute a steady-state measurement.
func parkedDetector() drift.Config {
	return drift.Config{
		Window:     128,
		CheckEvery: 16,
		Cooldown:   128,
		KSD:        0.95,
		PHDelta:    0.01,
		PHLambda:   1e9,
		MKZ:        1e9,
	}
}

// allocDriftArm is the alloc gate's arm: parked thresholds at a tight
// cadence, so the measured window actually exercises the bank and the
// JS signal. The JS cadence is tight enough that the reference model is
// cloned during the settle phase, not the measured loop; on the
// frozen-rng regime the model never rebuilds afterwards, so each check
// evaluates JS(model, clone-of-model) = 0 — the full evaluation path
// with no trips.
func allocDriftArm() DriftConfig {
	return DriftConfig{
		Enabled:      true,
		SampleEvery:  4,
		Detector:     parkedDetector(),
		JSEvery:      16,
		JSThreshold:  0.15,
		JSGridPoints: 16,
	}
}

// hotPipelineKind is hotPipeline for either criterion, with an optional
// drift arm.
func hotPipelineKind(t testing.TB, kind DetectorKind, wcap int, darm DriftConfig) (*Pipeline, func()) {
	t.Helper()
	pcfg := testPipelineConfig(kind, 1, wcap, 3)
	pcfg.Drift = darm
	p, err := NewPipeline(pcfg)
	if err != nil {
		t.Fatal(err)
	}
	cycle := make([][]float64, 256)
	src := rand.New(rand.NewSource(11))
	for i := range cycle {
		cycle[i] = []float64{src.Float64()}
	}
	pos := 0
	step := func() {
		p.Ingest(cycle[pos%len(cycle)])
		pos++
	}
	// Warm with live randomness: fill the window, populate every grid cell
	// the cycle touches, build models, and seed the chain's free pools.
	for i := 0; i < 6*wcap+len(cycle); i++ {
		step()
	}
	// Freeze the rng and let the chain settle into its periodic regime.
	p.kc.SetSource(constSrc{v: int64(wcap - 1)})
	for i := 0; i < 4*wcap; i++ {
		step()
	}
	return p, step
}

// TestIngestHotPathZeroAlloc is the acceptance check for the shard hot
// path: at steady state a per-reading Ingest on the distance pipeline —
// window slide, exact-index update, chain sample, variance sketch, and
// estimate verdict — performs zero allocations.
func TestIngestHotPathZeroAlloc(t *testing.T) {
	_, step := hotPipeline(t, 200)
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Fatalf("steady-state Ingest allocates %v per reading, want 0", avg)
	}
}

// TestIngestHotPathZeroAllocMDEF extends the gate to the MDEF criterion:
// the exact side (mdef.DynTruth's occupancy map, neighborhood index and
// cell walk) and the estimate side (the kernel model's batched cell
// counts through the backend's held Evaluator) both run on held scratch.
func TestIngestHotPathZeroAllocMDEF(t *testing.T) {
	_, step := hotPipelineKind(t, DetectMDEF, 200, DriftConfig{})
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Fatalf("steady-state mdef Ingest allocates %v per reading, want 0", avg)
	}
}

// TestIngestHotPathZeroAllocDrift extends the gate to a drift-armed
// pipeline: the subsampled detector bank (KS window maintenance, PH
// recursion, MK rank counts) and the periodic JS model signal must ride
// the same zero-allocation hot path. The arm's thresholds are parked
// (see allocDriftArm) so the measured window is fire-free — adaptation
// actions are rare, amortized events like model rebuilds, which the
// steady-state regime excludes by construction.
func TestIngestHotPathZeroAllocDrift(t *testing.T) {
	p, step := hotPipelineKind(t, DetectDistance, 200, allocDriftArm())
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Fatalf("steady-state drift-armed Ingest allocates %v per reading, want 0", avg)
	}
	st := p.DriftStats()
	if st.Detector.Observed == 0 || st.JSChecks == 0 {
		t.Fatalf("drift arm idle during measurement (observed %d, JS checks %d); gate is vacuous",
			st.Detector.Observed, st.JSChecks)
	}
	if st.Detector.Detections != 0 || st.JSTrips != 0 {
		t.Fatalf("parked thresholds fired (%+v); measurement polluted", st)
	}
}

// TestWireIngestZeroAlloc extends the guard to the full binary serving
// path: encode a batch (client side), decode it into pooled scratch
// (interned sensors, recycled Value arrays), split it across the shards,
// and encode the ODWR reply — zero allocations per round at steady state,
// measured across all goroutines including the shards'. One shard and four
// run the same split-and-scatter code; four is what oddserve defaults to.
func TestWireIngestZeroAlloc(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			wireIngestZeroAlloc(t, shards, nil)
		})
	}
}

// TestIngestZeroAllocSubscribed is the same round with one subscriber
// attached — every sensor, then a sensors= filter that passes one shard's
// sensor — and drained once a round as its stream handler would: the push
// path (publishBatch's filter, ring store and wake-up, and drain) rides
// the zero-allocation guard too.
func TestIngestZeroAllocSubscribed(t *testing.T) {
	for _, filtered := range []bool{false, true} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("filtered=%t/shards=%d", filtered, shards), func(t *testing.T) {
				wireIngestZeroAlloc(t, shards, func(srv *Server, sensors []string) *subscriber {
					sub := newTestSubscriber(srv.hub, srv.cfg.SubscribeBuffer)
					if filtered {
						sub.sensors = map[string]struct{}{sensors[0]: {}}
					}
					return sub
				})
			})
		}
	}
}

// wireIngestZeroAlloc runs the guard on a server of the given shard count;
// a non-nil subscribe builds a subscriber (given the server and the one
// sensor each shard is fed) that is attached for the whole run.
func wireIngestZeroAlloc(t *testing.T, shards int, subscribe func(srv *Server, sensors []string) *subscriber) {
	const wcap = 200
	cfg := Config{
		Shards:     shards,
		Pipeline:   testPipelineConfig(DetectDistance, 1, wcap, 3),
		QueueDepth: 1024,
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// One sensor per shard, so every round feeds every shard the same
	// batchLen readings and each walks the cycle as the single shard does.
	sensors := make([]string, shards)
	for found, i := 0, 0; found < shards; i++ {
		id := fmt.Sprintf("s%d", i)
		if sid := ShardOf(id, shards); sensors[sid] == "" {
			sensors[sid] = id
			found++
		}
	}
	cycle := make([]float64, 256)
	src := rand.New(rand.NewSource(11))
	for i := range cycle {
		cycle[i] = src.Float64()
	}
	const batchLen = 64
	readings := make([]Reading, batchLen*shards)
	for i := range readings {
		readings[i].Sensor = sensors[i%shards]
		readings[i].Value = make([]float64, 1)
	}
	pos := 0

	var (
		sub     *subscriber
		events  []Event
		drained int
	)
	if subscribe != nil {
		sub = subscribe(srv, sensors)
		srv.hub.add(sub)
		defer srv.hub.remove(sub)
	}

	sc := newIngestScratch(shards)
	var frame []byte
	step := func() {
		if sub != nil {
			events, _ = sub.drain(events[:0])
			drained += len(events)
		}
		for i := range readings {
			readings[i].Value[0] = cycle[(pos+i/shards)%len(cycle)]
		}
		pos += batchLen
		frame = AppendBatch(frame[:0], readings, 1, srv.wireFP)
		var err error
		sc.readings, err = DecodeBatchInto(frame, sc.readings, 1, srv.cfg.MaxBatch, srv.wireFP, &srv.names)
		if err != nil {
			t.Fatal(err)
		}
		sc.results = growResults(sc.results, len(sc.readings))
		rejected, err := srv.ingestInto(sc.readings, sc.results, &sc.route)
		if err != nil {
			t.Fatal(err)
		}
		if rejected != 0 {
			t.Fatalf("rejected %d readings with an idle queue", rejected)
		}
		sc.out = AppendResults(sc.out[:0], sc.results, rejected, 0)
	}

	// Warm with live randomness (fill the window, build models, seed the
	// free pools), then freeze the rng and let the chain settle into its
	// deterministic periodic regime, as hotPipeline does.
	for i := 0; i < (6*wcap+len(cycle))/batchLen+1; i++ {
		step()
	}
	for _, sh := range srv.shards {
		sh.pl.kc.SetSource(constSrc{v: int64(wcap - 1)})
	}
	for i := 0; i < 4*wcap/batchLen+1; i++ {
		step()
	}

	drained = 0
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("steady-state binary ingest round allocates %v per batch, want 0", avg)
	}
	if sub != nil && drained == 0 {
		t.Fatal("the subscriber saw no event during the measurement; the guard is vacuous")
	}
}

// TestReplicateZeroAlloc is the follower's share of the same guard: at
// steady state decoding one ODRP frame into pooled scratch, applying it
// through the replica shard and appending the ack allocates nothing,
// across all goroutines — and the ack is json.Encoder's bytes.
func TestReplicateZeroAlloc(t *testing.T) {
	const wcap, batchLen = 200, 64
	srv, err := New(Config{
		Shards:     1,
		Pipeline:   testPipelineConfig(DetectDistance, 1, wcap, 3),
		QueueDepth: 1024,
		Cluster:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.InstallShard(0, true, nil); err != nil {
		t.Fatal(err)
	}

	src := rand.New(rand.NewSource(11))
	cycle := make([]float64, 256)
	for i := range cycle {
		cycle[i] = src.Float64()
	}
	readings := make([]Reading, batchLen)
	for i := range readings {
		readings[i] = Reading{Sensor: "s0", Value: make([]float64, 1)}
	}
	verdicts := make([]Verdict, batchLen)
	sc := newIngestScratch(1)
	applied := uint64(0)
	step := func() {
		for i := range readings {
			readings[i].Value[0] = cycle[(applied+uint64(i))%uint64(len(cycle))]
		}
		sc.body = appendReplFrame(sc.body[:0], 0, applied+1, readings, verdicts, 1, srv.wireFP)
		if status, err := srv.applyReplFrame(sc); err != nil {
			t.Fatalf("frame at seq %d: status %d: %v", applied+1, status, err)
		}
		applied += batchLen
	}

	// Warm, freeze the rng and settle, as TestWireIngestZeroAlloc does.
	for i := 0; i < (6*wcap+len(cycle))/batchLen+1; i++ {
		step()
	}
	srv.shards[0].pl.kc.SetSource(constSrc{v: int64(wcap - 1)})
	for i := 0; i < 4*wcap/batchLen+1; i++ {
		step()
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(map[string]uint64{"seq": applied}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sc.out, want.Bytes()) {
		t.Fatalf("ack %q, want json.Encoder's %q", sc.out, want.Bytes())
	}

	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("steady-state replicate round allocates %v per frame, want 0", avg)
	}
	if got := srv.shards[0].pl.Seq(); got != applied {
		t.Fatalf("follower at seq %d after %d replicated readings", got, applied)
	}
}

// TestJSONIngestZeroAlloc is the JSON codec's share of the same guard:
// at steady state, decoding a canonical 64-reading body into recycled
// scratch and appending its reply into a reused buffer allocates nothing.
func TestJSONIngestZeroAlloc(t *testing.T) {
	src := rand.New(rand.NewSource(11))
	readings := make([]Reading, 64)
	results := make([]ReadingResult, len(readings))
	for i := range readings {
		readings[i] = Reading{Sensor: "s" + string(rune('0'+i%8)), Value: []float64{src.Float64(), src.NormFloat64() * 1e-9}}
		results[i] = ReadingResult{Shard: i % 8, Accepted: true, Seq: uint64(1000 + i), Warmed: true}
	}
	body, err := json.Marshal(IngestRequest{Readings: readings})
	if err != nil {
		t.Fatal(err)
	}
	var (
		names Interner
		dst   []Reading
		out   []byte
	)
	step := func() {
		var err error
		if dst, err = DecodeIngestJSON(body, dst, 8192, &names); err != nil {
			t.Fatal(err)
		}
		out = AppendIngestJSON(out[:0], results, 0, 0)
	}
	step()
	if !sameReadings(dst, readings) {
		t.Fatalf("decoded %+v, want %+v", dst, readings)
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("steady-state JSON decode + append allocates %v per batch, want 0", avg)
	}
}
