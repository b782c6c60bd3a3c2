package main

import (
	"fmt"

	"odds/internal/core"
	"odds/internal/detector"
	"odds/internal/distance"
	"odds/internal/mdef"
	"odds/internal/serve"
)

// conns is the number of client connections every workload is driven
// over. It is a constant of the benchmark, never derived from the host.
const conns = 2

// pacedLimitUS is the latency limit of the paced phase: a batch whose
// reply lands later than this after its due time, or that is refused or
// fails, misses. The builder's host freezes the whole VM for up to 0.2 s
// several times a minute (an idle process sees the same gaps), so a
// tighter limit would count the host's stalls, not the stack's.
const pacedLimitUS = 250_000

// sensorGroup is a block of sensors sharing an id prefix (the backend
// selector routes on it).
type sensorGroup struct {
	prefix string
	count  int
}

// workload is one named traffic mix against one serving stack. Every
// field is frozen: later issues cite the workload by name and compare
// numbers taken under exactly these constants.
type workload struct {
	name string
	why  string

	shards int           // shard goroutines (cluster-global when nodes > 0)
	nodes  int           // 0 = one standalone serve.Server; else cluster nodes behind a Router
	json   bool          // JSON /ingest instead of the ODWP binary wire
	batch  int           // readings per ingest request
	groups []sensorGroup // sensor fleet
	stream string        // stream.ByName source behind every sensor
	reads  int           // GET /query reads interleaved after each ingest batch
	sub    bool          // one live binary /subscribe consumer
	// pacedHz is the paced phase's rate, ingest batches per second over
	// both connections: 20–30 % of the closed-loop capacity measured at the
	// commit that added the benchmark, to 2 s.f. A connection is a serial
	// resource, and at this rate it is busy about a third of the time, so
	// a slow spell of the host delays batches without queueing them.
	pacedHz float64

	// capPerSec sizes the pre-encoded input: readings generated per second
	// of --seconds. It only has to exceed what the stack can absorb; a run
	// that exhausts it ends its phase early and says so.
	capPerSec int

	pipeline func() serve.PipelineConfig
}

// basePipeline is the oddserve default detection configuration: the
// paper's kernelchain stack under the distance criterion, d=1.
func basePipeline(window, sample int, threshold float64) serve.PipelineConfig {
	ccfg := core.DefaultConfig(1)
	ccfg.WindowCap = window
	ccfg.SampleSize = sample
	return serve.PipelineConfig{
		Core:     ccfg,
		Kind:     serve.DetectDistance,
		Distance: distance.Params{Radius: 0.01, Threshold: threshold},
		MDEF:     mdef.Params{R: 0.08, AlphaR: 0.01, KSigma: 3},
		Seed:     1,
		Backends: detector.Params{}.WithDefaults(),
	}
}

func kernelPipeline() serve.PipelineConfig { return basePipeline(10000, 500, 45) }

var workloads = []*workload{
	{
		name: "kernel-steady",
		why:  "Pipeline.IngestSensor does most of the work (batch 256, kernelchain, |W|=10000), codec and routing little: kernel, chain-sample, exact-index and restore changes show here.",

		shards: 2, batch: 256, stream: "mixture",
		groups:    []sensorGroup{{"sensor-", 16}},
		pacedHz:   300,
		capPerSec: 300_000,
		pipeline:  kernelPipeline,
	},
	{
		name: "light-fanout",
		why:  "Cheap backends (ewma, qn, coreset) on 8 shards, 4096 sensors, batch 64, one subscriber: HTTP, decode, interning, shard split, mailbox hops, truth slide and hub publish dominate.",

		shards: 8, batch: 64, stream: "mixture", sub: true,
		groups:    []sensorGroup{{"s-", 2048}, {"q-", 1024}, {"c-", 1024}},
		pacedHz:   1000,
		capPerSec: 300_000,
		pipeline: func() serve.PipelineConfig {
			p := kernelPipeline()
			p.Backend = detector.KindEWMA
			p.Selector = []serve.BackendRule{
				{Prefix: "q-", Backend: detector.KindQn},
				{Prefix: "c-", Backend: detector.KindCoreset},
			}
			return p
		},
	},
	{
		name: "mixed-json",
		why:  "The kernel model under drift adaptation on a shifting stream, JSON wire, 8 reads per ingest batch through the same mailbox: JSON-path costs and work deferred to readers show here.",

		shards: 2, batch: 64, stream: "shifting", json: true, reads: 8,
		groups:    []sensorGroup{{"sensor-", 16}},
		pacedHz:   600,
		capPerSec: 160_000,
		pipeline: func() serve.PipelineConfig {
			// The distance threshold scales with |W| (45 of 10000 → 9 of 2000).
			p := basePipeline(2000, 100, 9)
			p.Drift = serve.DefaultDriftConfig()
			return p
		},
	},
	{
		name: "cluster-ops",
		why:  "kernel-steady's pipeline behind cluster.Router and 3 replicated nodes: the only workload where router hop, replica forward, seal-install-commit and promotion run.",

		shards: 4, nodes: 3, batch: 256, stream: "mixture",
		groups:    []sensorGroup{{"sensor-", 16}},
		pacedHz:   130,
		capPerSec: 130_000,
		pipeline:  kernelPipeline,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sensorCount is the fleet size.
func (w *workload) sensorCount() int {
	n := 0
	for _, g := range w.groups {
		n += g.count
	}
	return n
}
