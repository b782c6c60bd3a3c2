package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"odds/internal/detector"
)

// armedStatsConfig arms everything /stats and the fingerprint carry: the
// drift monitor and all four engines, the three
// non-default ones behind selector rules.
func armedStatsConfig() PipelineConfig {
	cfg := backendTestConfig(detector.KindKernelChain, 1, 60, 3)
	cfg.Drift = DefaultDriftConfig()
	cfg.Selector = []BackendRule{
		{Prefix: "a", Backend: detector.KindQn},
		{Prefix: "b", Backend: detector.KindCoreset},
		{Prefix: "c", Backend: detector.KindEWMA},
	}
	return cfg
}

// TestStatsConfigBytes pins the configuration half of /stats byte for
// byte: with the per-shard counters cleared and the wire fingerprint
// zeroed, the reply must be exactly what the server served when /stats
// spelled the config fields out one by one, before StatsResponse embedded
// PipelineConfig.
func TestStatsConfigBytes(t *testing.T) {
	cases := []struct {
		name string
		cfg  PipelineConfig
		want string
	}{
		{"plain", testPipelineConfig(DetectMDEF, 2, 90, 5),
			`{"shards":2,"detector":"mdef","seed":5,"core":{"WindowCap":90,"SampleSize":30,"Eps":0.2,"SampleFraction":0.5,"Dim":2,"RebuildEvery":1,"BandwidthScale":0},"distance":{"Radius":0.05,"Threshold":3},"mdef":{"R":0.2,"AlphaR":0.05,"KSigma":1.5},"drift":{"enabled":false,"sample_every":0,"detector":{"Window":0,"CheckEvery":0,"Cooldown":0,"KSD":0,"PHDelta":0,"PHLambda":0,"MKZ":0}},"backends":{"qn":{},"coreset":{},"ewma":{}},"per_shard":null,"wire_fingerprint":0}`},
		{"drift-armed, three-rule selector", armedStatsConfig(),
			`{"shards":2,"detector":"distance","seed":3,"core":{"WindowCap":60,"SampleSize":20,"Eps":0.2,"SampleFraction":0.5,"Dim":1,"RebuildEvery":1,"BandwidthScale":0},"distance":{"Radius":0.05,"Threshold":3},"mdef":{"R":0.2,"AlphaR":0.05,"KSigma":1.5},"drift":{"enabled":true,"sample_every":32,"detector":{"Window":128,"CheckEvery":16,"Cooldown":128,"KSD":0.35,"PHDelta":0.01,"PHLambda":8,"MKZ":4.5},"js_every":256,"js_threshold":0.15,"js_grid_points":16},"backend":"kernelchain","backends":{"qn":{"eps":0.05,"window":16,"k":3,"min_n":16},"coreset":{"size":64,"rebuild_every":8,"window_count":60,"min_n":16},"ewma":{"lambda":0.2,"k":3,"min_n":8}},"selector":[{"prefix":"a","backend":"qn"},{"prefix":"b","backend":"coreset"},{"prefix":"c","backend":"ewma"}],"per_shard":null,"wire_fingerprint":0}`},
	}
	for _, tc := range cases {
		srv, err := New(Config{Shards: 2, Pipeline: tc.cfg})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st, err := srv.Stats()
		srv.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st.PerShard, st.WireFingerprint = nil, 0
		got, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s: /stats config bytes moved\n got  %s\n want %s", tc.name, got, tc.want)
		}
	}
}

// TestConfigRefusesNonFinite: a value JSON cannot carry, or an infinite
// radius, threshold or limit, is refused by both constructors. Accepted,
// such a config would answer /stats with an empty body and leave no twin,
// load client or router able to join the server.
func TestConfigRefusesNonFinite(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := map[string]func(*PipelineConfig){
		"distance radius +Inf":     func(c *PipelineConfig) { c.Distance.Radius = inf },
		"distance threshold +Inf":  func(c *PipelineConfig) { c.Distance.Threshold = inf },
		"mdef R +Inf":              func(c *PipelineConfig) { c.Kind = DetectMDEF; c.MDEF.R = inf },
		"mdef KSigma +Inf":         func(c *PipelineConfig) { c.Kind = DetectMDEF; c.MDEF.KSigma = inf },
		"bandwidth scale NaN":      func(c *PipelineConfig) { c.Core.BandwidthScale = nan },
		"bandwidth scale +Inf":     func(c *PipelineConfig) { c.Core.BandwidthScale = inf },
		"bandwidth scale -Inf":     func(c *PipelineConfig) { c.Core.BandwidthScale = -inf },
		"bandwidth scale negative": func(c *PipelineConfig) { c.Core.BandwidthScale = -1 },
		"drift KSD +Inf":           func(c *PipelineConfig) { c.Drift.Detector.KSD = inf },
		"drift KSD -Inf":           func(c *PipelineConfig) { c.Drift.Detector.KSD = -inf },
		"drift PHDelta +Inf":       func(c *PipelineConfig) { c.Drift.Detector.PHDelta = inf },
		"drift PHDelta -Inf":       func(c *PipelineConfig) { c.Drift.Detector.PHDelta = -inf },
		"drift PHLambda +Inf":      func(c *PipelineConfig) { c.Drift.Detector.PHLambda = inf },
		"drift PHLambda -Inf":      func(c *PipelineConfig) { c.Drift.Detector.PHLambda = -inf },
		"drift MKZ +Inf":           func(c *PipelineConfig) { c.Drift.Detector.MKZ = inf },
		"drift MKZ -Inf":           func(c *PipelineConfig) { c.Drift.Detector.MKZ = -inf },
		"drift JSThreshold +Inf":   func(c *PipelineConfig) { c.Drift.JSThreshold = inf },
		"qn K +Inf":                func(c *PipelineConfig) { c.Backends.Qn.K = inf },
		"ewma K +Inf":              func(c *PipelineConfig) { c.Backends.EWMA.K = inf },
		// Sections nothing reads are still served, so they must encode too.
		"unread mdef KSigma NaN":     func(c *PipelineConfig) { c.MDEF.KSigma = nan },
		"disarmed drift KSD NaN":     func(c *PipelineConfig) { c.Drift = DriftConfig{Detector: c.Drift.Detector}; c.Drift.Detector.KSD = nan },
		"unrouted engine qn K +Inf":  func(c *PipelineConfig) { c.Selector = nil; c.Backends.Qn.K = inf },
		"unused JSThreshold NaN":     func(c *PipelineConfig) { c.Drift.JSEvery = 0; c.Drift.JSThreshold = nan },
		"unread distance radius NaN": func(c *PipelineConfig) { c.Kind = DetectMDEF; c.Selector = nil; c.Distance.Radius = nan },
	}
	if _, err := New(Config{Shards: 1, Pipeline: armedStatsConfig()}); err != nil {
		t.Fatalf("the unmodified config is refused: %v", err)
	}
	for name, mut := range cases {
		cfg := armedStatsConfig()
		mut(&cfg)
		if _, err := NewPipeline(cfg); err == nil {
			t.Errorf("%s: NewPipeline accepted it", name)
		}
		srv, err := New(Config{Shards: 1, Pipeline: cfg})
		if err == nil {
			srv.Close()
			t.Errorf("%s: serve.New accepted it", name)
		}
	}
}

// perturbLeaf changes the i-th bool, integer, float or string leaf of the
// value v (depth first, struct fields in order, slice elements in order)
// and returns its path, or ok=false when v has at most i leaves.
func perturbLeaf(v reflect.Value, i int) (path string, ok bool) {
	n := 0
	var walk func(v reflect.Value, path string) (string, bool)
	walk = func(v reflect.Value, path string) (string, bool) {
		switch v.Kind() {
		case reflect.Struct:
			for f := 0; f < v.NumField(); f++ {
				if p, ok := walk(v.Field(f), path+"."+v.Type().Field(f).Name); ok {
					return p, true
				}
			}
			return "", false
		case reflect.Slice:
			for e := 0; e < v.Len(); e++ {
				if p, ok := walk(v.Index(e), fmt.Sprintf("%s[%d]", path, e)); ok {
					return p, true
				}
			}
			return "", false
		}
		if n++; n-1 != i {
			return "", false
		}
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			panic("perturbLeaf: unhandled leaf " + path + " of kind " + v.Kind().String())
		}
		return path, true
	}
	return walk(v, "")
}

// TestFingerprintCoversEveryLeaf walks a filled, drift-armed config with
// all four engines armed and perturbs every leaf in turn: each one must
// move the fingerprint, so no setting can differ between a snapshot and
// the server restoring it.
func TestFingerprintCoversEveryLeaf(t *testing.T) {
	filled := func() PipelineConfig {
		cfg := armedStatsConfig()
		cfg.Core.BandwidthScale = 1
		cfg.Backends = cfg.Backends.WithDefaults()
		return cfg
	}
	base := filled()
	fp := string(fingerprint(2, base))
	seen := map[string]bool{}
	for i := 0; ; i++ {
		cfg := filled()
		path, ok := perturbLeaf(reflect.ValueOf(&cfg).Elem(), i)
		if !ok {
			break
		}
		seen[path] = true
		if string(fingerprint(2, cfg)) == fp {
			t.Errorf("perturbing %s left the fingerprint unchanged", path)
		}
	}
	for _, p := range []string{".Core.BandwidthScale", ".MDEF.KSigma", ".Drift.Detector.MKZ", ".Backends.Coreset.MinN", ".Selector[2].Backend"} {
		if !seen[p] {
			t.Errorf("walk never reached %s", p)
		}
	}
	if string(fingerprint(3, base)) == fp {
		t.Error("the shard count left the fingerprint unchanged")
	}
}
