package detector

import (
	"errors"
	"strings"
	"testing"

	"odds/internal/core"
	"odds/internal/distance"
	"odds/internal/mdef"
)

// testConfig returns a small valid config for kind at dimension dim.
func testConfig(kind Kind, dim int, seed int64) Config {
	ccfg := core.DefaultConfig(dim)
	ccfg.WindowCap = 60
	ccfg.SampleSize = 20
	return Config{
		Kind:      kind,
		Dim:       dim,
		Seed:      seed,
		Criterion: CriterionDistance,
		Core:      ccfg,
		Distance:  distance.Params{Radius: 0.05, Threshold: 3},
		MDEF:      mdef.Params{R: 0.2, AlphaR: 0.05, KSigma: 1.5},
		Qn:        QnConfig{Eps: 0.05, Window: 16, K: 3, MinN: 16},
		Coreset:   CoresetConfig{Size: 32, RebuildEvery: 8, WindowCount: 200, MinN: 16},
		EWMA:      EWMAConfig{Lambda: 0.2, K: 3, MinN: 8},
	}
}

func TestAllKindsValid(t *testing.T) {
	kinds := AllKinds()
	if len(kinds) != 4 || kinds[0] != KindKernelChain {
		t.Fatalf("AllKinds = %v; want 4 kinds with kernelchain first", kinds)
	}
	seen := map[Kind]bool{}
	for _, k := range kinds {
		if !ValidKind(k) {
			t.Fatalf("AllKinds entry %q not ValidKind", k)
		}
		if seen[k] {
			t.Fatalf("AllKinds repeats %q", k)
		}
		seen[k] = true
	}
	if ValidKind("bogus") || ValidKind("") {
		t.Fatal("ValidKind accepted a non-backend")
	}
}

func TestNewEveryKind(t *testing.T) {
	for _, k := range AllKinds() {
		det, err := New(testConfig(k, 2, 7))
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if det.Kind() != k {
			t.Fatalf("New(%s).Kind() = %s", k, det.Kind())
		}
		st := det.Stats()
		if st.Kind != k || st.Arrivals != 0 || st.Warmed || st.Flagged != 0 {
			t.Fatalf("%s: fresh stats %+v", k, st)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mut    func(*Config)
		errSub string
	}{
		{"zero dim", func(c *Config) { c.Dim = 0 }, "dim"},
		{"unknown kind", func(c *Config) { c.Kind = "nope" }, "unknown backend kind"},
		{"qn bad eps", func(c *Config) { c.Kind = KindQn; c.Qn.Eps = 0.7 }, "eps"},
		{"qn bad window", func(c *Config) { c.Kind = KindQn; c.Qn.Window = 1 }, "window"},
		{"qn bad k", func(c *Config) { c.Kind = KindQn; c.Qn.K = -2 }, "k "},
		{"qn bad minn", func(c *Config) { c.Kind = KindQn; c.Qn.MinN = 1 }, "min_n"},
		{"ewma bad lambda", func(c *Config) { c.Kind = KindEWMA; c.EWMA.Lambda = 1.5 }, "lambda"},
		{"ewma bad k", func(c *Config) { c.Kind = KindEWMA; c.EWMA.K = -1 }, "k "},
		{"ewma bad minn", func(c *Config) { c.Kind = KindEWMA; c.EWMA.MinN = -3 }, "min_n"},
		{"coreset bad size", func(c *Config) { c.Kind = KindCoreset; c.Coreset.Size = -1 }, "size"},
		{"coreset bad rebuild", func(c *Config) { c.Kind = KindCoreset; c.Coreset.RebuildEvery = -1 }, "rebuild_every"},
		{"coreset bad wc", func(c *Config) { c.Kind = KindCoreset; c.Coreset.WindowCount = -1 }, "window_count"},
		{"coreset mdef criterion", func(c *Config) { c.Kind = KindCoreset; c.Criterion = CriterionMDEF }, "distance criterion"},
		{"kernelchain bad criterion", func(c *Config) { c.Criterion = "median" }, "criterion"},
	}
	for _, tc := range cases {
		cfg := testConfig(KindKernelChain, 2, 1)
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Fatalf("%s: validated", tc.name)
		}
		if !strings.Contains(err.Error(), tc.errSub) {
			t.Fatalf("%s: error %q lacks %q", tc.name, err, tc.errSub)
		}
		if _, nerr := New(cfg); nerr == nil {
			t.Fatalf("%s: New accepted an invalid config", tc.name)
		}
	}
	for _, k := range AllKinds() {
		if err := testConfig(k, 3, 2).Validate(); err != nil {
			t.Fatalf("%s: valid config rejected: %v", k, err)
		}
	}
}

// TestDefaultsFingerprintEquivalence pins the "a defaulted and an explicit
// spelling of the same tuning are the same backend" contract: a snapshot
// taken under the zero-value tuning must restore into a detector built
// with the defaults spelled out, for every backend.
func TestDefaultsFingerprintEquivalence(t *testing.T) {
	for _, k := range []Kind{KindQn, KindCoreset, KindEWMA} {
		zero := testConfig(k, 1, 3)
		zero.Qn, zero.Coreset, zero.EWMA = QnConfig{}, CoresetConfig{}, EWMAConfig{}
		explicit := zero
		explicit.Qn = QnConfig{}.WithDefaults()
		explicit.Coreset = CoresetConfig{}.WithDefaults()
		explicit.EWMA = EWMAConfig{}.WithDefaults()

		a, err := New(zero)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		b, err := New(explicit)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		for i := 0; i < 10; i++ {
			a.Ingest([]float64{float64(i) / 10})
		}
		blob, err := a.Snapshot()
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if err := b.Restore(blob); err != nil {
			t.Fatalf("%s: defaulted snapshot rejected by explicit config: %v", k, err)
		}
	}
}

func TestParamsWithDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.Qn != (QnConfig{}.WithDefaults()) || p.Coreset != (CoresetConfig{}.WithDefaults()) || p.EWMA != (EWMAConfig{}.WithDefaults()) {
		t.Fatalf("Params.WithDefaults incomplete: %+v", p)
	}
}

// TestQueryOutlierReadOnly pins the Detector contract: a served query
// stream must leave a backend's verdict trajectory bit-identical to a
// twin that never saw the queries, snapshot bytes included.
func TestQueryOutlierReadOnly(t *testing.T) {
	for _, k := range AllKinds() {
		cfg := testConfig(k, 2, 9)
		queried, _ := New(cfg)
		quiet, _ := New(cfg)
		probe := []float64{0.9, 0.1}
		for i := 0; i < 120; i++ {
			v := []float64{float64(i%17) / 17, float64(i%5) / 5}
			a := queried.Ingest(v)
			b := quiet.Ingest(v)
			if a != b {
				t.Fatalf("%s: verdict %d diverged under interleaved queries: %+v vs %+v", k, i, a, b)
			}
			queried.QueryOutlier(probe)
			queried.QueryOutlier(v)
		}
		final := []float64{0.4, 0.6}
		if a, b := queried.Ingest(final), quiet.Ingest(final); a != b {
			t.Fatalf("%s: final verdict diverged under interleaved queries: %+v vs %+v", k, a, b)
		}
		sa, err := queried.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		sb, err := quiet.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if string(sa) != string(sb) {
			t.Fatalf("%s: queries perturbed snapshot state", k)
		}
	}
}

// TestRestoreFailClosedAcrossKinds pins the typed mismatch errors.
func TestRestoreFailClosedAcrossKinds(t *testing.T) {
	blobs := map[Kind][]byte{}
	for _, k := range AllKinds() {
		det, _ := New(testConfig(k, 2, 5))
		for i := 0; i < 40; i++ {
			det.Ingest([]float64{float64(i) / 40, 0.5})
		}
		blob, err := det.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		blobs[k] = blob
	}
	for _, a := range AllKinds() {
		for _, b := range AllKinds() {
			det, _ := New(testConfig(b, 2, 5))
			err := det.Restore(blobs[a])
			switch {
			case a == b:
				if err != nil {
					t.Fatalf("%s: self-restore failed: %v", a, err)
				}
			default:
				if !errors.Is(err, ErrKindMismatch) {
					t.Fatalf("restore %s blob into %s: got %v, want ErrKindMismatch", a, b, err)
				}
			}
		}
	}
	// Same kind, different tuning (and different seed): fingerprint gate.
	muts := map[Kind]func(*Config){
		KindKernelChain: func(c *Config) { c.Distance.Radius = 0.11 },
		KindQn:          func(c *Config) { c.Qn.K = 4 },
		KindCoreset:     func(c *Config) { c.Coreset.Size = 48 },
		KindEWMA:        func(c *Config) { c.EWMA.Lambda = 0.5 },
	}
	for _, k := range AllKinds() {
		tuned := testConfig(k, 2, 5)
		muts[k](&tuned)
		det, err := New(tuned)
		if err != nil {
			t.Fatal(err)
		}
		if err := det.Restore(blobs[k]); !errors.Is(err, ErrFingerprintMismatch) {
			t.Fatalf("%s: retuned restore got %v, want ErrFingerprintMismatch", k, err)
		}
		seeded := testConfig(k, 2, 6)
		det2, _ := New(seeded)
		if err := det2.Restore(blobs[k]); !errors.Is(err, ErrFingerprintMismatch) {
			t.Fatalf("%s: reseeded restore got %v, want ErrFingerprintMismatch", k, err)
		}
	}
}

// TestFoldMatchesIngest pins the Fold contract: a backend fed Fold with
// the bits its twin's Ingest returned — a replica — returns the twin's
// verdicts and holds its snapshot bytes after every reading, for every
// backend and both kernelchain criteria. The stream warms every backend
// and has each flag readings, or the comparison would be vacuous.
func TestFoldMatchesIngest(t *testing.T) {
	mdefCfg := testConfig(KindKernelChain, 2, 9)
	mdefCfg.Criterion = CriterionMDEF
	cfgs := []Config{mdefCfg}
	for _, k := range AllKinds() {
		cfgs = append(cfgs, testConfig(k, 2, 9))
	}
	for _, cfg := range cfgs {
		name := string(cfg.Kind) + "/" + string(cfg.Criterion)
		ingest, _ := New(cfg)
		folded, _ := New(cfg)
		for i := 0; i < 400; i++ {
			v := []float64{float64(i%17) / 17, float64(i%5) / 5}
			if i%23 == 22 {
				v[i%2] = 4 + float64(i%3)
			}
			a := ingest.Ingest(v)
			if b := folded.Fold(v, a.Outlier); a != b {
				t.Fatalf("%s: reading %d: Ingest %+v, Fold %+v", name, i, a, b)
			}
			sa, err := ingest.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			sb, err := folded.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if string(sa) != string(sb) {
				t.Fatalf("%s: after reading %d: Fold left other state than Ingest", name, i)
			}
		}
		if st := folded.Stats(); !st.Warmed || st.Flagged == 0 {
			t.Fatalf("%s: %+v: the stream never warmed the backend or flagged a reading", name, st)
		}
	}
}
