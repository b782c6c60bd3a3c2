package serve

import (
	"bytes"
	"fmt"
	"testing"

	"odds/internal/detector"
	"odds/internal/stream"
	"odds/internal/window"
)

// applyArm is one configuration of the Apply oracle with the sensor ids
// that reach each of its armed backends.
type applyArm struct {
	name    string
	cfg     PipelineConfig
	sensors []string
}

// applyArms covers what a follower can be asked to run: all four backends
// behind a selector under the distance criterion, kernelchain alone under
// MDEF (coreset does not validate there), d ∈ {1, 2}, every arm with the
// drift monitor armed to refresh and to shrink the window.
func applyArms(wcap int, seed int64) []applyArm {
	drift := DefaultDriftConfig()
	drift.SampleEvery, drift.JSEvery, drift.ShrinkFrac = 4, 32, 0.5
	var arms []applyArm
	for _, dim := range []int{1, 2} {
		all := backendTestConfig(detector.KindKernelChain, dim, wcap, seed)
		all.Drift = drift
		all.Selector = []BackendRule{
			{Prefix: "q", Backend: detector.KindQn},
			{Prefix: "c", Backend: detector.KindCoreset},
			{Prefix: "e", Backend: detector.KindEWMA},
		}
		arms = append(arms, applyArm{fmt.Sprintf("distance/selector/d%d", dim), all, []string{"k-0", "q-0", "c-0", "e-0", "k-1"}})
		md := testPipelineConfig(DetectMDEF, dim, wcap, seed)
		md.Drift = drift
		arms = append(arms, applyArm{fmt.Sprintf("mdef/kernelchain/d%d", dim), md, []string{"k-0", "k-1"}})
	}
	return arms
}

// applyDivergence is the Apply oracle. One pipeline is fed IngestSensor (a
// primary), a second Apply (its follower), from one config; sensor(i) names
// reading i's sensor. It returns a description of the first way the two
// differ, "" when they do not:
//
//   - every Apply returns the estimate half of IngestSensor's verdict;
//   - Snapshot bytes are equal after every check-th reading, and the
//     follower is replaced by a restore of its own snapshot half way;
//   - then both are promoted — fed IngestSensor — for the tail readings, and
//     the full verdicts, Exact included, are equal. That is the only place
//     a follower's exact index shows: an Apply that dropped exactAdd or
//     exactRemove keeps equal snapshots (the index is rebuilt from the
//     window on restore) and fails here.
func applyDivergence(cfg PipelineConfig, sensor func(i int) string, pts []window.Point, tail, check int) (string, error) {
	prim, err := NewPipeline(cfg)
	if err != nil {
		return "", err
	}
	foll, err := NewPipeline(cfg)
	if err != nil {
		return "", err
	}
	// sameSnapshot compares the two sides' snapshot bytes after reading i
	// and returns the follower's.
	sameSnapshot := func(i int) ([]byte, string, error) {
		a, err := prim.Snapshot()
		if err != nil {
			return nil, "", err
		}
		b, err := foll.Snapshot()
		if err != nil {
			return nil, "", err
		}
		if !bytes.Equal(a, b) {
			return nil, fmt.Sprintf("after reading %d: snapshots differ (%d vs %d bytes)", i, len(a), len(b)), nil
		}
		return b, "", nil
	}
	promoteAt := len(pts) - tail
	for i, v := range pts {
		s := sensor(i)
		if i >= promoteAt {
			if a, b := prim.IngestSensor(s, v), foll.IngestSensor(s, v); a != b {
				return fmt.Sprintf("promoted reading %d: primary %+v, follower %+v", i, a, b), nil
			}
			continue
		}
		a, b := prim.IngestSensor(s, v), foll.Apply(s, v)
		if want := (detector.Verdict{Outlier: a.Outlier, Warmed: a.Warmed}); b != want {
			return fmt.Sprintf("reading %d: Apply returned %+v, IngestSensor %+v", i, b, a), nil
		}
		if (i+1)%check == 0 || i == promoteAt/2 {
			blob, diff, err := sameSnapshot(i)
			if diff != "" || err != nil {
				return diff, err
			}
			if i == promoteAt/2 {
				if foll, err = RestorePipeline(cfg, blob); err != nil {
					return "", err
				}
			}
		}
	}
	_, diff, err := sameSnapshot(len(pts))
	return diff, err
}

// TestApplyMatchesIngestSensor is the tentpole's contract: a follower fed
// Apply holds the primary's state at every reading and serves the primary's
// verdicts from its first reading after promotion, on a stream whose drift
// monitor fires and shrinks the window along the way.
func TestApplyMatchesIngestSensor(t *testing.T) {
	const wcap, shiftAt, n = 128, 700, 1400
	for _, arm := range applyArms(wcap, 5) {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			t.Parallel()
			src := stream.NewDrifting(stream.DefaultDrifting(stream.DriftAbrupt, shiftAt), arm.cfg.Core.Dim, 12)
			pts := make([]window.Point, n)
			for i := range pts {
				pts[i] = src.Next()
			}
			sensor := func(i int) string { return arm.sensors[(i*7+i/5)%len(arm.sensors)] }
			diff, err := applyDivergence(arm.cfg, sensor, pts, 2*wcap, 16)
			if err != nil {
				t.Fatal(err)
			}
			if diff != "" {
				t.Fatal(diff)
			}

			// The comparison above is vacuous on a quiet stream: replay it
			// and require that the drift arm shrank the window before the
			// promotion and that the promoted phase saw both exact answers.
			p, err := NewPipeline(arm.cfg)
			if err != nil {
				t.Fatal(err)
			}
			exact := map[bool]int{}
			for i, v := range pts {
				if i == n-2*wcap {
					if st := p.DriftStats(); st.Shrinks == 0 || st.Refreshes == 0 {
						t.Fatalf("drift arm idle before promotion: %+v", st)
					}
				}
				if ver := p.IngestSensor(sensor(i), v); i >= n-2*wcap {
					exact[ver.Exact]++
				}
			}
			if exact[false] == 0 || exact[true] == 0 {
				t.Fatalf("promoted phase saw Exact %v; comparison is vacuous", exact)
			}
		})
	}
}

// FuzzApplyVsIngest runs the same oracle over arbitrary value streams and
// sensor routings. The first byte picks the arm; after it every byte pair
// is one coordinate (a 16-bit value in [0,1]) and the first byte of a
// reading also picks its sensor.
func FuzzApplyVsIngest(f *testing.F) {
	const wcap = 32
	arms := applyArms(wcap, 9)
	shifting := make([]byte, 0, 2*8*wcap)
	src := stream.NewDrifting(stream.DefaultDrifting(stream.DriftAbrupt, 4*wcap), 1, 3)
	for i := 0; i < 8*wcap; i++ {
		x := uint16(src.Next()[0] * 65535)
		shifting = append(shifting, byte(x>>8), byte(x))
	}
	for i := range arms {
		f.Add(append([]byte{byte(i)}, shifting...))
	}
	f.Add(append([]byte{0}, bytes.Repeat([]byte{0x40, 0x00}, 3*wcap)...))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		arm := arms[int(data[0])%len(arms)]
		if data = data[1:]; len(data) > 1<<10 {
			data = data[:1<<10]
		}
		dim := arm.cfg.Core.Dim
		pts := make([]window.Point, len(data)/(2*dim))
		for i := range pts {
			pts[i] = make(window.Point, dim)
			for d := range pts[i] {
				at := 2 * (i*dim + d)
				pts[i][d] = float64(uint16(data[at])<<8|uint16(data[at+1])) / 65535
			}
		}
		sensor := func(i int) string { return arm.sensors[int(data[2*i*dim])%len(arm.sensors)] }
		diff, err := applyDivergence(arm.cfg, sensor, pts, len(pts)/4, 8)
		if err != nil {
			t.Fatal(err)
		}
		if diff != "" {
			t.Fatalf("%s: %s", arm.name, diff)
		}
	})
}

// TestReadsDoNotMoveState pins the read-path rule — a read sees the model
// the last arrival left — as the Detector contract states it: a pipeline
// queried before warm-up and after every ingest stays byte-identical to a
// twin that never saw a read, through drift fires (whose ForceRefresh a
// read used to spend one arrival early) and under both criteria.
func TestReadsDoNotMoveState(t *testing.T) {
	const wcap, shiftAt, n = 128, 700, 1400
	for _, kind := range []DetectorKind{DetectDistance, DetectMDEF} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			arm := DefaultDriftConfig()
			arm.SampleEvery, arm.JSEvery = 4, 32
			cfg := driftPipelineConfig(kind, wcap, 5, arm)
			read, err := NewPipeline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			quiet, err := NewPipeline(cfg)
			if err != nil {
				t.Fatal(err)
			}
			src := stream.NewDrifting(stream.DefaultDrifting(stream.DriftAbrupt, shiftAt), 1, 12)
			probe := []float64{0.4}
			for i := 0; i < n; i++ {
				read.QueryProb(probe, 0.05)
				v := src.Next()
				if a, b := read.Ingest(v), quiet.Ingest(v); a != b {
					t.Fatalf("reading %d: verdict %+v with reads, %+v without", i, a, b)
				}
				read.QueryOutlier(probe)
				read.QueryProb(v, 0.05)
				a, err := read.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				b, err := quiet.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("after reading %d: a read moved the pipeline's state (last fire at seq %d)",
						i+1, read.DriftStats().LastFireSeq)
				}
			}
			if st := read.DriftStats(); st.Refreshes == 0 {
				t.Fatalf("no drift fire on the shifted stream; test is vacuous: %+v", st)
			}
		})
	}
}
