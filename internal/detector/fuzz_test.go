package detector

// FuzzDetectorSnapshot throws arbitrary bytes at every backend's Restore:
// the decoder must never panic, and any blob it does accept must be a
// fixed point — re-snapshot and re-restore reproduce the same bytes.

import (
	"bytes"
	"testing"

	"odds/internal/oracle"
)

func fuzzConfigs() []Config {
	out := make([]Config, 0, len(AllKinds()))
	for _, k := range AllKinds() {
		out = append(out, testConfig(k, 2, 17))
	}
	return out
}

func FuzzDetectorSnapshot(f *testing.F) {
	oc := oracle.Config{Dim: 2, WindowCap: 60, Steps: 90, Seed: 17}
	for _, cfg := range fuzzConfigs() {
		det, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		empty, err := det.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(empty)
		s := oc.NewStream()
		for i := 0; i < oc.Steps; i++ {
			det.Ingest(s.Next())
		}
		warm, err := det.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(warm)
		f.Add(warm[:len(warm)/2])
		if kc, ok := det.(*KernelChain); ok {
			for _, forged := range forgedKernelChainSnapshots(f, kc, warm) {
				f.Add(forged)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range fuzzConfigs() {
			det, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// Kernelchain restore legitimately replays O(draws) rng steps;
			// bound the work a mutated blob can demand so the fuzz loop
			// probes the decoder, not the replay loop (the decoder itself
			// gates draws against the blob's arrival counter, but a blob
			// forging both counters can still buy a long — finite — replay).
			if kc, ok := det.(*KernelChain); ok {
				if state, err := openBlob(data, KindKernelChain, kc.fp); err == nil && state.U64() > 1<<22 {
					continue
				}
			}
			if err := det.Restore(data); err != nil {
				continue
			}
			// Accepted: the decoded state must round-trip exactly.
			blob, err := det.Snapshot()
			if err != nil {
				t.Fatalf("%s: accepted blob fails to re-snapshot: %v", cfg.Kind, err)
			}
			again, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := again.Restore(blob); err != nil {
				t.Fatalf("%s: re-snapshot of accepted blob rejected: %v", cfg.Kind, err)
			}
			blob2, err := again.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatalf("%s: snapshot not a fixed point (%d vs %d bytes)", cfg.Kind, len(blob), len(blob2))
			}
		}
	})
}
