package drift_test

// Detector microbenchmarks (the serving benchmark's drift.observe_ns row
// is the recorded figure): the per-observation cost of each streaming test in isolation and of the
// full default bank (all three tests plus cadence bookkeeping). All must
// report 0 allocs/op — the bank runs inside the serving hot loop.

import (
	"testing"

	"odds/internal/drift"
	"odds/internal/stats"
)

func benchValues(n int) []float64 {
	r := stats.NewRand(99)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 0.5 + 0.05*r.NormFloat64()
	}
	return vals
}

func BenchmarkDriftObserveKS(b *testing.B) {
	vals := benchValues(4096)
	ks := drift.NewKS(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ks.Observe(vals[i&4095])
	}
}

func BenchmarkDriftObservePH(b *testing.B) {
	vals := benchValues(4096)
	ph := drift.NewPageHinkley(0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ph.Observe(vals[i&4095])
	}
}

func BenchmarkDriftObserveMK(b *testing.B) {
	vals := benchValues(4096)
	mk := drift.NewMannKendall(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mk.Observe(vals[i&4095])
	}
}

// BenchmarkDriftObserveBank is the full default bank: what one extra
// dimension of drift detection costs the serving pipeline per reading.
func BenchmarkDriftObserveBank(b *testing.B) {
	vals := benchValues(4096)
	det := drift.NewDetector(drift.Default())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Observe(vals[i&4095])
	}
}
