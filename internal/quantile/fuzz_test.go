package quantile

import (
	"fmt"
	"math"
	"testing"
)

// FuzzGK stresses the summary with arbitrary insert sequences and probes:
// queries must stay inside the inserted value range and never panic, and
// the one-pass flush must leave what the two-pass reference (refFlush)
// leaves after every step. The probe byte also picks ε, so batch sizes sit
// on both sides of the insertion-sort cutoff; a 255 byte is a query-driven
// flush of whatever is pending.
func FuzzGK(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 7}, uint8(128))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{9, 255, 9, 9, 255, 0, 254, 255, 3}, uint8(3))
	f.Add([]byte{1, 255, 2, 255, 2, 255}, uint8(4)) // summaries of one, two and three entries
	f.Fuzz(func(t *testing.T, raw []byte, phiRaw uint8) {
		eps := []float64{0.05, 0.5, 0.02, 0.01, 0.001}[int(phiRaw)%5]
		s, ref := New(eps), New(eps)
		lo, hi := math.Inf(1), math.Inf(-1)
		n := 0
		for i, b := range raw {
			if b == 255 {
				s.flush()
				refFlush(ref)
			} else {
				x := float64(b) / 255
				s.Insert(x)
				refInsert(ref, x)
				n++
				if x < lo {
					lo = x
				}
				if x > hi {
					hi = x
				}
			}
			sameSummary(t, s, ref, sameBits, fmt.Sprintf("eps %v step %d", eps, i))
		}
		phi := float64(phiRaw) / 255
		got := s.Query(phi)
		if n == 0 {
			if !math.IsNaN(got) {
				t.Fatalf("empty summary returned %v", got)
			}
			return
		}
		if math.IsNaN(got) || got < lo || got > hi {
			t.Fatalf("Query(%v) = %v outside inserted range [%v,%v]", phi, got, lo, hi)
		}
	})
}
