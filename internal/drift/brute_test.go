package drift

import (
	"math"
	"slices"
)

// Offline executable specifications of the three streaming statistics.
// Each recomputes its statistic from scratch over the whole window or
// history, sharing only the final arithmetic (ksGap, mkZ) with the
// streaming detector, so the differential suite can pin the incremental
// bookkeeping bit for bit. They are exported to the external oracle tests
// from this test file; no program calls them.

// BruteKS is the offline executable specification of the streaming
// detector: it re-sorts both windows from scratch with a full sort and
// computes the gap with the same merge scan. The differential suite
// checks Stat() == BruteKS(...) bit-for-bit.
func BruteKS(ref, cur []float64) float64 {
	a, b := slices.Clone(ref), slices.Clone(cur)
	slices.Sort(a)
	slices.Sort(b)
	return ksGap(a, b)
}

// BrutePH is the offline executable specification: it replays the entire
// Page–Hinkley recursion over the full history with the same
// left-to-right summation order, so a correct streaming implementation
// matches it bit-for-bit.
func BrutePH(history []float64, delta float64) float64 {
	var t uint64
	var sum, mUp, mDn, mMin, mMax float64
	for _, x := range history {
		t++
		sum += x
		mean := sum / float64(t)
		mUp += x - mean - delta
		if mUp < mMin {
			mMin = mUp
		}
		mDn += x - mean + delta
		if mDn > mMax {
			mMax = mDn
		}
	}
	up := mUp - mMin
	dn := mMax - mDn
	if dn > up {
		return dn
	}
	return up
}

// BruteMK is the offline executable specification: the O(n²) pair scan
// over the window in arrival order plus the same tie-corrected Z. It
// returns both S and |Z| so the oracle suite can pin the integer
// statistic and the float score independently.
func BruteMK(windowVals []float64) (s int64, absZ float64) {
	for i := 0; i < len(windowVals); i++ {
		for j := i + 1; j < len(windowVals); j++ {
			s += sgn(windowVals[j] - windowVals[i])
		}
	}
	if len(windowVals) < 8 {
		return s, 0
	}
	sorted := append([]float64(nil), windowVals...)
	slices.Sort(sorted)
	return s, math.Abs(mkZ(s, sorted))
}

func sgn(d float64) int64 {
	if d > 0 {
		return 1
	}
	if d < 0 {
		return -1
	}
	return 0
}
