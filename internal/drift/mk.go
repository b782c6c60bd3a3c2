package drift

import (
	"math"
	"slices"
)

// MannKendall is the sliding-window Mann–Kendall trend detector. Over the
// window x_1..x_n (arrival order) the concordance statistic
//
//	S = Σ_{i<j} sign(x_j − x_i)
//
// is maintained incrementally. Admitting a value adds its sign against
// every resident (it is the latest element of each new pair); evicting
// the oldest subtracts its sign against every survivor (it was the
// earliest element of each dying pair). Both deltas reduce to strict
// rank counts — (#less − #greater) — answered by binary search on a
// sorted copy of the window maintained alongside the ring, so one
// observation costs O(log W) comparisons plus one memmove instead of an
// O(W) sign scan (ties contribute zero sign, so tie-group boundaries
// cancel exactly and S stays a bit-exact integer).
//
// Stat is |Z| with the tie-corrected variance
//
//	Var(S) = [n(n−1)(2n+5) − Σ_g t_g(t_g−1)(2t_g+5)] / 18
//
// over tie groups g (a single walk of the sorted window), and the ±1
// continuity correction. A constant stream is all ties: Var(S) = 0 and
// Stat reports 0 rather than dividing by it.
type MannKendall struct {
	w      int
	ring   []float64 // arrival order; head = next write (oldest when full)
	sorted []float64 // resident values, sorted
	head   int
	count  int
	s      int64
}

// NewMannKendall returns a detector over a sliding window of length w.
func NewMannKendall(w int) *MannKendall {
	return &MannKendall{
		w:      w,
		ring:   make([]float64, w),
		sorted: make([]float64, 0, w),
	}
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

// upperBound returns the first index i with s[i] > x.
func upperBound(s []float64, x float64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Observe feeds one value. Non-finite values must be filtered by the
// caller (Detector does).
func (m *MannKendall) Observe(x float64) {
	if m.count == m.w {
		old := m.ring[m.head]
		// Σ_survivors sign(e − old) = #greater − #less; old's own tie
		// group contributes zero sign either way.
		less := int64(lowerBound(m.sorted, old))
		greater := int64(len(m.sorted) - upperBound(m.sorted, old))
		m.s -= greater - less
		i := lowerBound(m.sorted, old)
		copy(m.sorted[i:], m.sorted[i+1:])
		m.sorted = m.sorted[:len(m.sorted)-1]
	} else {
		m.count++
	}
	// Σ_residents sign(x − e) = #less − #greater.
	less := int64(lowerBound(m.sorted, x))
	greater := int64(len(m.sorted) - upperBound(m.sorted, x))
	m.s += less - greater
	i := lowerBound(m.sorted, x)
	m.sorted = append(m.sorted, 0)
	copy(m.sorted[i+1:], m.sorted[i:])
	m.sorted[i] = x

	m.ring[m.head] = x
	m.head++
	if m.head == m.w {
		m.head = 0
	}
}

// S returns the current concordance statistic.
func (m *MannKendall) S() int64 { return m.s }

// Count returns the number of resident values.
func (m *MannKendall) Count() int { return m.count }

// Stat returns |Z|, the tie-corrected normal score of S, or 0 while the
// window holds fewer than 8 values (the normal approximation is
// meaningless below that) or when every resident value is tied.
func (m *MannKendall) Stat() float64 {
	if m.count < 8 {
		return 0
	}
	return math.Abs(mkZ(m.s, m.sorted))
}

// mkZ computes the continuity-corrected Z score from S and the sorted
// window values (used for tie counting). Shared by the streaming detector
// and BruteMK so both sides perform the identical float operations.
func mkZ(s int64, sorted []float64) float64 {
	n := int64(len(sorted))
	tieSum := int64(0)
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		t := int64(j - i)
		if t > 1 {
			tieSum += t * (t - 1) * (2*t + 5)
		}
		i = j
	}
	num := n*(n-1)*(2*n+5) - tieSum
	if num <= 0 {
		return 0
	}
	sd := math.Sqrt(float64(num) / 18)
	switch {
	case s > 0:
		return float64(s-1) / sd
	case s < 0:
		return float64(s+1) / sd
	default:
		return 0
	}
}

// Reset empties the window.
func (m *MannKendall) Reset() {
	m.head = 0
	m.count = 0
	m.s = 0
	m.sorted = m.sorted[:0]
}

// Resize resets the detector with a new window length.
func (m *MannKendall) Resize(w int) {
	m.w = w
	m.ring = make([]float64, w)
	m.sorted = make([]float64, 0, w)
	m.Reset()
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

// sortFloats sorts s ascending in place. Inputs are pre-filtered to be
// finite, so the total order is unambiguous.
func sortFloats(s []float64) {
	slices.Sort(s)
}
