package drift

import (
	"math"

	"odds/internal/window"
)

// MannKendall is the sliding-window Mann–Kendall trend detector. Over the
// window x_1..x_n (arrival order) the concordance statistic
//
//	S = Σ_{i<j} sign(x_j − x_i)
//
// is maintained incrementally. Admitting a value adds its sign against
// every resident (it is the latest element of each new pair); evicting
// the oldest subtracts the sign of every survivor against it (it was the
// earliest element of each dying pair). Both deltas are the value's
// concordance, #less − #greater among the survivors, answered by binary
// search on the sorted window (window.Sorted), so one observation costs O(log W)
// comparisons plus one memmove instead of an O(W) sign scan (ties
// contribute zero sign, so S stays a bit-exact integer).
//
// Stat is |Z| with the tie-corrected variance
//
//	Var(S) = [n(n−1)(2n+5) − Σ_g t_g(t_g−1)(2t_g+5)] / 18
//
// over tie groups g (a single walk of the sorted window), and the ±1
// continuity correction. A constant stream is all ties: Var(S) = 0 and
// Stat reports 0 rather than dividing by it.
type MannKendall struct {
	win window.Sorted
	s   int64
}

// NewMannKendall returns a detector over a sliding window of length w.
func NewMannKendall(w int) *MannKendall {
	return &MannKendall{win: window.NewSorted(w)}
}

// Observe feeds one value. Non-finite values must be filtered by the
// caller (Detector does).
func (m *MannKendall) Observe(x float64) {
	if old, _, ok := m.win.Pop(); ok {
		m.s += concordance(m.win.Values(), old)
	}
	m.s += concordance(m.win.Values(), x)
	m.win.Push(x)
}

// concordance returns Σ_residents sign(v − e) = #less − #greater over the
// ascending residents; v's own tie group contributes zero either way.
func concordance(sorted []float64, v float64) int64 {
	return int64(window.LowerBound(sorted, v) - (len(sorted) - window.UpperBound(sorted, v)))
}

// S returns the current concordance statistic.
func (m *MannKendall) S() int64 { return m.s }

// Stat returns |Z|, the tie-corrected normal score of S, or 0 while the
// window holds fewer than 8 values (the normal approximation is
// meaningless below that) or when every resident value is tied.
func (m *MannKendall) Stat() float64 {
	if m.win.Len() < 8 {
		return 0
	}
	return math.Abs(mkZ(m.s, m.win.Values()))
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
	m.win.Reset()
	m.s = 0
}
