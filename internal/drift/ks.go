package drift

import "math"

// KS is the streaming two-sample Kolmogorov–Smirnov detector. It holds a
// frozen reference window (captured the first time the current window
// fills, or on Rebase) and the current sliding window, both sorted, and
// Stat is the classic max ECDF gap D computed by a two-pointer merge.
//
// All state is pre-allocated at construction; Observe and Stat perform no
// allocation.
type KS struct {
	win    sortedWindow // current window
	ref    []float64    // frozen sorted reference window (len W when refSet)
	refSet bool
}

// NewKS returns a detector with two windows of length w.
func NewKS(w int) *KS {
	return &KS{win: newSortedWindow(w), ref: make([]float64, 0, w)}
}

// Ready reports whether a reference has been captured, i.e. Stat is
// meaningful.
func (k *KS) Ready() bool { return k.refSet }

// Observe feeds one value. Non-finite values must be filtered by the
// caller (Detector does).
func (k *KS) Observe(x float64) {
	k.win.pop()
	k.win.push(x)
	if !k.refSet && k.win.full() {
		k.Rebase()
	}
}

// Stat returns the two-sample KS statistic D = max_x |F_ref(x) − F_cur(x)|
// between the reference and current windows, or 0 until a reference has
// been captured. Tie runs are consumed on both sides before the gap is
// measured, making D exact in the presence of duplicates.
func (k *KS) Stat() float64 {
	if !k.refSet {
		return 0
	}
	return ksGap(k.ref, k.win.sorted)
}

// ksGap computes the max ECDF gap between two sorted samples. Both the
// streaming detector and BruteKS call it, so the only difference the
// oracle suite can observe is the sortedness bookkeeping.
func ksGap(a, b []float64) float64 {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return 0
	}
	var d float64
	i, j := 0, 0
	for i < n && j < m {
		if a[i] < b[j] {
			i++
		} else if b[j] < a[i] {
			j++
		} else {
			v := a[i]
			for i < n && a[i] == v {
				i++
			}
			for j < m && b[j] == v {
				j++
			}
		}
		gap := math.Abs(float64(i)/float64(n) - float64(j)/float64(m))
		if gap > d {
			d = gap
		}
	}
	return d
}

// Rebase makes the current window the new reference: after an adaptation
// the post-change regime becomes the null hypothesis. If the current
// window is not yet full the reference is dropped and re-captured once it
// fills.
func (k *KS) Rebase() {
	k.refSet = k.win.full()
	k.ref = k.ref[:0]
	if k.refSet {
		k.ref = append(k.ref, k.win.sorted...)
	}
}
