package drift

import "math"

// KS is the streaming two-sample Kolmogorov–Smirnov detector. It holds a
// frozen reference window (captured the first time the current window
// fills, or on Rebase) and the current sliding window, both as sorted
// arrays maintained by binary-search insertion — the full-resolution
// equi-depth summary of each window, so RefQuantile/CurQuantile answer
// the same φ-quantile queries the GK sketch serves on the latency path.
// Stat is the classic max ECDF gap D computed by a two-pointer merge.
//
// All state is pre-allocated at construction; Observe and Stat perform no
// allocation.
type KS struct {
	w      int
	ref    []float64 // frozen sorted reference window (len w when refSet)
	refSet bool
	ring   []float64 // current window in arrival order; head = next write
	sorted []float64 // current window, sorted
	head   int
	count  int
}

// NewKS returns a detector with two windows of length w.
func NewKS(w int) *KS {
	return &KS{
		w:      w,
		ref:    make([]float64, 0, w),
		ring:   make([]float64, w),
		sorted: make([]float64, 0, w),
	}
}

// Window returns the configured window length.
func (k *KS) Window() int { return k.w }

// Ready reports whether a reference has been captured, i.e. Stat is
// meaningful.
func (k *KS) Ready() bool { return k.refSet }

// Observe feeds one value. Non-finite values must be filtered by the
// caller (Detector does).
func (k *KS) Observe(x float64) {
	if k.count == k.w {
		old := k.ring[k.head]
		k.removeSorted(old)
	} else {
		k.count++
	}
	k.ring[k.head] = x
	k.head++
	if k.head == k.w {
		k.head = 0
	}
	k.insertSorted(x)
	if !k.refSet && k.count == k.w {
		k.ref = append(k.ref[:0], k.sorted...)
		k.refSet = true
	}
}

// insertSorted places x into the sorted current window.
func (k *KS) insertSorted(x float64) {
	i := lowerBound(k.sorted, x)
	k.sorted = append(k.sorted, 0)
	copy(k.sorted[i+1:], k.sorted[i:])
	k.sorted[i] = x
}

// removeSorted deletes one occurrence of x from the sorted current window.
func (k *KS) removeSorted(x float64) {
	i := lowerBound(k.sorted, x)
	// x is guaranteed present: it was inserted by Observe.
	copy(k.sorted[i:], k.sorted[i+1:])
	k.sorted = k.sorted[:len(k.sorted)-1]
}

// lowerBound returns the first index i with s[i] >= x.
func lowerBound(s []float64, x float64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Stat returns the two-sample KS statistic D = max_x |F_ref(x) − F_cur(x)|
// between the reference and current windows, or 0 until a reference has
// been captured. Tie runs are consumed on both sides before the gap is
// measured, making D exact in the presence of duplicates.
func (k *KS) Stat() float64 {
	if !k.refSet {
		return 0
	}
	return ksGap(k.ref, k.sorted)
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
	if k.count == k.w {
		k.ref = append(k.ref[:0], k.sorted...)
		k.refSet = true
		return
	}
	k.ref = k.ref[:0]
	k.refSet = false
}

// Reset discards both windows.
func (k *KS) Reset() {
	k.ref = k.ref[:0]
	k.refSet = false
	k.sorted = k.sorted[:0]
	k.head = 0
	k.count = 0
}

// Resize resets the detector with a new window length.
func (k *KS) Resize(w int) {
	k.w = w
	k.ref = make([]float64, 0, w)
	k.ring = make([]float64, w)
	k.sorted = make([]float64, 0, w)
	k.head = 0
	k.count = 0
	k.refSet = false
}

// RefQuantile returns the φ-quantile of the frozen reference window
// (nearest-rank, matching quantile.Summary semantics), or NaN before a
// reference exists.
func (k *KS) RefQuantile(phi float64) float64 { return sortedQuantile(k.ref, phi) }

// CurQuantile returns the φ-quantile of the current window, or NaN while
// it is empty.
func (k *KS) CurQuantile(phi float64) float64 { return sortedQuantile(k.sorted, phi) }

func sortedQuantile(s []float64, phi float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(phi * float64(len(s))))
	if r < 1 {
		r = 1
	}
	if r > len(s) {
		r = len(s)
	}
	return s[r-1]
}

// BruteKS is the offline executable specification of the streaming
// detector: it re-sorts both windows from scratch with a full sort and
// computes the gap with the same merge scan. The differential suite
// checks Stat() == BruteKS(...) bit-for-bit.
func BruteKS(ref, cur []float64) float64 {
	a := append([]float64(nil), ref...)
	b := append([]float64(nil), cur...)
	sortFloats(a)
	sortFloats(b)
	return ksGap(a, b)
}

// CurWindow appends the current window in arrival order to dst and
// returns it.
func (k *KS) CurWindow(dst []float64) []float64 {
	if k.count < k.w {
		return append(dst, k.ring[:k.count]...)
	}
	dst = append(dst, k.ring[k.head:]...)
	return append(dst, k.ring[:k.head]...)
}
