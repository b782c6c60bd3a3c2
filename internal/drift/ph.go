package drift

// PageHinkley is the sequential mean-shift detector with the classic O(1)
// recursion. With running mean x̄_t = (Σ x_i)/t it maintains, two-sided,
//
//	mUp_t = mUp_{t-1} + (x_t − x̄_t − δ)   MUp_t = min_{s<=t} mUp_s
//	mDn_t = mDn_{t-1} + (x_t − x̄_t + δ)   MDn_t = max_{s<=t} mDn_s
//
// and Stat = max(mUp − MUp, MDn − mDn): the cumulative deviation since
// the most favorable point, which crosses λ quickly after a persistent
// mean shift in either direction. δ absorbs in-control fluctuation.
//
// The recursion is replayed term-for-term by BrutePH, so the streaming
// statistic is pinned bit-for-bit, not approximately.
type PageHinkley struct {
	delta      float64
	t          uint64
	sum        float64
	mUp, mDn   float64
	mMin, mMax float64
}

// NewPageHinkley returns a detector with magnitude allowance delta.
func NewPageHinkley(delta float64) *PageHinkley {
	return &PageHinkley{delta: delta}
}

// Observe feeds one value. Non-finite values must be filtered by the
// caller (Detector does).
func (p *PageHinkley) Observe(x float64) {
	p.t++
	p.sum += x
	mean := p.sum / float64(p.t)
	p.mUp += x - mean - p.delta
	if p.mUp < p.mMin {
		p.mMin = p.mUp
	}
	p.mDn += x - mean + p.delta
	if p.mDn > p.mMax {
		p.mMax = p.mDn
	}
}

// Stat returns the current two-sided Page–Hinkley statistic.
func (p *PageHinkley) Stat() float64 {
	up := p.mUp - p.mMin
	dn := p.mMax - p.mDn
	if dn > up {
		return dn
	}
	return up
}

// Reset restarts the recursion; the next observation starts a fresh
// in-control estimate.
func (p *PageHinkley) Reset() {
	p.t = 0
	p.sum = 0
	p.mUp, p.mDn = 0, 0
	p.mMin, p.mMax = 0, 0
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
