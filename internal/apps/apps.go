// Package apps implements the additional applications the paper builds on
// the density-estimation framework (Section 9): approximate range-query
// answering with spatial and temporal constraints, and online detection of
// faulty sensors by comparing estimator models across children of a
// leader.
//
// A product that feeds a sum is written float64(x*y), a rounding the Go
// spec forbids the compiler to fuse into a multiply-add, so every
// architecture computes what amd64 does, bit for bit (DESIGN.md §7).
package apps

import (
	"fmt"
	"math"
	"sort"

	"odds/internal/core"
	"odds/internal/divergence"
	"odds/internal/kernel"
	"odds/internal/stats"
	"odds/internal/window"
)

// RangeEngine answers approximate range queries over a sensor's recent
// readings, optionally constrained to a time interval: "what is the
// average temperature in region (X,Y) during [t1,t2]?" (Section 9). It
// maintains one kernel model per fixed-length block of arrivals; a
// temporal query combines the models of the blocks overlapping the
// interval, weighting by block size.
type RangeEngine struct {
	blockLen int
	blocks   []block
	maxBlk   int
	cur      []window.Point
	now      int
	dim      int
}

type block struct {
	start, end int // arrival-index range, end exclusive
	model      *kernel.Estimator
}

// NewRangeEngine returns an engine whose temporal resolution is blockLen
// arrivals, retaining up to maxBlocks past blocks, over cfg.Dim-dimensional
// readings. It panics on an invalid block shape or cfg.
func NewRangeEngine(cfg core.Config, blockLen, maxBlocks int) *RangeEngine {
	if blockLen <= 0 || maxBlocks <= 0 {
		panic(fmt.Sprintf("apps: block config %d,%d must be positive", blockLen, maxBlocks))
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &RangeEngine{
		blockLen: blockLen,
		maxBlk:   maxBlocks,
		dim:      cfg.Dim,
	}
}

// Observe feeds one reading.
func (e *RangeEngine) Observe(p window.Point) {
	e.cur = append(e.cur, p.Clone())
	e.now++
	if len(e.cur) < e.blockLen {
		return
	}
	// Seal the block into a model with bandwidths from the block's own
	// per-dimension spread — a temporal block is its own little window.
	sigmas := make([]float64, e.dim)
	for d := 0; d < e.dim; d++ {
		var m stats.Moments
		for _, p := range e.cur {
			m.Add(p[d])
		}
		sigmas[d] = m.StdDev()
	}
	m, err := kernel.FromSample(e.cur, sigmas, float64(len(e.cur)))
	if err == nil {
		e.blocks = append(e.blocks, block{start: e.now - len(e.cur), end: e.now, model: m})
		if len(e.blocks) > e.maxBlk {
			e.blocks = e.blocks[1:]
		}
	}
	e.cur = nil
}

// Now returns the number of readings observed.
func (e *RangeEngine) Now() int { return e.now }

// Count estimates how many readings in [t1,t2) fell inside the box
// [lo,hi]. Times are arrival indices; t2 ≤ 0 means "now". Readings in the
// un-sealed current block contribute exactly.
func (e *RangeEngine) Count(lo, hi []float64, t1, t2 int) float64 {
	if t2 <= 0 || t2 > e.now {
		t2 = e.now
	}
	if t1 < 0 {
		t1 = 0
	}
	if t1 >= t2 {
		return 0
	}
	total := 0.0
	for _, b := range e.blocks {
		ov := overlap(t1, t2, b.start, b.end)
		if ov == 0 {
			continue
		}
		frac := float64(ov) / float64(b.end-b.start)
		total += float64(b.model.ProbBox(lo, hi) * float64(b.end-b.start) * frac)
	}
	// Current (unsealed) block: exact count.
	curStart := e.now - len(e.cur)
	if ov := overlap(t1, t2, curStart, e.now); ov > 0 {
		for i, p := range e.cur {
			idx := curStart + i
			if idx >= t1 && idx < t2 && inBox(p, lo, hi) {
				total++
			}
		}
	}
	return total
}

// Average estimates the mean of dimension dim among readings in [t1,t2)
// inside the box [lo,hi], by mass-weighting kernel centers. It returns NaN
// when the interval holds no mass.
func (e *RangeEngine) Average(dim int, lo, hi []float64, t1, t2 int) float64 {
	if dim < 0 || dim >= e.dim {
		panic(fmt.Sprintf("apps: dimension %d out of range", dim))
	}
	if t2 <= 0 || t2 > e.now {
		t2 = e.now
	}
	if t1 < 0 {
		t1 = 0
	}
	var wsum, xsum float64
	add := func(p window.Point, w float64) {
		wsum += w
		xsum += float64(w * p[dim])
	}
	for _, b := range e.blocks {
		ov := overlap(t1, t2, b.start, b.end)
		if ov == 0 {
			continue
		}
		frac := float64(ov) / float64(b.end-b.start)
		// Weight each kernel center by the mass its kernel puts in the box.
		for _, c := range b.model.Centers() {
			if m := b.model.CenterMass(c, lo, hi); m > 0 {
				add(c, float64(m*frac))
			}
		}
	}
	curStart := e.now - len(e.cur)
	for i, p := range e.cur {
		idx := curStart + i
		if idx >= t1 && idx < t2 && inBox(p, lo, hi) {
			add(p, 1)
		}
	}
	if wsum == 0 {
		return math.NaN()
	}
	return xsum / wsum
}

func overlap(a1, a2, b1, b2 int) int {
	lo := a1
	if b1 > lo {
		lo = b1
	}
	hi := a2
	if b2 < hi {
		hi = b2
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

func inBox(p window.Point, lo, hi []float64) bool {
	for i := range p {
		if p[i] < lo[i] || p[i] > hi[i] {
			return false
		}
	}
	return true
}

// FaultReport names a child whose model deviates from its siblings'.
type FaultReport struct {
	Child   int
	AvgDist float64
}

// FaultDetector implements the Section 9 faulty-sensor query: a parent
// compares the estimator models received from its children and warns when
// one child's distribution deviates from the others ("give a warning when
// the values of a given sensor are significantly different from the
// values of its neighbors over the most recent window").
type FaultDetector struct {
	models     []divergence.Model
	gridPoints int
}

// NewFaultDetector compares models on a JS grid of the given resolution.
func NewFaultDetector(gridPoints int) *FaultDetector {
	if gridPoints <= 0 {
		panic("apps: gridPoints must be positive")
	}
	return &FaultDetector{gridPoints: gridPoints}
}

// SetModel registers (or replaces) child i's current model.
func (f *FaultDetector) SetModel(child int, m divergence.Model) {
	for len(f.models) <= child {
		f.models = append(f.models, nil)
	}
	f.models[child] = m
}

// Scan returns the children whose average JS distance to every sibling
// exceeds threshold, most deviant first.
func (f *FaultDetector) Scan(threshold float64) []FaultReport {
	var present []int
	for i, m := range f.models {
		if m != nil {
			present = append(present, i)
		}
	}
	if len(present) < 2 {
		return nil
	}
	var out []FaultReport
	for _, i := range present {
		sum, n := 0.0, 0
		for _, j := range present {
			if i == j {
				continue
			}
			sum += divergence.JS(f.models[i], f.models[j], f.gridPoints)
			n++
		}
		avg := sum / float64(n)
		if avg > threshold {
			out = append(out, FaultReport{Child: i, AvgDist: avg})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].AvgDist > out[b].AvgDist })
	return out
}

// RegionMonitor implements the second Section 9 fault query: "give a
// warning if the number of outliers in a given region exceeds a threshold
// T over the most recent time window W". Feed it the outlier events a
// region's sensors report.
type RegionMonitor struct {
	window    int
	threshold int
	times     []int
}

// NewRegionMonitor warns when more than threshold outliers arrive within
// any window of `window` epochs.
func NewRegionMonitor(window, threshold int) *RegionMonitor {
	if window <= 0 || threshold <= 0 {
		panic("apps: monitor parameters must be positive")
	}
	return &RegionMonitor{window: window, threshold: threshold}
}

// Report records an outlier at the given epoch (non-decreasing) and
// returns true when the alarm condition holds.
func (m *RegionMonitor) Report(epoch int) bool {
	m.times = append(m.times, epoch)
	cut := epoch - m.window
	i := 0
	for i < len(m.times) && m.times[i] <= cut {
		i++
	}
	m.times = m.times[i:]
	return len(m.times) > m.threshold
}

// Pending returns the number of outliers currently inside the window.
func (m *RegionMonitor) Pending() int { return len(m.times) }
