package stream

import (
	"fmt"

	"odds/internal/stats"
	"odds/internal/window"
)

// Normalizer maps raw sensor readings into the [0,1]^d domain the kernel
// framework requires (Section 4: "we can map the domain of the input
// values to the interval [0,1]^d"). Configure it with the physical range
// of each attribute; out-of-range readings clamp to the boundary, which
// is also where a real deployment's ADC would saturate.
type Normalizer struct {
	lo, hi []float64
}

// NewNormalizer builds a normalizer from per-dimension [lo, hi] physical
// ranges. It panics on inverted or degenerate ranges — a configuration
// error.
func NewNormalizer(lo, hi []float64) *Normalizer {
	if len(lo) == 0 || len(lo) != len(hi) {
		panic(fmt.Sprintf("stream: normalizer ranges %d/%d invalid", len(lo), len(hi)))
	}
	for i := range lo {
		if !(hi[i] > lo[i]) {
			panic(fmt.Sprintf("stream: normalizer dim %d range [%v,%v] degenerate", i, lo[i], hi[i]))
		}
	}
	return &Normalizer{lo: append([]float64(nil), lo...), hi: append([]float64(nil), hi...)}
}

// Dim returns the normalizer's dimensionality.
func (n *Normalizer) Dim() int { return len(n.lo) }

// Normalize maps a raw reading into [0,1]^d (allocating a new point).
func (n *Normalizer) Normalize(raw []float64) window.Point {
	if len(raw) != len(n.lo) {
		panic(fmt.Sprintf("stream: normalize dim %d, want %d", len(raw), len(n.lo)))
	}
	p := make(window.Point, len(raw))
	for i, x := range raw {
		p[i] = stats.Clamp((x-n.lo[i])/(n.hi[i]-n.lo[i]), 0, 1)
	}
	return p
}

// Denormalize maps a normalized point back to physical units.
func (n *Normalizer) Denormalize(p window.Point) []float64 {
	if len(p) != len(n.lo) {
		panic(fmt.Sprintf("stream: denormalize dim %d, want %d", len(p), len(n.lo)))
	}
	out := make([]float64, len(p))
	for i, x := range p {
		out[i] = n.lo[i] + float64(x*(n.hi[i]-n.lo[i]))
	}
	return out
}

// Wrap adapts a raw-unit source into a normalized Source.
func (n *Normalizer) Wrap(raw Source) Source {
	if raw.Dim() != n.Dim() {
		panic(fmt.Sprintf("stream: wrap dim %d, normalizer dim %d", raw.Dim(), n.Dim()))
	}
	return &normalized{n: n, raw: raw}
}

type normalized struct {
	n   *Normalizer
	raw Source
}

func (s *normalized) Dim() int           { return s.n.Dim() }
func (s *normalized) Next() window.Point { return s.n.Normalize(s.raw.Next()) }

// Replay is a Source that replays recorded readings — the adapter for
// feeding real traces into the detectors. With Loop set it wraps around;
// otherwise Next panics once the trace is exhausted (callers control the
// epoch count).
type Replay struct {
	pts  []window.Point
	i    int
	dim  int
	Loop bool
}

// NewReplay wraps recorded points. The slice is used directly; callers
// must not mutate it afterwards. It panics on an empty or ragged trace.
func NewReplay(pts []window.Point, loop bool) *Replay {
	if len(pts) == 0 {
		panic("stream: empty replay trace")
	}
	dim := len(pts[0])
	if dim == 0 {
		panic("stream: zero-dimensional replay trace")
	}
	for i, p := range pts {
		if len(p) != dim {
			panic(fmt.Sprintf("stream: replay point %d has dim %d, want %d", i, len(p), dim))
		}
	}
	return &Replay{pts: pts, dim: dim, Loop: loop}
}

// Dim returns the trace dimensionality.
func (r *Replay) Dim() int { return r.dim }

// Remaining returns how many readings are left before exhaustion (or the
// trace length when looping).
func (r *Replay) Remaining() int {
	if r.Loop {
		return len(r.pts)
	}
	return len(r.pts) - r.i
}

// Next returns the next recorded reading.
func (r *Replay) Next() window.Point {
	if r.i >= len(r.pts) {
		if !r.Loop {
			panic("stream: replay trace exhausted")
		}
		r.i = 0
	}
	p := r.pts[r.i]
	r.i++
	return p.Clone()
}
