package apps

import (
	"fmt"
	"math"

	"odds/internal/core"
	"odds/internal/window"
)

// RegionEngine answers the full Section 9 query form — "what is the
// average temperature in region (X,Y) during the time interval
// [t1,t2]?" — over a fleet of sensors with known plane positions: per
// sensor it keeps a temporal RangeEngine, and a query first selects the
// sensors inside the spatial rectangle, then combines their temporal
// estimates.
type RegionEngine struct {
	engines   []*RangeEngine
	positions [][2]float64
	dim       int
}

// NewRegionEngine creates engines for sensors at the given plane
// positions. blockLen/maxBlocks set the temporal resolution as in
// NewRangeEngine.
func NewRegionEngine(cfg core.Config, positions [][2]float64, blockLen, maxBlocks int) *RegionEngine {
	if len(positions) == 0 {
		panic("apps: region engine needs at least one sensor")
	}
	r := &RegionEngine{dim: cfg.Dim, positions: append([][2]float64(nil), positions...)}
	for range positions {
		r.engines = append(r.engines, NewRangeEngine(cfg, blockLen, maxBlocks))
	}
	return r
}

// Sensors returns the fleet size.
func (r *RegionEngine) Sensors() int { return len(r.engines) }

// Observe feeds one reading from sensor i.
func (r *RegionEngine) Observe(i int, p window.Point) {
	if i < 0 || i >= len(r.engines) {
		panic(fmt.Sprintf("apps: sensor %d out of range", i))
	}
	r.engines[i].Observe(p)
}

// inRegion reports whether sensor i sits in the rectangle
// [x1,x2]×[y1,y2].
func (r *RegionEngine) inRegion(i int, x1, y1, x2, y2 float64) bool {
	p := r.positions[i]
	return p[0] >= x1 && p[0] <= x2 && p[1] >= y1 && p[1] <= y2
}

// SensorsIn lists the sensors inside the rectangle.
func (r *RegionEngine) SensorsIn(x1, y1, x2, y2 float64) []int {
	var out []int
	for i := range r.positions {
		if r.inRegion(i, x1, y1, x2, y2) {
			out = append(out, i)
		}
	}
	return out
}

// Count estimates how many readings with values in [lo,hi] were produced
// during [t1,t2) by sensors inside the spatial rectangle.
func (r *RegionEngine) Count(x1, y1, x2, y2 float64, lo, hi []float64, t1, t2 int) float64 {
	total := 0.0
	for _, i := range r.SensorsIn(x1, y1, x2, y2) {
		total += r.engines[i].Count(lo, hi, t1, t2)
	}
	return total
}

// Average estimates the mean of value-dimension dim over the same scope,
// weighting each sensor's contribution by its estimated in-box count. It
// returns NaN when the region holds no mass.
func (r *RegionEngine) Average(x1, y1, x2, y2 float64, dim int, lo, hi []float64, t1, t2 int) float64 {
	var wsum, xsum float64
	for _, i := range r.SensorsIn(x1, y1, x2, y2) {
		w := r.engines[i].Count(lo, hi, t1, t2)
		if w <= 0 {
			continue
		}
		a := r.engines[i].Average(dim, lo, hi, t1, t2)
		if math.IsNaN(a) {
			continue
		}
		wsum += w
		xsum += float64(w * a)
	}
	if wsum == 0 {
		return math.NaN()
	}
	return xsum / wsum
}
