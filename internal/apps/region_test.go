package apps

import (
	"math"
	"testing"

	"odds/internal/stats"
	"odds/internal/window"
)

// regionFixture: four sensors at the plane corners; the two western
// sensors read near 0.2, the two eastern near 0.8.
func regionFixture(t *testing.T) *RegionEngine {
	t.Helper()
	pos := [][2]float64{{0.1, 0.1}, {0.1, 0.9}, {0.9, 0.1}, {0.9, 0.9}}
	r := NewRegionEngine(engineConfig(1), pos, 64, 32)
	rng := stats.NewRand(2)
	for i := 0; i < 1024; i++ {
		for s := 0; s < 4; s++ {
			mu := 0.2
			if s >= 2 {
				mu = 0.8
			}
			r.Observe(s, window.Point{stats.Clamp(mu+rng.NormFloat64()*0.02, 0, 1)})
		}
	}
	return r
}

func TestRegionEngineSensorsIn(t *testing.T) {
	r := regionFixture(t)
	if got := r.SensorsIn(0, 0, 1, 1); len(got) != 4 {
		t.Errorf("whole plane: %v", got)
	}
	west := r.SensorsIn(0, 0, 0.5, 1)
	if len(west) != 2 || west[0] != 0 || west[1] != 1 {
		t.Errorf("west region: %v", west)
	}
	if got := r.SensorsIn(0.4, 0.4, 0.6, 0.6); len(got) != 0 {
		t.Errorf("empty region: %v", got)
	}
	if r.Sensors() != 4 {
		t.Error("Sensors wrong")
	}
}

func TestRegionEngineSpatialCount(t *testing.T) {
	r := regionFixture(t)
	// High readings only come from the eastern sensors.
	lo, hi := []float64{0.7}, []float64{0.9}
	east := r.Count(0.5, 0, 1, 1, lo, hi, 0, 0)
	west := r.Count(0, 0, 0.5, 1, lo, hi, 0, 0)
	if east < 1800 {
		t.Errorf("east high-count = %v, want ≈2048", east)
	}
	if west > 100 {
		t.Errorf("west high-count = %v, want ≈0", west)
	}
}

func TestRegionEngineSpatialAverage(t *testing.T) {
	r := regionFixture(t)
	all := []float64{0}
	top := []float64{1}
	west := r.Average(0, 0, 0.5, 1, 0, all, top, 0, 0)
	east := r.Average(0.5, 0, 1, 1, 0, all, top, 0, 0)
	if math.Abs(west-0.2) > 0.03 {
		t.Errorf("west average = %v, want ≈0.2", west)
	}
	if math.Abs(east-0.8) > 0.03 {
		t.Errorf("east average = %v, want ≈0.8", east)
	}
	whole := r.Average(0, 0, 1, 1, 0, all, top, 0, 0)
	if math.Abs(whole-0.5) > 0.05 {
		t.Errorf("whole-plane average = %v, want ≈0.5", whole)
	}
	if !math.IsNaN(r.Average(0.4, 0.4, 0.6, 0.6, 0, all, top, 0, 0)) {
		t.Error("empty-region average should be NaN")
	}
}

func TestRegionEnginePanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty positions did not panic")
			}
		}()
		NewRegionEngine(engineConfig(1), nil, 64, 8)
	}()
	r := regionFixture(t)
	defer func() {
		if recover() == nil {
			t.Error("bad sensor index did not panic")
		}
	}()
	r.Observe(99, window.Point{0.5})
}
