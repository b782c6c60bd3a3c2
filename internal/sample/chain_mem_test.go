package sample

import (
	"math/rand"
	"runtime"
	"testing"

	"odds/internal/window"
)

// Serving shape: the kernelchain backend oddserve runs, |R| = 500 slots
// over |W| = 10⁴ readings at d = 1, recycling on.
const (
	servingK = 500
	servingW = 10_000
)

// servingChain returns a serving-shape chain after n arrivals.
func servingChain(n int) *Chain {
	c := NewChain(servingK, servingW, 1, rand.New(rand.NewSource(1)))
	c.EnableRecycling()
	data := rand.New(rand.NewSource(2))
	p := make(window.Point, 1)
	for i := 0; i < n; i++ {
		p[0] = data.Float64()
		c.Push(p)
	}
	return c
}

// liveHeap returns the live heap after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestChainHeapBytes bounds what a serving-shape chain costs in live heap
// once the window has turned over: the slots, chains and points it holds
// plus its two calendars, each no more than twice as long as it must be.
// The hash-map schedules the calendars replaced kept it near 500 KB.
func TestChainHeapBytes(t *testing.T) {
	const limit = 160 << 10
	before := liveHeap()
	c := servingChain(3 * servingW)
	after := liveHeap()
	runtime.KeepAlive(c)
	if delta := after - before; delta > limit {
		t.Errorf("serving-shape chain holds %d B of live heap, want ≤ %d", delta, limit)
	} else {
		t.Logf("serving-shape chain: %d B live heap, %d points, %d+%d events",
			delta, c.StoredPoints(), len(c.expire.ev), len(c.want.ev))
	}
	for name, cal := range map[string]*calendar{"expiry": &c.expire, "capture": &c.want} {
		if n, cp := len(cal.ev), cap(cal.ev); cp > 2*n {
			t.Errorf("%s calendar: capacity %d for %d events", name, cp, n)
		}
	}
}

// TestChainPushZeroAllocs pins steady-state Push with recycling at zero
// allocations: points come from the free pool and the calendars grow in
// place.
func TestChainPushZeroAllocs(t *testing.T) {
	c := servingChain(3 * servingW)
	data := rand.New(rand.NewSource(3))
	p := make(window.Point, 1)
	if a := testing.AllocsPerRun(servingW, func() {
		p[0] = data.Float64()
		c.Push(p)
	}); a != 0 {
		t.Errorf("steady-state Push allocates %v times per call", a)
	}
}

// BenchmarkChainPush is one steady-state Push at the serving shape.
func BenchmarkChainPush(b *testing.B) {
	c := servingChain(3 * servingW)
	data := rand.New(rand.NewSource(3))
	p := make(window.Point, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p[0] = data.Float64()
		c.Push(p)
	}
}
