package sample

import (
	"math"
	"runtime"
	"testing"

	"odds/internal/binfmt"
	"odds/internal/stats"
	"odds/internal/window"
)

func TestChainMarshalRoundTrip(t *testing.T) {
	c := NewChain(16, 200, 2, stats.NewRand(1))
	src := stats.NewRand(2)
	for i := 0; i < 1500; i++ {
		c.Push(window.Point{src.Float64(), src.Float64()})
	}
	data, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalChain(data, stats.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != c.Size() || back.WindowCap() != c.WindowCap() ||
		back.Dim() != c.Dim() || back.Seen() != c.Seen() {
		t.Fatal("header mismatch after round trip")
	}
	// The restored sample holds exactly the same points.
	a, b := c.Points(), back.Points()
	if len(a) != len(b) {
		t.Fatalf("sample sizes differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("sample %d differs: %v vs %v", i, a[i], b[i])
		}
	}
	if back.StoredPoints() != c.StoredPoints() {
		t.Errorf("stored points differ: %d vs %d", back.StoredPoints(), c.StoredPoints())
	}
}

func TestChainRestoredContinuesValidly(t *testing.T) {
	// After a handoff the restored sample must keep the window invariant:
	// samples always inside the current window.
	const wcap = 100
	c := NewChain(8, wcap, 1, stats.NewRand(4))
	arrival := 0
	for i := 0; i < 500; i++ {
		arrival++
		c.Push(window.Point{float64(arrival)})
	}
	data, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalChain(data, stats.NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		arrival++
		back.Push(window.Point{float64(arrival)})
		lo := float64(arrival - wcap + 1)
		for _, p := range back.Points() {
			if p[0] < lo || p[0] > float64(arrival) {
				t.Fatalf("restored sample %v outside window [%v,%v]", p[0], lo, float64(arrival))
			}
		}
	}
	// Eventually all pre-handoff points rotate out.
	for _, p := range back.Points() {
		if p[0] <= 500 {
			t.Errorf("stale pre-handoff sample %v survived full window turnover", p[0])
		}
	}
}

func TestUnmarshalChainRejectsGarbage(t *testing.T) {
	c := NewChain(4, 50, 1, stats.NewRand(6))
	for i := 0; i < 100; i++ {
		c.Push(window.Point{float64(i)})
	}
	data, _ := c.MarshalBinary()
	rng := stats.NewRand(7)
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": append([]byte{9, 9, 9, 9}, data[4:]...),
		"truncated": data[:len(data)-3],
		"trailing":  append(append([]byte(nil), data...), 1),
	}
	for name, d := range cases {
		if _, err := UnmarshalChain(d, rng); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := UnmarshalChain(data, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

// positionBlob is an ODSB blob of one slot at stream position n over a
// window of w; with succ set, the slot holds no sample and one captured
// successor at index succ.
func positionBlob(n, w uint64, succ *uint64) []byte {
	var b binfmt.Writer
	b.U32(marshalMagic)
	b.U32(1) // slots
	b.U64(w)
	b.U32(1) // dim
	b.U64(n)
	b.U32(0) // slot 0: no sample
	b.U64(0) // awaited index
	if succ == nil {
		b.U32(0)
	} else {
		b.U32(1)
		b.U64(*succ)
		b.F64(1.5)
	}
	b.U32(0) // expiry map
	b.U32(0) // capture map
	return b.B
}

// TestUnmarshalChainRejectsOverflowingPositions pins the restore side of
// Push's index arithmetic: a blob whose stream position or window lets
// idx + w, i + 1 + draw or the adoption skip overflow used to restore and
// then panic on the next Push (slot index out of range in adopt).
func TestUnmarshalChainRejectsOverflowingPositions(t *testing.T) {
	far := uint64(61)
	bad := map[string][]byte{
		"next arrival wraps":          positionBlob(math.MaxUint64, 60, nil),
		"position plus window":        positionBlob(math.MaxInt64-59, 60, nil),
		"fuzzed position and window":  positionBlob(3_500_000_000_000_000_000, math.MaxInt64, nil),
		"window overflows the skip":   positionBlob(1<<61, 1<<62, nil),
		"successor beyond the stream": positionBlob(60, 60, &far),
	}
	for name, blob := range bad {
		if _, err := UnmarshalChain(blob, stats.NewRand(1)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// The largest admitted positions and window run.
	edge := uint64(60)
	good := map[string][]byte{
		"last position":          positionBlob(math.MaxInt64-60, 60, nil),
		"largest window":         positionBlob(math.MaxInt64-maxChainWindow, maxChainWindow, nil),
		"successor at the front": positionBlob(60, 60, &edge),
	}
	for name, blob := range good {
		c, err := UnmarshalChain(blob, stats.NewRand(2))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 500; i++ {
			c.Push(window.Point{float64(i)})
		}
	}
}

// hostileEventList is a 60-byte ODSB blob: one empty slot, then an expiry
// map whose single entry claims a 1<<24-element slot list and ends there.
func hostileEventList() []byte {
	var w binfmt.Writer
	w.U32(marshalMagic)
	w.U32(1)   // slots
	w.U64(100) // window
	w.U32(1)   // dim
	w.U64(0)   // arrivals
	w.U32(0)   // slot 0: no sample
	w.U64(0)   // awaited index
	w.U32(0)   // chain length
	w.U32(1)   // expiry map entries
	w.U64(7)   // entry index
	w.U32(1 << 24)
	return w.B
}

// TestUnmarshalChainSizesNothingFromCounts pins the allocation-before-
// bounds fix: the list length above used to size a 128 MiB []int before
// the first element was found missing.
func TestUnmarshalChainSizesNothingFromCounts(t *testing.T) {
	blob := hostileEventList()
	if len(blob) != 60 {
		t.Fatalf("blob is %d bytes, want 60", len(blob))
	}
	rng := stats.NewRand(1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := UnmarshalChain(blob, rng)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("blob with a 1<<24-element list and no elements accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("rejecting the blob allocated %d bytes", got)
	}
}
