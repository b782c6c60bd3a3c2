package sample

import (
	"slices"
	"sort"
	"testing"
)

// slotsAt lists the slots scheduled in cal at arrival idx, in the order
// Push acts on them, stale entries included.
func slotsAt(cal *calendar, idx uint64) []int {
	var out []int
	for _, e := range cal.sorted() {
		if e.idx == idx {
			out = append(out, int(e.slot))
		}
	}
	return out
}

// FuzzCalendar drives a calendar the way Push does — events added after
// the current arrival, then the arrival advanced and its due events
// popped — against the hash map of slot lists the calendar replaced. Pops
// must come out in the map's list order, nothing at or before the current
// arrival may stay pending, fit must keep the capacity within twice the
// length, and sorted must list the map's events by ascending index.
func FuzzCalendar(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 0, 2, 3, 3, 3})
	f.Add([]byte{60, 0, 5, 1, 5, 2, 5, 0, 1, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		span := uint64(ops[0]%64) + 1
		var cal calendar
		ref := map[uint64][]int{}
		now := uint64(0)
		for j := 1; j+1 < len(ops); j += 2 {
			op, arg := ops[j], ops[j+1]
			if op%4 != 3 {
				idx := now + 1 + uint64(arg)%span
				cal.add(idx, int(op))
				ref[idx] = append(ref[idx], int(op))
				continue
			}
			// Advance by 1 + op/4 arrivals, popping each one's events.
			for step := 0; step <= int(op/4)%4; step++ {
				now++
				var got []int
				for cal.due(now) {
					got = append(got, cal.pop())
				}
				cal.fit()
				if !slices.Equal(got, ref[now]) {
					t.Fatalf("arrival %d: popped %v, map list %v", now, got, ref[now])
				}
				delete(ref, now)
				if len(cal.ev) > 0 && cal.ev[0].idx <= now {
					t.Fatalf("arrival %d: event at %d still pending", now, cal.ev[0].idx)
				}
				if c := cap(cal.ev); c > minCalendarCap && c > 2*len(cal.ev) {
					t.Fatalf("arrival %d: capacity %d for %d events", now, c, len(cal.ev))
				}
			}
		}
		keys := make([]uint64, 0, len(ref))
		for idx := range ref {
			keys = append(keys, idx)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		var want, got [][2]uint64
		for _, idx := range keys {
			for _, s := range ref[idx] {
				want = append(want, [2]uint64{idx, uint64(s)})
			}
		}
		for _, e := range cal.sorted() {
			got = append(got, [2]uint64{e.idx, uint64(e.slot)})
		}
		if !slices.Equal(got, want) {
			t.Fatalf("sorted calendar %v, map %v", got, want)
		}
	})
}

// TestCalendarFitDropsWarmupPeak fills a calendar to a warm-up peak and
// drains it: the backing array must follow the length down instead of
// holding the peak.
func TestCalendarFitDropsWarmupPeak(t *testing.T) {
	var cal calendar
	for i := uint64(1); i <= 10_000; i++ {
		cal.add(i, int(i%500))
	}
	for i := uint64(1); i <= 9_900; i++ {
		if !cal.due(i) {
			t.Fatalf("arrival %d not due", i)
		}
		cal.pop()
		cal.fit()
		if c, n := cap(cal.ev), len(cal.ev); c > minCalendarCap && c > 2*n {
			t.Fatalf("after arrival %d: capacity %d for %d events", i, c, n)
		}
	}
	if c := cap(cal.ev); c > 200 {
		t.Errorf("100 events left in a backing array of %d", c)
	}
}
