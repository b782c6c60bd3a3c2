package kernel

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"odds/internal/window"
)

// Incremental model maintenance. A window slide changes only a handful of
// sample slots, so an estimator patches its sorted SoA layout in place
// rather than rebuilding it — an O(|R| log |R|) sort plus fresh
// allocations — on every rebuild tick: departed centers are tombstoned
// where they stand, new centers are ordered-inserted by shifting entries
// toward the nearest tombstone (one overlap-safe memmove per column), and
// a full relayout happens only when the prune-dimension decision changes
// or tombstone density crosses the compaction limit. The amortized cost
// per changed slot is O(log |R| + shift distance) instead of
// O(|R| log |R|) per tick.
//
// # Bit-identity with from-scratch builds
//
// Every query must return exactly the bits a from-scratch New over the
// same live sample would — float summation is order-sensitive, so this
// reduces to reproducing New's scan order. New (NewMaintained over slots
// 0..n−1) stable-sorts centers by the prune coordinate; a from-scratch
// build's input (a sample's points, the global replica's slots, a
// coreset's reservoir) arrives in ascending slot order, so its scan order
// is precisely ascending (coord[pruneDim], slot). A patched estimator
// keys every physical entry by its owning slot and inserts at the
// position ordered by that exact composite key, so its live subsequence
// is always in (coord, slot) order; tombstones keep their coordinate,
// preserving the sorted column for binary search while the scans skip
// them (contributing exactly zero — not a rounded zero).
// Bandwidths and the effective window count are recomputed by the caller
// on every FinishMaintain, exactly as a from-scratch build would, so no
// frozen-bandwidth drift can creep in. The prune-dimension decision is
// replayed from exact per-dimension extremes (maintained lazily, rescanned
// in slot order when an extreme is tombstoned), through the same
// decidePruneDim the from-scratch path uses. Bit-identity is guaranteed
// for finite coordinates — the package contract already requires values
// in [0,1]^d; non-finite coordinates make the order ill-defined, and a
// patched layout over them is only specified, not guaranteed, to match.
//
// # Usage
//
//	m, _ := kernel.NewMaintained(pts, slots, maxSlots, bw, wc)
//	...
//	m.BeginMaintain()
//	for _, s := range changedSlotsAscending {
//		m.SetSlot(s, currentPointOrNil)
//	}
//	m.FinishMaintain(newBandwidths, newWindowCount)
//
// An estimator is single-goroutine-owned during maintenance; between
// Begin/Finish pairs any number of goroutines may query it. MarshalBinary
// captures the physical layout (tombstones included) verbatim, so
// checkpoints round-trip bit-exactly.

// maint is the slot bookkeeping behind an Estimator's in-place patches.
type maint struct {
	maxSlots  int // highest slot id + 1 the estimator accepts
	tombLimit int // compaction threshold on tombstone count
	capN      int // physical capacity: maxSlots + tombLimit

	slots []int32 // per physical entry: owning sample slot
	posOf []int32 // slot -> physical position, -1 when absent
	nDead int

	// Exact per-dimension extremes over the live centers, maintained
	// lazily: inserts update them directly; removing an extreme (or any
	// NaN involvement) marks them dirty for a slot-order rescan at
	// FinishMaintain — the order NewMaintained scans a from-scratch
	// build's input in.
	lo, hi   []float64
	extDirty bool

	active bool // between BeginMaintain and FinishMaintain

	colFlat []float64 // dim columns of capN entries, backing cols
	deadBuf []bool    // backing for Estimator.dead

	stats MaintStats
}

// MaintStats counts maintenance work for guardrail tests and benchmarks.
type MaintStats struct {
	// Patches is the number of completed Begin/Finish maintenance cycles.
	Patches uint64
	// SlotOps is the number of SetSlot calls applied.
	SlotOps uint64
	// Relayouts counts full re-sorts forced by a prune-dimension change.
	Relayouts uint64
	// Compactions counts tombstone sweeps forced by the density limit.
	Compactions uint64
	// Tombstones is the tombstone count after the last finished patch.
	Tombstones int
}

// MaintainStats returns the maintenance counters.
func (e *Estimator) MaintainStats() MaintStats { return e.mnt.stats }

// TombstoneLimit returns the tombstone density threshold that triggers
// compaction.
func (e *Estimator) TombstoneLimit() int { return e.mnt.tombLimit }

// MaxSlots returns the slot-id capacity: slots are numbered [0, MaxSlots).
func (e *Estimator) MaxSlots() int { return e.mnt.maxSlots }

// SlotPoint copies the live center slot holds into dst (len Dim) and
// reports whether the slot holds one. An owner diffing its sample against
// the model reads it to find the slots a patch must set.
func (e *Estimator) SlotPoint(slot int, dst window.Point) bool {
	pos := e.mnt.posOf[slot]
	if pos < 0 {
		return false
	}
	for i, col := range e.cols {
		dst[i] = col[pos]
	}
	return true
}

// tombLimitFor derives the compaction threshold from the slot capacity.
// A quarter of the sample keeps the scan overhead of skipping tombstones
// bounded while amortizing compaction over many patches; the floor keeps
// tiny samples from compacting on every removal.
func tombLimitFor(maxSlots int) int {
	t := maxSlots / 4
	if t < 4 {
		t = 4
	}
	return t
}

// newMaint sizes the maintenance state for maxSlots slots of dim
// dimensions. All backing arrays are sized once, up front, so steady-state
// maintenance never allocates.
func newMaint(maxSlots, dim int) maint {
	m := maint{
		maxSlots:  maxSlots,
		tombLimit: tombLimitFor(maxSlots),
	}
	m.capN = maxSlots + m.tombLimit
	m.slots = make([]int32, m.capN)
	m.posOf = make([]int32, maxSlots)
	for s := range m.posOf {
		m.posOf[s] = -1
	}
	m.lo = make([]float64, dim)
	m.hi = make([]float64, dim)
	m.colFlat = make([]float64, dim*m.capN)
	m.deadBuf = make([]bool, m.capN)
	return m
}

// resize publishes the physical length physN through the query-facing
// slices (per-dimension columns, dead flags).
func (e *Estimator) resize(physN int) {
	m := &e.mnt
	for i := 0; i < e.dim; i++ {
		e.cols[i] = m.colFlat[i*m.capN : i*m.capN+physN]
	}
	e.dead = m.deadBuf[:physN]
}

// NewMaintained constructs an estimator from centers and their owning
// sample slots (strictly ascending, each in [0, maxSlots)), ready for
// BeginMaintain/SetSlot/FinishMaintain patches. Its scan order is the
// input stably sorted by the prune coordinate — with ascending slots, the
// (coord, slot) order every patch preserves. Centers are deep-copied.
func NewMaintained(centers []window.Point, slots []int, maxSlots int, bandwidths []float64, windowCount float64) (*Estimator, error) {
	if len(centers) == 0 {
		return nil, ErrNoSample
	}
	if len(slots) != len(centers) {
		return nil, fmt.Errorf("kernel: %d slots for %d centers", len(slots), len(centers))
	}
	if maxSlots < len(centers) {
		return nil, fmt.Errorf("kernel: %d centers exceed %d slots", len(centers), maxSlots)
	}
	dim := len(centers[0])
	if dim == 0 {
		return nil, fmt.Errorf("kernel: zero-dimensional centers")
	}
	if len(bandwidths) != dim {
		return nil, fmt.Errorf("kernel: %d bandwidths for %d dimensions", len(bandwidths), dim)
	}
	for i, p := range centers {
		if len(p) != dim {
			return nil, fmt.Errorf("kernel: center %d has dim %d, want %d", i, len(p), dim)
		}
	}
	prev := -1
	for i, s := range slots {
		if s < prev+1 || s >= maxSlots {
			return nil, fmt.Errorf("kernel: slot %d at %d not strictly ascending in [0,%d)", s, i, maxSlots)
		}
		prev = s
	}
	bw := make([]float64, dim)
	for i, b := range bandwidths {
		bw[i] = clampBandwidth(b)
	}
	if windowCount <= 0 || math.IsNaN(windowCount) || math.IsInf(windowCount, 0) {
		return nil, fmt.Errorf("kernel: window count %v must be positive and finite", windowCount)
	}

	n := len(centers)
	e := &Estimator{
		bw:     bw,
		wcount: windowCount,
		dim:    dim,
		live:   n,
		cols:   make([][]float64, dim),
		mnt:    newMaint(maxSlots, dim),
	}
	m := &e.mnt

	// Prune-dimension selection sees the input (slot) order; rescans
	// after a patch replay it in the same order.
	scanExtremes(centers, m.lo, m.hi)
	e.pruneDim = decidePruneDim(m.lo, m.hi, e.bw)

	// Scan order: stable sort of input indices by the prune coordinate.
	// With ascending input slots this is the (coord, slot) total order.
	perm := make([]int32, n)
	for j := range perm {
		perm[j] = int32(j)
	}
	if k := e.pruneDim; k >= 0 {
		slices.SortStableFunc(perm, func(a, b int32) int {
			switch {
			case centers[a][k] < centers[b][k]:
				return -1
			case centers[a][k] > centers[b][k]:
				return 1
			}
			return 0
		})
	}
	e.resize(n)
	for j, src := range perm {
		for i, c := range centers[src] {
			e.cols[i][j] = c
		}
		m.slots[j] = int32(slots[src])
		m.posOf[slots[src]] = int32(j)
	}
	return e, nil
}

// clampBandwidth replaces a non-finite or too-small bandwidth with
// minBandwidth.
func clampBandwidth(b float64) float64 {
	if math.IsNaN(b) || math.IsInf(b, 0) || b < minBandwidth {
		return minBandwidth
	}
	return b
}

// BeginMaintain opens a maintenance cycle. If tombstones have reached the
// density limit the layout is compacted first, so the cycle's inserts are
// guaranteed to fit the physical capacity. Panics on a nested cycle.
func (e *Estimator) BeginMaintain() {
	m := &e.mnt
	if m.active {
		panic("kernel: nested BeginMaintain")
	}
	m.active = true
	if m.nDead >= m.tombLimit {
		e.compact()
	}
}

// SetSlot declares the current content of one sample slot: p is the
// slot's point (inserted, replacing any previous entry for the slot) or
// nil (the slot went empty; its entry is tombstoned). Must be called
// between BeginMaintain and FinishMaintain; callers apply changed slots
// in ascending order so layout evolution is deterministic.
func (e *Estimator) SetSlot(slot int, p window.Point) {
	m := &e.mnt
	if !m.active {
		panic("kernel: SetSlot outside a maintenance cycle")
	}
	if slot < 0 || slot >= m.maxSlots {
		panic(fmt.Sprintf("kernel: slot %d out of [0,%d)", slot, m.maxSlots))
	}
	if p != nil && len(p) != e.dim {
		panic(fmt.Sprintf("kernel: slot %d point dim %d, model dim %d", slot, len(p), e.dim))
	}
	if pos := m.posOf[slot]; pos >= 0 {
		e.removeAt(int(pos), slot)
	}
	if p != nil {
		e.insert(slot, p)
	}
	m.stats.SlotOps++
}

// FinishMaintain closes a maintenance cycle: it installs the cycle's
// bandwidths and window count (recomputed by the caller from current
// sigmas and live sample size, exactly as a from-scratch build would),
// refreshes the extremes if an extreme was tombstoned, replays the
// prune-dimension decision, and relayouts if it changed. The estimator
// must end the cycle non-empty.
func (e *Estimator) FinishMaintain(bandwidths []float64, windowCount float64) error {
	m := &e.mnt
	if !m.active {
		panic("kernel: FinishMaintain outside a maintenance cycle")
	}
	m.active = false
	if e.live == 0 {
		return ErrNoSample
	}
	if len(bandwidths) != e.dim {
		return fmt.Errorf("kernel: %d bandwidths for %d dimensions", len(bandwidths), e.dim)
	}
	if windowCount <= 0 || math.IsNaN(windowCount) || math.IsInf(windowCount, 0) {
		return fmt.Errorf("kernel: window count %v must be positive and finite", windowCount)
	}
	for i, b := range bandwidths {
		e.bw[i] = clampBandwidth(b)
	}
	e.wcount = windowCount
	if m.extDirty {
		e.rescanExtremes()
		m.extDirty = false
	}
	if k := decidePruneDim(m.lo, m.hi, e.bw); k != e.pruneDim {
		e.pruneDim = k
		e.relayout()
	}
	e.gen++
	m.stats.Patches++
	m.stats.Tombstones = m.nDead
	return nil
}

// removeAt tombstones the physical entry at pos owned by slot. The entry
// keeps its coordinates — the prune column stays sorted — but every scan
// skips it from now on.
func (e *Estimator) removeAt(pos, slot int) {
	m := &e.mnt
	e.dead[pos] = true
	m.posOf[slot] = -1
	m.nDead++
	e.live--
	if !m.extDirty {
		for i, col := range e.cols {
			c := col[pos]
			// Dirty when a recorded extreme leaves, or when NaN is involved
			// anywhere (NaN comparisons make incremental updates diverge
			// from a full rescan).
			if c == m.lo[i] || c == m.hi[i] || c != c || m.lo[i] != m.lo[i] || m.hi[i] != m.hi[i] {
				m.extDirty = true
				break
			}
		}
	}
}

// insert places slot's point at its (coord[pruneDim], slot) position,
// consuming the nearest tombstone via one overlap-safe shift per column —
// or growing the physical tail when no tombstone exists (the capacity
// analysis in newMaint guarantees room: the tail only grows while
// tombstones are exhausted, so physN never exceeds maxSlots + tombLimit).
func (e *Estimator) insert(slot int, p window.Point) {
	m := &e.mnt
	physN := len(e.dead)

	// Insertion position: first physical entry whose (coord, slot) key
	// exceeds the new entry's. Tombstones participate with their stale
	// keys — they were inserted consistently with this order, so the
	// physical sequence is totally sorted and the search stays valid.
	var pos int
	if k := e.pruneDim; k >= 0 {
		c := p[k]
		col := e.cols[k]
		pos = sort.Search(physN, func(j int) bool {
			if col[j] != c {
				return col[j] > c
			}
			return int(m.slots[j]) > slot
		})
	} else {
		pos = sort.Search(physN, func(j int) bool { return int(m.slots[j]) > slot })
	}

	// Nearest tombstone on each side of the insertion position.
	dl, dr := -1, -1
	if m.nDead > 0 {
		for j := pos - 1; j >= 0; j-- {
			if e.dead[j] {
				dl = j
				break
			}
		}
		for j := pos; j < physN; j++ {
			if e.dead[j] {
				dr = j
				break
			}
		}
	}

	var q int // the hole the new entry lands in
	switch {
	case dr >= 0 && (dl < 0 || dr-pos <= pos-1-dl):
		// Shift [pos, dr) one right into the tombstone at dr; the range
		// holds no tombstones (dr is the nearest), so every shifted entry
		// is live and needs its posOf updated.
		e.shift(pos, dr, +1)
		m.nDead--
		q = pos
	case dl >= 0:
		// Shift (dl, pos) one left into the tombstone at dl; the hole
		// surfaces at pos-1, which is exactly where the new entry belongs
		// relative to the unmoved entries at pos and beyond.
		e.shift(dl+1, pos, -1)
		m.nDead--
		q = pos - 1
	default:
		// No tombstone: grow the tail and shift [pos, physN) one right.
		physN++
		e.resize(physN)
		e.shift(pos, physN-1, +1)
		q = pos
	}

	for i, c := range p {
		e.cols[i][q] = c
	}
	m.slots[q] = int32(slot)
	e.dead[q] = false
	m.posOf[slot] = int32(q)
	e.live++
	if !m.extDirty {
		for i, c := range p {
			if c != c || m.lo[i] != m.lo[i] || m.hi[i] != m.hi[i] {
				m.extDirty = true
				break
			}
			if c < m.lo[i] {
				m.lo[i] = c
			}
			if c > m.hi[i] {
				m.hi[i] = c
			}
		}
	}
}

// shift moves the physical range [from, to) by one position in direction
// dir (+1 right, -1 left), across every column, the slot keys, and the
// dead flags, updating posOf for the moved entries. The
// destination endpoint must be a tombstone (or the freshly grown tail),
// so no information is lost.
func (e *Estimator) shift(from, to, dir int) {
	if from >= to {
		return
	}
	m := &e.mnt
	if dir > 0 {
		for i := 0; i < e.dim; i++ {
			col := m.colFlat[i*m.capN:]
			copy(col[from+1:to+1], col[from:to])
		}
		copy(m.slots[from+1:to+1], m.slots[from:to])
		copy(m.deadBuf[from+1:to+1], m.deadBuf[from:to])
		for j := from + 1; j <= to; j++ {
			if !m.deadBuf[j] {
				m.posOf[m.slots[j]] = int32(j)
			}
		}
	} else {
		for i := 0; i < e.dim; i++ {
			col := m.colFlat[i*m.capN:]
			copy(col[from-1:to-1], col[from:to])
		}
		copy(m.slots[from-1:to-1], m.slots[from:to])
		copy(m.deadBuf[from-1:to-1], m.deadBuf[from:to])
		for j := from - 1; j < to-1; j++ {
			if !m.deadBuf[j] {
				m.posOf[m.slots[j]] = int32(j)
			}
		}
	}
}

// compact removes every tombstone with one stable in-place sweep,
// preserving the live order.
func (e *Estimator) compact() {
	m := &e.mnt
	if m.nDead == 0 {
		return
	}
	w := 0
	for j, dead := range e.dead {
		if dead {
			continue
		}
		if w != j {
			for _, col := range e.cols {
				col[w] = col[j]
			}
			m.slots[w] = m.slots[j]
		}
		m.posOf[m.slots[w]] = int32(w)
		w++
	}
	for j := 0; j < w; j++ {
		m.deadBuf[j] = false
	}
	m.nDead = 0
	e.resize(w)
	m.stats.Compactions++
}

// relayout re-sorts the live centers for the prune dimension just
// decided (or slot order when it is -1, matching New's unsorted layout),
// after compacting away tombstones. Used only when the prune decision
// changes — the amortized full-rebuild case.
func (e *Estimator) relayout() {
	e.compact()
	sort.Sort((*layoutOrder)(e))
	m := &e.mnt
	for j, s := range m.slots[:len(e.dead)] {
		m.posOf[s] = int32(j)
	}
	m.stats.Relayouts++
}

// layoutOrder sorts a compacted estimator's entries — every column and
// the slot keys together, in place — by (coord[pruneDim], slot), or by
// slot alone when pruneDim is -1. Live slot ids are unique, so the order
// is total and equals New's stable sort by coordinate over ascending
// slots.
type layoutOrder Estimator

func (o *layoutOrder) Len() int { return len(o.dead) }

func (o *layoutOrder) Less(a, b int) bool {
	if k := o.pruneDim; k >= 0 {
		ca, cb := o.cols[k][a], o.cols[k][b]
		switch {
		case ca < cb:
			return true
		case ca > cb:
			return false
		}
	}
	return o.mnt.slots[a] < o.mnt.slots[b]
}

func (o *layoutOrder) Swap(a, b int) {
	for _, col := range o.cols {
		col[a], col[b] = col[b], col[a]
	}
	s := o.mnt.slots
	s[a], s[b] = s[b], s[a]
}

// rescanExtremes recomputes the per-dimension extremes over the live
// centers in ascending slot order — the input order NewMaintained scans,
// so the comparison semantics (NaN seeding included) match exactly.
func (e *Estimator) rescanExtremes() {
	m := &e.mnt
	seeded := false
	for s := 0; s < m.maxSlots; s++ {
		pos := m.posOf[s]
		if pos < 0 {
			continue
		}
		if !seeded {
			for i, col := range e.cols {
				m.lo[i], m.hi[i] = col[pos], col[pos]
			}
			seeded = true
			continue
		}
		for i, col := range e.cols {
			c := col[pos]
			if c < m.lo[i] {
				m.lo[i] = c
			}
			if c > m.hi[i] {
				m.hi[i] = c
			}
		}
	}
}
