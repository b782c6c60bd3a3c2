// Package network models the hierarchical sensor-network organization of
// Section 2: sensors on a 2-d plane organized by overlapping virtual grids
// into tiers, with one leader per cell that processes the measurements of
// all sensors in the cell (Figure 1). It provides the logical hierarchy
// the detection algorithms are wired onto, a quad-grid constructor placing
// sensors on the plane, and leader selection/rotation. The nodes wired
// onto it execute on the deterministic tagsim engine.
package network

import (
	"fmt"
	"math/rand"

	"odds/internal/tagsim"
)

// Topology is the logical hierarchy: Levels[0] holds the leaf sensors and
// Levels[len-1] the single top leader. Every non-leaf node is the leader
// of a cell containing the level-below nodes assigned to it.
type Topology struct {
	Levels   [][]tagsim.NodeID
	Parents  map[tagsim.NodeID]tagsim.NodeID
	Children map[tagsim.NodeID][]tagsim.NodeID
	// Pos maps leaf sensors to positions on the unit plane when the
	// topology was built from a grid; logical hierarchies leave it empty.
	Pos map[tagsim.NodeID][2]float64
}

// NewHierarchy builds a logical hierarchy with the given number of leaves,
// grouping `branching` nodes under each leader, level by level, until a
// single root remains. Node IDs are assigned sequentially: leaves first,
// then each leader level. It panics on non-positive arguments.
func NewHierarchy(leaves, branching int) *Topology {
	if leaves <= 0 {
		panic(fmt.Sprintf("network: leaves %d must be positive", leaves))
	}
	if branching < 2 {
		panic(fmt.Sprintf("network: branching %d must be at least 2", branching))
	}
	t := &Topology{
		Parents:  make(map[tagsim.NodeID]tagsim.NodeID),
		Children: make(map[tagsim.NodeID][]tagsim.NodeID),
		Pos:      make(map[tagsim.NodeID][2]float64),
	}
	next := tagsim.NodeID(0)
	level := make([]tagsim.NodeID, leaves)
	for i := range level {
		level[i] = next
		next++
	}
	t.Levels = append(t.Levels, level)
	for len(level) > 1 {
		var up []tagsim.NodeID
		for i := 0; i < len(level); i += branching {
			leader := next
			next++
			up = append(up, leader)
			for j := i; j < i+branching && j < len(level); j++ {
				t.Parents[level[j]] = leader
				t.Children[leader] = append(t.Children[leader], level[j])
			}
		}
		t.Levels = append(t.Levels, up)
		level = up
	}
	return t
}

// NewGrid builds the Figure 1 organization: side×side leaf sensors at grid
// positions on the unit plane, with quad-tree tiers (each tier's cell
// groups a 2×2 block of the tier below). side must be a power of two of at
// least 2.
func NewGrid(side int) *Topology {
	if side < 2 || side&(side-1) != 0 {
		panic(fmt.Sprintf("network: grid side %d must be a power of two ≥ 2", side))
	}
	t := &Topology{
		Parents:  make(map[tagsim.NodeID]tagsim.NodeID),
		Children: make(map[tagsim.NodeID][]tagsim.NodeID),
		Pos:      make(map[tagsim.NodeID][2]float64),
	}
	next := tagsim.NodeID(0)
	// Leaf level in row-major order with plane positions at cell centers.
	level := make([]tagsim.NodeID, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			id := next
			next++
			level[y*side+x] = id
			t.Pos[id] = [2]float64{
				(float64(x) + 0.5) / float64(side),
				(float64(y) + 0.5) / float64(side),
			}
		}
	}
	t.Levels = append(t.Levels, level)
	for s := side; s > 1; s /= 2 {
		up := make([]tagsim.NodeID, (s/2)*(s/2))
		for y := 0; y < s/2; y++ {
			for x := 0; x < s/2; x++ {
				leader := next
				next++
				up[y*(s/2)+x] = leader
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						child := level[(2*y+dy)*s+(2*x+dx)]
						t.Parents[child] = leader
						t.Children[leader] = append(t.Children[leader], child)
					}
				}
			}
		}
		t.Levels = append(t.Levels, up)
		level = up
	}
	return t
}

// Root returns the top-level leader.
func (t *Topology) Root() tagsim.NodeID {
	top := t.Levels[len(t.Levels)-1]
	return top[0]
}

// Depth returns the number of levels (leaves inclusive).
func (t *Topology) Depth() int { return len(t.Levels) }

// Leaves returns the level-0 sensors.
func (t *Topology) Leaves() []tagsim.NodeID { return t.Levels[0] }

// NodeCount returns the total number of nodes across all levels.
func (t *Topology) NodeCount() int {
	n := 0
	for _, l := range t.Levels {
		n += len(l)
	}
	return n
}

// Parent returns a node's leader and whether it has one (the root does
// not).
func (t *Topology) Parent(id tagsim.NodeID) (tagsim.NodeID, bool) {
	p, ok := t.Parents[id]
	return p, ok
}

// Level returns the level index of id, with 0 the leaf level, or -1 when
// the id is unknown.
func (t *Topology) Level(id tagsim.NodeID) int {
	for i, lv := range t.Levels {
		for _, n := range lv {
			if n == id {
				return i
			}
		}
	}
	return -1
}

// DescendantLeaves returns the leaf sensors in id's subtree (id itself
// when it is a leaf).
func (t *Topology) DescendantLeaves(id tagsim.NodeID) []tagsim.NodeID {
	ch := t.Children[id]
	if len(ch) == 0 {
		return []tagsim.NodeID{id}
	}
	var out []tagsim.NodeID
	for _, c := range ch {
		out = append(out, t.DescendantLeaves(c)...)
	}
	return out
}

// PathToRoot returns the chain of leaders from id (exclusive) to the root
// (inclusive).
func (t *Topology) PathToRoot(id tagsim.NodeID) []tagsim.NodeID {
	var out []tagsim.NodeID
	for {
		p, ok := t.Parents[id]
		if !ok {
			return out
		}
		out = append(out, p)
		id = p
	}
}

// HopsToRoot returns the number of links a message from id traverses to
// reach the root — the per-reading cost of the centralized baseline.
func (t *Topology) HopsToRoot(id tagsim.NodeID) int { return len(t.PathToRoot(id)) }

// LiveParent returns the nearest live ancestor of id — the node an
// orphan re-parents onto when its leader crashes (topology repair). ok is
// false when every ancestor up to and including the root is down, or id
// is the root.
func (t *Topology) LiveParent(id tagsim.NodeID, down func(tagsim.NodeID) bool) (tagsim.NodeID, bool) {
	for {
		p, ok := t.Parents[id]
		if !ok {
			return 0, false
		}
		if !down(p) {
			return p, true
		}
		id = p
	}
}

// LiveChildren returns id's effective children under the given outage
// set: each down child is replaced, recursively, by its own live
// children — exactly the inverse of LiveParent's re-parenting, so the
// live nodes always form a tree.
func (t *Topology) LiveChildren(id tagsim.NodeID, down func(tagsim.NodeID) bool) []tagsim.NodeID {
	var out []tagsim.NodeID
	for _, c := range t.Children[id] {
		if down(c) {
			out = append(out, t.LiveChildren(c, down)...)
			continue
		}
		out = append(out, c)
	}
	return out
}

// LeaderAssignment maps each cell (non-leaf logical leader) to the leaf
// sensor currently playing its role. The hierarchical-decomposition
// literature the paper cites ([17,33,47]) rotates this role for energy
// balance; RotateLeaders implements that policy.
type LeaderAssignment map[tagsim.NodeID]tagsim.NodeID

// ElectLeaders picks, for every non-leaf node, a leaf from its subtree to
// act as the physical leader, uniformly at random.
func (t *Topology) ElectLeaders(rng *rand.Rand) LeaderAssignment {
	out := make(LeaderAssignment)
	for _, lv := range t.Levels[1:] {
		for _, leader := range lv {
			leaves := t.DescendantLeaves(leader)
			out[leader] = leaves[rng.Intn(len(leaves))]
		}
	}
	return out
}

// RotateLeaders re-elects every leader, excluding the current incumbent
// where the cell has an alternative, modeling energy-balancing rotation.
func (t *Topology) RotateLeaders(cur LeaderAssignment, rng *rand.Rand) LeaderAssignment {
	out := make(LeaderAssignment, len(cur))
	for _, lv := range t.Levels[1:] {
		for _, leader := range lv {
			leaves := t.DescendantLeaves(leader)
			if len(leaves) == 1 {
				out[leader] = leaves[0]
				continue
			}
			for {
				cand := leaves[rng.Intn(len(leaves))]
				if cand != cur[leader] {
					out[leader] = cand
					break
				}
			}
		}
	}
	return out
}
