package network

import (
	"testing"

	"odds/internal/stats"
	"odds/internal/tagsim"
)

func TestNewHierarchyShape(t *testing.T) {
	// The paper's setup: 32 leaves, branching 4 → levels 32/8/2/1.
	topo := NewHierarchy(32, 4)
	want := []int{32, 8, 2, 1}
	if topo.Depth() != len(want) {
		t.Fatalf("Depth = %d, want %d", topo.Depth(), len(want))
	}
	for i, n := range want {
		if len(topo.Levels[i]) != n {
			t.Errorf("level %d size = %d, want %d", i, len(topo.Levels[i]), n)
		}
	}
	if topo.NodeCount() != 43 {
		t.Errorf("NodeCount = %d, want 43", topo.NodeCount())
	}
	if len(topo.Leaves()) != 32 {
		t.Errorf("Leaves = %d", len(topo.Leaves()))
	}
}

func TestHierarchyParentsConsistent(t *testing.T) {
	topo := NewHierarchy(10, 3)
	for leader, kids := range topo.Children {
		for _, k := range kids {
			if p, ok := topo.Parent(k); !ok || p != leader {
				t.Errorf("child %d of %d has Parent %d,%v", k, leader, p, ok)
			}
		}
	}
	if _, ok := topo.Parent(topo.Root()); ok {
		t.Error("root should have no parent")
	}
}

func TestHierarchyPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"leaves=0":    func() { NewHierarchy(0, 2) },
		"branching<2": func() { NewHierarchy(4, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSingleLeafHierarchy(t *testing.T) {
	topo := NewHierarchy(1, 2)
	if topo.Depth() != 1 {
		t.Fatalf("Depth = %d, want 1 (the leaf is the root)", topo.Depth())
	}
	if topo.Root() != topo.Leaves()[0] {
		t.Error("single leaf should be root")
	}
}

func TestDescendantLeavesAndPath(t *testing.T) {
	topo := NewHierarchy(8, 2) // 8/4/2/1
	root := topo.Root()
	if got := topo.DescendantLeaves(root); len(got) != 8 {
		t.Errorf("root descendants = %d, want 8", len(got))
	}
	leaf := topo.Leaves()[0]
	path := topo.PathToRoot(leaf)
	if len(path) != 3 {
		t.Fatalf("path length = %d, want 3", len(path))
	}
	if path[len(path)-1] != root {
		t.Error("path should end at root")
	}
	if topo.HopsToRoot(leaf) != 3 {
		t.Error("HopsToRoot wrong")
	}
	if topo.HopsToRoot(root) != 0 {
		t.Error("root hops should be 0")
	}
}

func TestLevelLookup(t *testing.T) {
	topo := NewHierarchy(4, 2)
	if topo.Level(topo.Leaves()[0]) != 0 {
		t.Error("leaf level wrong")
	}
	if topo.Level(topo.Root()) != topo.Depth()-1 {
		t.Error("root level wrong")
	}
	if topo.Level(tagsim.NodeID(9999)) != -1 {
		t.Error("unknown id should be -1")
	}
}

func TestNewGridShape(t *testing.T) {
	topo := NewGrid(4) // 16 leaves, tiers 16/4/1
	want := []int{16, 4, 1}
	if topo.Depth() != len(want) {
		t.Fatalf("Depth = %d, want %d", topo.Depth(), len(want))
	}
	for i, n := range want {
		if len(topo.Levels[i]) != n {
			t.Errorf("tier %d size = %d, want %d", i, len(topo.Levels[i]), n)
		}
	}
	// Every leaf has a position in the unit plane.
	for _, leaf := range topo.Leaves() {
		pos, ok := topo.Pos[leaf]
		if !ok {
			t.Fatalf("leaf %d has no position", leaf)
		}
		if pos[0] <= 0 || pos[0] >= 1 || pos[1] <= 0 || pos[1] >= 1 {
			t.Errorf("leaf %d position %v outside plane", leaf, pos)
		}
	}
	// Quad structure: every tier-1 leader has exactly 4 children.
	for _, leader := range topo.Levels[1] {
		if len(topo.Children[leader]) != 4 {
			t.Errorf("leader %d has %d children, want 4", leader, len(topo.Children[leader]))
		}
	}
}

func TestGridChildrenAreSpatiallyCoherent(t *testing.T) {
	topo := NewGrid(4)
	for _, leader := range topo.Levels[1] {
		kids := topo.Children[leader]
		// The 2x2 block spans a quarter of the plane: max pairwise distance
		// within a block of cell size 0.25 is 0.25 in each axis.
		for i := 0; i < len(kids); i++ {
			for j := i + 1; j < len(kids); j++ {
				a, b := topo.Pos[kids[i]], topo.Pos[kids[j]]
				if dx := a[0] - b[0]; dx > 0.26 || dx < -0.26 {
					t.Fatalf("cell children too far apart in x: %v vs %v", a, b)
				}
				if dy := a[1] - b[1]; dy > 0.26 || dy < -0.26 {
					t.Fatalf("cell children too far apart in y: %v vs %v", a, b)
				}
			}
		}
	}
}

func TestGridPanics(t *testing.T) {
	for _, side := range []int{0, 1, 3, 6} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("side=%d: no panic", side)
				}
			}()
			NewGrid(side)
		}()
	}
}

func TestElectAndRotateLeaders(t *testing.T) {
	topo := NewGrid(4)
	rng := stats.NewRand(1)
	cur := topo.ElectLeaders(rng)
	for _, lv := range topo.Levels[1:] {
		for _, leader := range lv {
			phys, ok := cur[leader]
			if !ok {
				t.Fatalf("leader %d unassigned", leader)
			}
			found := false
			for _, l := range topo.DescendantLeaves(leader) {
				if l == phys {
					found = true
				}
			}
			if !found {
				t.Errorf("leader %d assigned leaf %d outside its cell", leader, phys)
			}
		}
	}
	next := topo.RotateLeaders(cur, rng)
	for leader, phys := range next {
		if len(topo.DescendantLeaves(leader)) > 1 && phys == cur[leader] {
			t.Errorf("rotation kept incumbent for leader %d", leader)
		}
	}
}
