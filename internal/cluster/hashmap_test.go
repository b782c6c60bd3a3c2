package cluster

import (
	"fmt"
	"testing"
)

func nodeURLs(n int) []string {
	urls := make([]string, n)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://node-%02d:9100", i)
	}
	return urls
}

// checkPlacement reports how m departs from the bootstrap table: shard s on
// node s mod N, its follower on the next node (none when N = 1) — so never
// on its own primary — and per-node primary counts within one of each other.
func checkPlacement(m *Map) error {
	n := len(m.Nodes)
	counts := make([]int, n)
	for sh := 0; sh < m.Shards; sh++ {
		wantRep := (sh + 1) % n
		if n == 1 {
			wantRep = -1
		}
		if m.Owner[sh] != sh%n || m.Replica[sh] != wantRep {
			return fmt.Errorf("shard %d of %d on %d nodes: owner %d replica %d, want %d and %d",
				sh, m.Shards, n, m.Owner[sh], m.Replica[sh], sh%n, wantRep)
		}
		counts[m.Owner[sh]]++
	}
	lo, hi := counts[0], counts[0]
	for _, c := range counts {
		lo, hi = min(lo, c), max(hi, c)
	}
	if hi-lo > 1 {
		return fmt.Errorf("primaries per node %v are not within one of each other", counts)
	}
	return nil
}

// TestBuildMapPlacement pins the exact bootstrap table, and that it is a
// function of node ids only: the URL strings (the OS's port allocator, in
// every httptest cluster) do not enter it.
func TestBuildMapPlacement(t *testing.T) {
	for n := 1; n <= 8; n++ {
		other := make([]string, n)
		for i := range other {
			other[i] = fmt.Sprintf("http://127.0.0.1:%d", 40000-17*i) // descending, unlike nodeURLs
		}
		for _, shards := range []int{1, 4, 16, 64} {
			for _, urls := range [][]string{nodeURLs(n), other} {
				m, err := BuildMap(shards, urls)
				if err != nil {
					t.Fatal(err)
				}
				if err := checkPlacement(m); err != nil {
					t.Errorf("nodes %v: %v", urls, err)
				}
			}
		}
	}
}

// TestMapSkewBound pins the balance at a realistic shard count across
// cluster sizes: the table leaves every node within one primary of every
// other, where the consistent-hash ring it replaced promised 2× fair.
func TestMapSkewBound(t *testing.T) {
	for n := 1; n <= 16; n++ {
		t.Run(fmt.Sprintf("nodes=%d", n), func(t *testing.T) {
			m, err := BuildMap(256, nodeURLs(n))
			if err != nil {
				t.Fatal(err)
			}
			if err := checkPlacement(m); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMapDeterminism: the map is a pure function of (shards, nodes), so
// every router instance derives the identical assignment.
func TestMapDeterminism(t *testing.T) {
	a, err := BuildMap(64, nodeURLs(5))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := BuildMap(64, nodeURLs(5))
	for sh := range a.Owner {
		if a.Owner[sh] != b.Owner[sh] || a.Replica[sh] != b.Replica[sh] {
			t.Fatalf("shard %d differs across identical builds: (%d,%d) vs (%d,%d)",
				sh, a.Owner[sh], a.Replica[sh], b.Owner[sh], b.Replica[sh])
		}
	}
}

// TestMapEpochMonotonicity: every map mutation publishes a strictly
// larger epoch — the property the WrongNode/map-epoch protocol needs.
func TestMapEpochMonotonicity(t *testing.T) {
	m, err := BuildMap(16, nodeURLs(3))
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 1 {
		t.Fatalf("fresh map epoch %d, want 1", m.Epoch)
	}
	prev := m.Epoch
	c := m.clone()
	if c.Epoch != prev+1 {
		t.Fatalf("clone epoch %d, want %d", c.Epoch, prev+1)
	}
	// Clones are deep: mutating the successor leaves the original intact.
	c.Owner[0] = 99
	if m.Owner[0] == 99 {
		t.Fatal("clone shares Owner storage with its parent")
	}
}

// TestBuildMapValidation pins the constructor's input checks.
func TestBuildMapValidation(t *testing.T) {
	if _, err := BuildMap(0, nodeURLs(2)); err == nil {
		t.Error("BuildMap accepted zero shards")
	}
	if _, err := BuildMap(4, nil); err == nil {
		t.Error("BuildMap accepted an empty node list")
	}
	if _, err := BuildMap(4, []string{"http://a", "http://a"}); err == nil {
		t.Error("BuildMap accepted duplicate nodes")
	}
}
