// Package cluster is the multi-node tier in front of odds serve nodes: a
// router holding a versioned shard→node map, live shard migration via
// shipped ODPS snapshots, and per-shard replica chains with deterministic
// promote-on-failure.
//
// The cluster-global shard space is fixed at bootstrap (every node runs
// with the same Config.Shards and derives per-shard seeds from the
// global shard id), so a shard's pipeline is bit-identical no matter
// which node hosts it — migration and failover are pure state transfer,
// never a re-deal of sensors to shards.
package cluster

import "fmt"

// Map is one version of the shard→node assignment. Maps are immutable
// once published; every change (migration, failover) produces a
// successor with a strictly larger Epoch, and nodes refuse hot-path
// requests stamped with any other epoch — the WrongNode/map-epoch
// protocol that keeps a stale router from applying work on the wrong
// side of a migration commit.
type Map struct {
	Epoch  uint64   `json:"epoch"`
	Shards int      `json:"shards"`
	Nodes  []string `json:"nodes"` // node base URLs; index is the node id
	// Owner maps global shard id → node id of its primary.
	Owner []int `json:"owner"`
	// Replica maps shard id → node id of its follower, or -1.
	Replica []int `json:"replica"`
}

// BuildMap computes the epoch-1 assignment: shard s on node s mod N, its
// follower on the next node (none on a single node). Membership is fixed
// at bootstrap and every later move is an explicit, epoch-stamped
// operation, so placement is a function of node ids alone — the same
// cluster every run, primaries per node within one of each other.
func BuildMap(shards int, nodes []string) (*Map, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("cluster: shards %d must be positive", shards)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate node %q", n)
		}
		seen[n] = true
	}
	m := &Map{
		Epoch:   1,
		Shards:  shards,
		Nodes:   append([]string(nil), nodes...),
		Owner:   make([]int, shards),
		Replica: make([]int, shards),
	}
	n := len(nodes)
	for sh := range m.Owner {
		m.Owner[sh], m.Replica[sh] = sh%n, -1
		if n > 1 {
			m.Replica[sh] = (sh + 1) % n
		}
	}
	return m, nil
}

// clone deep-copies the map with the epoch advanced by one.
func (m *Map) clone() *Map {
	return &Map{
		Epoch:   m.Epoch + 1,
		Shards:  m.Shards,
		Nodes:   append([]string(nil), m.Nodes...),
		Owner:   append([]int(nil), m.Owner...),
		Replica: append([]int(nil), m.Replica...),
	}
}
