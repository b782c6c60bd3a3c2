package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"odds/internal/serve"
)

// Options configures a Router.
type Options struct {
	// Nodes are the member serve-node base URLs; their index is the node
	// id for the life of the cluster.
	Nodes []string
	// Shards is the cluster-global shard space; every node must be
	// running with the same value.
	Shards int
	// Replicate establishes a replica chain per shard at bootstrap
	// (requires ≥ 2 nodes for any shard to actually get one).
	Replicate bool
	// Client is the HTTP client for node traffic (fault-injecting tests
	// substitute a partition-aware transport). Defaults to
	// serve.NewNodeHTTPClient.
	Client *http.Client
	// HealthThreshold is the number of consecutive failed health probes
	// before a node is declared dead and its shards fail over. Default 2.
	HealthThreshold int
}

// Router fronts a set of serve nodes with a versioned shard→node map.
// It speaks the ODWP binary wire to nodes on the hot path and exposes
// the same HTTP surface as a single node (so oddload and its twin
// oracle run unchanged against a cluster).
type Router struct {
	opts   Options
	client *http.Client
	// streamClient carries long-lived /subscribe upstreams. It shares
	// the request/response client's transport (so fault-injecting tests
	// partition both alike) but has no overall Timeout — http.Client's
	// Timeout covers body reads, which would sever every subscription
	// mid-stream.
	streamClient *http.Client

	// Node configuration template, verified identical (by wire
	// fingerprint) across every member at bootstrap.
	template serve.StatsResponse
	fp       uint64
	dim      int

	// opMu serializes the map-mutating control operations (Migrate,
	// HealthTick, RepairReplica, Revive). Each reads the map, performs
	// multi-step network work, then commits a successor map; interleaving
	// two of them could commit a map describing state no node holds.
	// Lock order: opMu before mu, never the reverse.
	opMu sync.Mutex
	// pendingPromote records failovers whose op=promote call failed after
	// the map commit (shard → new owner). HealthTick retries them until
	// the node accepts or the map routes the shard elsewhere. Guarded by
	// opMu.
	pendingPromote map[int]int

	mu   sync.RWMutex
	m    *Map
	down []int  // consecutive failed health probes per node
	dead []bool // declared-dead nodes (shards failed over)

	// names interns sensor ids on the binary ingest decode path.
	names serve.Interner

	// Hot-path counters for /metrics.
	forwarded      atomic.Uint64 // readings forwarded to nodes
	rejections     atomic.Uint64 // readings rejected (any cause)
	epochConflicts atomic.Uint64 // node sub-batches refused 409
	nodeErrors     atomic.Uint64 // node sub-batches lost to transport errors
	migrations     atomic.Uint64
	promotions     atomic.Uint64
}

var errNoOwner = errors.New("cluster: shard has no live owner")

// NewRouter verifies the member nodes agree on configuration
// (fail-closed on any wire-fingerprint mismatch), computes the epoch-1
// map, creates every shard on its owner (plus replica chains when
// configured), and pushes the epoch to all nodes.
func NewRouter(opts Options) (*Router, error) {
	if len(opts.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: need at least one node")
	}
	if opts.Client == nil {
		opts.Client = serve.NewNodeHTTPClient(opts.Shards)
	}
	if opts.HealthThreshold <= 0 {
		opts.HealthThreshold = 2
	}
	streamTransport := opts.Client.Transport
	if streamTransport == nil {
		streamTransport = serve.NewNodeHTTPClient(opts.Shards).Transport
	}
	r := &Router{
		opts:           opts,
		client:         opts.Client,
		streamClient:   &http.Client{Transport: streamTransport},
		pendingPromote: make(map[int]int),
		down:           make([]int, len(opts.Nodes)),
		dead:           make([]bool, len(opts.Nodes)),
	}

	// Membership handshake: every node must be a cluster node with the
	// same global shard space and the same configuration fingerprint.
	for id, url := range opts.Nodes {
		st, err := r.node(id).Stats()
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d (%s): %w", id, url, err)
		}
		if !st.Cluster {
			return nil, fmt.Errorf("cluster: node %d (%s) is not running in cluster mode", id, url)
		}
		if opts.Shards == 0 {
			opts.Shards = st.Shards
		}
		if st.Shards != opts.Shards {
			return nil, fmt.Errorf("cluster: node %d has %d shards, cluster has %d", id, st.Shards, opts.Shards)
		}
		if id == 0 {
			r.template = *st
			r.fp = st.WireFingerprint
			r.dim = st.Core.Dim
		} else if st.WireFingerprint != r.fp {
			return nil, fmt.Errorf("cluster: node %d (%s) configuration fingerprint %x does not match node 0's %x; refusing to form cluster",
				id, url, st.WireFingerprint, r.fp)
		}
	}
	r.opts.Shards = opts.Shards

	m, err := BuildMap(opts.Shards, opts.Nodes)
	if err != nil {
		return nil, err
	}
	r.m = m

	// Place every shard: primary on its owner, follower chain when
	// replication is on.
	for sh := 0; sh < m.Shards; sh++ {
		owner := m.Owner[sh]
		if err := r.shardOp(owner, serve.ShardCreate, sh); err != nil {
			return nil, fmt.Errorf("cluster: create shard %d on node %d: %w", sh, owner, err)
		}
		if !opts.Replicate || m.Replica[sh] < 0 {
			m.Replica[sh] = -1
			continue
		}
		if err := r.chainReplica(sh, owner, m.Replica[sh], nil); err != nil {
			return nil, err
		}
	}
	r.pushEpoch(m)
	return r, nil
}

// CurrentMap returns the live map (treat as immutable).
func (r *Router) CurrentMap() *Map {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m
}

// node is the typed client for one member node's request/response traffic.
func (r *Router) node(id int) serve.Client {
	return serve.Client{HTTP: r.client, Base: r.opts.Nodes[id]}
}

// shardOp runs one argument-free shard lifecycle op on a node.
func (r *Router) shardOp(node int, op serve.ShardOp, shard int) error {
	_, err := r.node(node).Shard(op, shard, serve.ShardArgs{})
	return err
}

// chainReplica makes node rep the follower of shard's primary on node
// owner: a replica copy on rep — fresh when frame is nil (bootstrap), else
// installed from the sealed ship frame so replication is contiguous from
// the cut — then the owner's replication stream pointed at it.
func (r *Router) chainReplica(shard, owner, rep int, frame []byte) error {
	op := serve.ShardCreate
	if frame != nil {
		op = serve.ShardInstall
	}
	if _, err := r.node(rep).Shard(op, shard, serve.ShardArgs{Replica: true, Frame: frame}); err != nil {
		return fmt.Errorf("cluster: %s replica %d on node %d: %w", op, shard, rep, err)
	}
	if _, err := r.node(owner).Shard(serve.ShardFollow, shard, serve.ShardArgs{Target: r.opts.Nodes[rep]}); err != nil {
		return fmt.Errorf("cluster: follow shard %d: %w", shard, err)
	}
	return nil
}

// pushEpoch tells every live node the map version now in force. Nodes
// that miss the push (dead, partitioned) keep refusing stamped requests
// with 409 until they hear it — fail closed, never wrong-sided.
func (r *Router) pushEpoch(m *Map) {
	for id := range m.Nodes {
		r.mu.RLock()
		isDead := r.dead[id]
		r.mu.RUnlock()
		if isDead {
			continue
		}
		// Best effort — the 409 path re-pushes — but a refused or lost push
		// is a node error like any other.
		if err := r.node(id).PushEpoch(m.Epoch); err != nil {
			r.nodeErrors.Add(1)
		}
	}
}

// Ingest routes a batch across nodes: group readings by map owner,
// forward each node's sub-batch as one ODWB frame stamped with the map
// epoch, and scatter per-reading results back into request order. Any
// node failure — transport error, 409 epoch conflict, node-side
// rejection — surfaces as Accepted=false for that sub-batch, which the
// existing client retry machinery re-sends in order.
func (r *Router) Ingest(readings []serve.Reading, results []serve.ReadingResult) (rejected int, retryMS int64, err error) {
	r.mu.RLock()
	m := r.m
	dead := append([]bool(nil), r.dead...)
	r.mu.RUnlock()

	for i := range readings {
		if len(readings[i].Value) != r.dim {
			return 0, 0, fmt.Errorf("cluster: reading %d: dim %d, want %d", i, len(readings[i].Value), r.dim)
		}
	}

	nNodes := len(m.Nodes)
	byNode := make([][]serve.Reading, nNodes)
	pos := make([][]int, nNodes)
	for i := range readings {
		sh := serve.ShardOf(readings[i].Sensor, m.Shards)
		node := m.Owner[sh]
		results[i] = serve.ReadingResult{Shard: sh}
		if node < 0 || dead[node] {
			rejected++
			continue
		}
		byNode[node] = append(byNode[node], readings[i])
		pos[node] = append(pos[node], i)
	}

	type nodeOut struct {
		resp serve.IngestResponse
		err  error
	}
	outs := make([]nodeOut, nNodes)
	conflicted := false
	var wg sync.WaitGroup
	for node := 0; node < nNodes; node++ {
		if len(byNode[node]) == 0 {
			continue
		}
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			o := &outs[node]
			// One ODWB frame per node, stamped with the map epoch.
			frame := serve.AppendBatch(nil, byNode[node], r.dim, r.fp)
			o.err = r.node(node).IngestFrame(frame, m.Epoch, &o.resp)
		}(node)
	}
	wg.Wait()

	for node := 0; node < nNodes; node++ {
		batch := byNode[node]
		if len(batch) == 0 {
			continue
		}
		o := &outs[node]
		switch {
		case errors.Is(o.err, serve.ErrEpochConflict):
			// Map-epoch disagreement (a migration commit in flight, or a
			// node that missed a push while partitioned).
			r.epochConflicts.Add(1)
			conflicted = true
			rejected += len(batch)
		case o.err != nil, len(o.resp.Results) != len(batch):
			// Crashed or partitioned node, or one answering out of
			// contract: the whole sub-batch is rejected; the health loop
			// will fail a dead node's shards over.
			r.nodeErrors.Add(1)
			rejected += len(batch)
		default:
			if o.resp.RetryAfterMS > retryMS {
				retryMS = o.resp.RetryAfterMS
			}
			for k, res := range o.resp.Results {
				if !res.Accepted {
					rejected++
					continue
				}
				r.forwarded.Add(1)
				results[pos[node][k]] = res
			}
		}
	}
	if conflicted {
		// Re-push so a node that missed the commit (briefly partitioned,
		// never declared dead) converges instead of refusing forever; the
		// client's retry then lands.
		r.pushEpoch(r.CurrentMap())
	}
	r.rejections.Add(uint64(rejected))
	if rejected > 0 && retryMS == 0 {
		retryMS = 50
	}
	return rejected, retryMS, nil
}

// owner returns the client for the live primary of sensor's shard.
func (r *Router) owner(sensor string) (serve.Client, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	sh := serve.ShardOf(sensor, r.m.Shards)
	node := r.m.Owner[sh]
	if node < 0 || r.dead[node] {
		return serve.Client{}, fmt.Errorf("%w: shard %d", errNoOwner, sh)
	}
	return r.node(node), nil
}

// AggregateStats builds the cluster-wide /stats reply: the shared
// configuration template plus, for every shard, the counters from its
// current primary — which is exactly what a load client needs to build
// its twin and resume a seeded stream after failover.
func (r *Router) AggregateStats() (*serve.StatsResponse, error) {
	r.mu.RLock()
	m := r.m
	dead := append([]bool(nil), r.dead...)
	r.mu.RUnlock()

	perNode := make([]*serve.StatsResponse, len(m.Nodes))
	for id := range m.Nodes {
		if dead[id] {
			continue
		}
		st, err := r.node(id).Stats()
		if err != nil {
			// Tolerate unreachable non-owners; owners are checked below.
			continue
		}
		perNode[id] = st
	}

	out := r.template
	out.Shards = m.Shards
	out.WireFingerprint = r.fp
	out.Cluster = true
	out.Epoch = m.Epoch
	out.PerShard = make([]serve.ShardStats, 0, m.Shards)
	for sh := 0; sh < m.Shards; sh++ {
		node := m.Owner[sh]
		if node < 0 {
			return nil, fmt.Errorf("%w: shard %d", errNoOwner, sh)
		}
		st := perNode[node]
		if st == nil {
			return nil, fmt.Errorf("cluster: shard %d owner node %d unreachable", sh, node)
		}
		found := false
		for _, ss := range st.PerShard {
			if ss.Shard == sh {
				out.PerShard = append(out.PerShard, ss)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("cluster: node %d does not host shard %d (map epoch %d)", node, sh, m.Epoch)
		}
	}
	return &out, nil
}
