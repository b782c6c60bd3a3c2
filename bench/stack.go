package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"odds/internal/cluster"
	"odds/internal/serve"
)

// node is one serve.Server behind a real loopback listener.
type node struct {
	cfg  serve.Config
	wrap func(http.Handler) http.Handler
	srv  *serve.Server
	hs   *http.Server
	addr string // host:port, stable across restarts
	done chan struct{}
}

func (n *node) url() string { return "http://" + n.addr }

// start builds the server from n.cfg (restoring from cfg.SnapshotPath when
// the file exists) and serves it; the first start picks a free port,
// restarts reuse it.
func (n *node) start() error {
	srv, err := serve.New(n.cfg)
	if err != nil {
		return err
	}
	addr := n.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Abort()
		return err
	}
	h := srv.Handler()
	if n.wrap != nil {
		h = n.wrap(h)
	}
	n.srv, n.addr = srv, ln.Addr().String()
	n.hs = &http.Server{Handler: h}
	n.done = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		_ = hs.Serve(ln) // returns ErrServerClosed on kill/stop
	}(n.hs, n.done)
	return nil
}

// kill is a crash: the listener and every connection close at once and the
// shards stop mid-queue without a checkpoint.
func (n *node) kill() {
	_ = n.hs.Close()
	<-n.done
	n.srv.Abort()
}

// stop is the clean shutdown at the end of a run.
func (n *node) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := n.hs.Shutdown(ctx); err != nil {
		_ = n.hs.Close() // a /subscribe stream is still open
	}
	<-n.done
	n.srv.Abort()
}

// stack is a workload's serving stack: one standalone node, or cluster
// nodes behind a router with its own listener.
type stack struct {
	w     *workload
	nodes []*node

	router   *cluster.Router
	routerHS *http.Server
	routerOK chan struct{}

	url   string // where clients send
	stats serve.StatsResponse
}

// stackOptions are the traced run's hooks; the zero value is the plain
// stack every end-to-end run uses.
type stackOptions struct {
	wrap func(http.Handler) http.Handler // around the client-facing handler
}

// startStack brings the workload's stack up on loopback listeners.
// Checkpoint files go under dir.
func startStack(w *workload, dir string, opts stackOptions) (*stack, error) {
	st := &stack{w: w}
	cfg := serve.Config{
		Shards:   w.shards,
		Pipeline: w.pipeline(),
		// Deep mailboxes: two closed-loop connections never fill them, so
		// admission control stays out of the measurement.
		QueueDepth: 1024,
	}
	if w.nodes == 0 {
		cfg.SnapshotPath = filepath.Join(dir, w.name+".snap")
		n := &node{cfg: cfg, wrap: opts.wrap}
		if err := n.start(); err != nil {
			return nil, err
		}
		st.nodes = []*node{n}
		st.url = n.url()
		stats, err := n.srv.Stats()
		if err != nil {
			st.stop()
			return nil, err
		}
		st.stats = stats
		return st, nil
	}

	cfg.Cluster = true
	urls := make([]string, w.nodes)
	for i := 0; i < w.nodes; i++ {
		n := &node{cfg: cfg}
		if err := n.start(); err != nil {
			st.stop()
			return nil, err
		}
		st.nodes = append(st.nodes, n)
		urls[i] = n.url()
	}
	r, err := cluster.NewRouter(cluster.Options{Nodes: urls, Shards: w.shards, Replicate: true})
	if err != nil {
		st.stop()
		return nil, err
	}
	st.router = r
	if err := st.canonicalPlacement(); err != nil {
		st.stop()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.stop()
		return nil, err
	}
	h := r.Handler()
	if opts.wrap != nil {
		h = opts.wrap(h)
	}
	st.routerHS = &http.Server{Handler: h}
	st.routerOK = make(chan struct{})
	go func() {
		defer close(st.routerOK)
		_ = st.routerHS.Serve(ln)
	}()
	st.url = "http://" + ln.Addr().String()
	stats, err := r.AggregateStats()
	if err != nil {
		st.stop()
		return nil, err
	}
	st.stats = *stats
	return st, nil
}

// canonicalPlacement moves every shard to primary s mod N with its replica
// on (s+1) mod N. The bootstrap map hashes node URLs, which carry this
// run's ephemeral ports; without this step the number of nodes a batch
// fans out to would differ from run to run.
func (st *stack) canonicalPlacement() error {
	n := len(st.nodes)
	for s := 0; s < st.w.shards; s++ {
		m := st.router.CurrentMap()
		owner, replica := s%n, (s+1)%n
		if m.Owner[s] == owner && m.Replica[s] == replica {
			continue
		}
		// Moving a shard onto its replica consumes the chain; a second move
		// then places the bare primary, and a repair re-chains it.
		if rep := m.Replica[s]; rep >= 0 {
			if err := st.router.Migrate(s, rep); err != nil {
				return err
			}
		}
		if err := st.router.Migrate(s, owner); err != nil {
			return err
		}
		if err := st.router.RepairReplica(s, replica); err != nil {
			return err
		}
	}
	m := st.router.CurrentMap()
	for s := 0; s < st.w.shards; s++ {
		if m.Owner[s] != s%n || m.Replica[s] != (s+1)%n {
			return fmt.Errorf("placement of shard %d is owner %d replica %d", s, m.Owner[s], m.Replica[s])
		}
	}
	return nil
}

// arrivals reads every shard's arrival count from its current primary.
func (st *stack) arrivals() ([]uint64, error) {
	var (
		stats serve.StatsResponse
		err   error
	)
	if st.router != nil {
		var p *serve.StatsResponse
		if p, err = st.router.AggregateStats(); err == nil {
			stats = *p
		}
	} else {
		stats, err = st.nodes[0].srv.Stats()
	}
	if err != nil {
		return nil, err
	}
	out := make([]uint64, st.w.shards)
	for _, ss := range stats.PerShard {
		out[ss.Shard] = ss.Arrivals
	}
	return out, nil
}

func (st *stack) stop() {
	if st.routerHS != nil {
		_ = st.routerHS.Close()
		<-st.routerOK
	}
	for _, n := range st.nodes {
		if n.hs != nil {
			n.stop()
		}
	}
}

// promote ticks the router's health loop until the shards of the killed
// node victim have failed over, and returns them with the time the ticks
// took.
func (st *stack) promote(victim int) (promoted []int, ticks time.Duration, err error) {
	t0 := time.Now()
	for tick := 0; tick < 8 && len(promoted) == 0; tick++ {
		promoted = st.router.HealthTick()
	}
	ticks = time.Since(t0)
	if len(promoted) == 0 {
		return nil, ticks, fmt.Errorf("node %d is dead but nothing was promoted", victim)
	}
	return promoted, ticks, nil
}

// heal restarts a killed node empty, revives it at the router and rebuilds
// every replica chain the failure broke onto it.
func (st *stack) heal(victim int) error {
	if err := st.nodes[victim].start(); err != nil {
		return err
	}
	if err := st.router.Revive(victim); err != nil {
		return err
	}
	m := st.router.CurrentMap()
	for s := 0; s < st.w.shards; s++ {
		if m.Replica[s] < 0 && m.Owner[s] != victim {
			if err := st.router.RepairReplica(s, victim); err != nil {
				return err
			}
		}
	}
	return nil
}
