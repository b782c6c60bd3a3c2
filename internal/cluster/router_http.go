package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"odds/internal/serve"
)

// routerMaxBatch bounds one client batch at the router; nodes enforce
// their own MaxBatch on each forwarded sub-batch.
const routerMaxBatch = 8192

// routerMaxBody bounds request bodies at the router.
const routerMaxBody = 8 << 20

// Handler exposes the router's HTTP API — the same hot-path surface as a
// single node (so oddload and its twin oracle run unchanged against a
// cluster) plus the cluster admin endpoints:
//
//	POST /ingest          route a batch across nodes (JSON or ODWP binary)
//	GET  /subscribe       merged verdict stream with per-shard sequencing
//	GET  /query/outlier   proxied to the shard's primary
//	GET  /query/prob      proxied to the shard's primary
//	GET  /stats           cluster-aggregated (per-shard counters from owners)
//	GET  /healthz         router liveness
//	GET  /metrics         router counters + map epoch
//	GET  /admin/map       current map (?shard=k for one shard's placement)
//	POST /admin/migrate   ?shard=K&to=N   live shard migration
//	POST /admin/healthtick  run one health probe round (failover if due)
//	POST /admin/revive    ?node=N         mark a restarted node live
//	POST /admin/repair    ?shard=K&node=N rebuild a replica chain
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", r.handleIngest)
	mux.HandleFunc("/subscribe", r.handleSubscribe)
	mux.HandleFunc("/query/outlier", r.proxyQuery)
	mux.HandleFunc("/query/prob", r.proxyQuery)
	mux.HandleFunc("/stats", r.handleStats)
	mux.HandleFunc("/healthz", r.handleHealthz)
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/admin/map", r.handleAdminMap)
	mux.HandleFunc("/admin/migrate", r.handleAdminMigrate)
	mux.HandleFunc("/admin/healthtick", r.handleAdminHealthTick)
	mux.HandleFunc("/admin/revive", r.handleAdminRevive)
	mux.HandleFunc("/admin/repair", r.handleAdminRepair)
	return mux
}

func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	if !serve.RequireMethod(w, req, http.MethodPost) {
		return
	}
	req.Body = http.MaxBytesReader(w, req.Body, routerMaxBody)
	// Content negotiation and decode-failure statuses are the node's own
	// (serve.NegotiateIngest, serve.IngestDecodeStatus), so a client sees
	// one contract with or without a router in front.
	binary, ok := serve.NegotiateIngest(w, req.Header.Get("Content-Type"))
	if !ok {
		return
	}

	body, err := io.ReadAll(req.Body)
	var readings []serve.Reading
	switch {
	case err != nil:
	case binary:
		readings, err = serve.DecodeBatchInto(body, nil, r.dim, routerMaxBatch, r.fp, &r.names)
	default:
		readings, err = serve.DecodeIngestJSON(body, nil, routerMaxBatch, &r.names)
	}
	if err != nil {
		serve.WriteErr(w, serve.IngestDecodeStatus(err), err)
		return
	}

	results := make([]serve.ReadingResult, len(readings))
	rejected, retryMS, err := r.Ingest(readings, results)
	if err != nil {
		serve.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	status := http.StatusOK
	if rejected == len(readings) && rejected > 0 {
		w.Header().Set("Retry-After", "1")
		status = http.StatusTooManyRequests
	}
	if binary {
		serve.WriteBody(w, status, serve.ContentTypeBinary, serve.AppendResults(nil, results, rejected, retryMS))
	} else {
		serve.WriteBody(w, status, "application/json", serve.AppendIngestJSON(nil, results, rejected, retryMS))
	}
}

// proxyQuery relays a read-only query to the shard's primary node.
func (r *Router) proxyQuery(w http.ResponseWriter, req *http.Request) {
	if !serve.RequireMethod(w, req, http.MethodGet) {
		return
	}
	sensor := req.URL.Query().Get("sensor")
	if sensor == "" {
		serve.WriteErr(w, http.StatusBadRequest, errors.New("missing sensor parameter"))
		return
	}
	node, err := r.owner(sensor)
	if err != nil {
		serve.WriteErr(w, http.StatusServiceUnavailable, err)
		return
	}
	status, contentType, body, err := node.Get(req.URL.Path + "?" + req.URL.RawQuery)
	if err != nil {
		serve.WriteErr(w, http.StatusBadGateway, err)
		return
	}
	serve.WriteBody(w, status, contentType, body)
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	if !serve.RequireMethod(w, req, http.MethodGet) {
		return
	}
	st, err := r.AggregateStats()
	if err != nil {
		serve.WriteErr(w, http.StatusServiceUnavailable, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, st)
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if !serve.RequireMethod(w, req, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	if !serve.RequireMethod(w, req, http.MethodGet) {
		return
	}
	r.mu.RLock()
	m := r.m
	liveNodes := 0
	for id := range m.Nodes {
		if !r.dead[id] {
			liveNodes++
		}
	}
	r.mu.RUnlock()
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintf(w, "odds_router_map_epoch %d\n", m.Epoch)
	fmt.Fprintf(w, "odds_router_nodes %d\n", len(m.Nodes))
	fmt.Fprintf(w, "odds_router_nodes_live %d\n", liveNodes)
	fmt.Fprintf(w, "odds_router_forwarded_total %d\n", r.forwarded.Load())
	fmt.Fprintf(w, "odds_router_rejections_total %d\n", r.rejections.Load())
	fmt.Fprintf(w, "odds_router_epoch_conflicts_total %d\n", r.epochConflicts.Load())
	fmt.Fprintf(w, "odds_router_node_errors_total %d\n", r.nodeErrors.Load())
	fmt.Fprintf(w, "odds_router_migrations_total %d\n", r.migrations.Load())
	fmt.Fprintf(w, "odds_router_promotions_total %d\n", r.promotions.Load())
}

func (r *Router) handleAdminMap(w http.ResponseWriter, req *http.Request) {
	if !serve.RequireMethod(w, req, http.MethodGet) {
		return
	}
	m := r.CurrentMap()
	if raw := req.URL.Query().Get("shard"); raw != "" {
		sh, err := strconv.Atoi(raw)
		if err != nil || sh < 0 || sh >= m.Shards {
			serve.WriteErr(w, http.StatusBadRequest, fmt.Errorf("bad shard %q", raw))
			return
		}
		node := m.Owner[sh]
		out := map[string]any{"shard": sh, "epoch": m.Epoch, "owner": node, "replica": m.Replica[sh]}
		if node >= 0 {
			out["node"] = m.Nodes[node]
		}
		serve.WriteJSON(w, http.StatusOK, out)
		return
	}
	serve.WriteJSON(w, http.StatusOK, m)
}

func (r *Router) handleAdminMigrate(w http.ResponseWriter, req *http.Request) {
	if !serve.RequireMethod(w, req, http.MethodPost) {
		return
	}
	q := req.URL.Query()
	shard, err1 := strconv.Atoi(q.Get("shard"))
	to, err2 := strconv.Atoi(q.Get("to"))
	if err1 != nil || err2 != nil {
		serve.WriteErr(w, http.StatusBadRequest, errors.New("need integer shard and to parameters"))
		return
	}
	if err := r.Migrate(shard, to); err != nil {
		serve.WriteErr(w, http.StatusConflict, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "epoch": r.CurrentMap().Epoch})
}

func (r *Router) handleAdminHealthTick(w http.ResponseWriter, req *http.Request) {
	if !serve.RequireMethod(w, req, http.MethodPost) {
		return
	}
	promoted := r.HealthTick()
	if promoted == nil {
		promoted = []int{}
	}
	serve.WriteJSON(w, http.StatusOK, map[string]any{"promoted": promoted, "epoch": r.CurrentMap().Epoch})
}

func (r *Router) handleAdminRevive(w http.ResponseWriter, req *http.Request) {
	if !serve.RequireMethod(w, req, http.MethodPost) {
		return
	}
	node, err := strconv.Atoi(req.URL.Query().Get("node"))
	if err != nil {
		serve.WriteErr(w, http.StatusBadRequest, errors.New("need integer node parameter"))
		return
	}
	if err := r.Revive(node); err != nil {
		serve.WriteErr(w, http.StatusConflict, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (r *Router) handleAdminRepair(w http.ResponseWriter, req *http.Request) {
	if !serve.RequireMethod(w, req, http.MethodPost) {
		return
	}
	q := req.URL.Query()
	shard, err1 := strconv.Atoi(q.Get("shard"))
	node, err2 := strconv.Atoi(q.Get("node"))
	if err1 != nil || err2 != nil {
		serve.WriteErr(w, http.StatusBadRequest, errors.New("need integer shard and node parameters"))
		return
	}
	if err := r.RepairReplica(shard, node); err != nil {
		serve.WriteErr(w, http.StatusConflict, err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
