package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Handler returns the server's HTTP API:
//
//	POST /ingest        batch ingest, per-shard admission control
//	                    (JSON, or ODWP binary via Content-Type: application/x-odds-batch)
//	GET  /subscribe     ?sensors=a,b&only=outlier&format=sse|binary  verdict push stream
//	GET  /query/outlier ?sensor=&v=x[,y...]   read-only outlier check
//	GET  /query/prob    ?sensor=&v=...&r=     probability mass query
//	GET  /stats         config + per-shard counters (JSON)
//	GET  /healthz       liveness
//	GET  /metrics       expvar-style per-shard counters (text)
//
// Cluster-node endpoints (see admin.go and replicate.go):
//
//	POST /admin/shard   shard lifecycle: create/install/snapshot/
//	                    unseal/release/promote/follow
//	GET/POST /admin/epoch  map-epoch read/advance
//	POST /replicate     follower side of a replica chain (ODRP frames)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/subscribe", s.handleSubscribe)
	mux.HandleFunc("/query/outlier", s.handleQueryOutlier)
	mux.HandleFunc("/query/prob", s.handleQueryProb)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/admin/shard", s.handleAdminShard)
	mux.HandleFunc("/admin/epoch", s.handleAdminEpoch)
	mux.HandleFunc("/replicate", s.handleReplicate)
	return mux
}

// jsonEncodeFailures counts response-encode errors (almost always a
// client that hung up mid-response). The first one is logged; the rest
// only count, so a flapping client cannot flood the log.
var (
	jsonEncodeFailures atomic.Uint64
	jsonEncodeLogOnce  sync.Once
)

// WriteJSON answers status with v as the JSON body. It, WriteErr and
// RequireMethod are how every handler answers; they are exported so the
// cluster router's endpoints fail exactly as a node's do.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The status line is already on the wire, so there is nothing to
		// send the client; surface the failure instead of dropping it.
		jsonEncodeFailures.Add(1)
		jsonEncodeLogOnce.Do(func() {
			log.Printf("serve: response encode failed (further failures counted, not logged): %v", err)
		})
	}
}

// WriteErr answers status with {"error": err}.
func WriteErr(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

// WriteBody answers status with an encoded body, written once under its
// Content-Length.
func WriteBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// RequireMethod answers 405 with an Allow header unless the request uses
// the given method. Every endpoint fails closed on method mismatch.
func RequireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	WriteErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed; use %s", r.Method, method))
	return false
}

// ingestErrStatus maps an ingest failure to its HTTP status: client-side
// batch defects are 400, everything else (shutdown, shard death) is 503.
func ingestErrStatus(err error) int {
	if errors.Is(err, errBadBatch) {
		return http.StatusBadRequest
	}
	return http.StatusServiceUnavailable
}

// queryErrStatus maps query failures: a shard this node does not host is
// 404 (a router retries the map owner), everything else is 503.
func queryErrStatus(err error) int {
	if errors.Is(err, errWrongNode) {
		return http.StatusNotFound
	}
	return http.StatusServiceUnavailable
}

// IngestDecodeStatus maps a failure to read or decode an /ingest body, on
// either codec, to its HTTP status: a body over the byte cap or a frame
// over the batch cap is 413, every other defect 400 — always a 4xx, a
// malformed batch can never reach a shard. Exported so the cluster router
// answers exactly what a node would.
func IngestDecodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) || errors.Is(err, errBatchTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// NegotiateIngest picks the /ingest codec from the Content-Type: ODWP
// binary, or JSON (also the default when the header is absent). Any other
// type is answered 415 with an Accept header and ok false. Exported for
// the same reason as IngestDecodeStatus.
func NegotiateIngest(w http.ResponseWriter, ct string) (binary, ok bool) {
	switch {
	case strings.HasPrefix(ct, ContentTypeBinary):
		return true, true
	case ct == "" || strings.HasPrefix(ct, "application/json"):
		return false, true
	}
	w.Header().Set("Accept", "application/json, "+ContentTypeBinary)
	WriteErr(w, http.StatusUnsupportedMediaType,
		fmt.Errorf("unsupported Content-Type %q; use application/json or %s", ct, ContentTypeBinary))
	return false, false
}

// handleIngest is one path for both codecs: read the body into pooled
// scratch, decode it (interned sensors, recycled Value arrays, every
// element overwritten), route through the pooled core, and encode the
// reply into a reused buffer written once — zero steady-state allocations
// per reading. The codec matters only at the two ends.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodPost) {
		return
	}
	if !s.checkEpoch(w, r) {
		return
	}
	binary, ok := NegotiateIngest(w, r.Header.Get("Content-Type"))
	if !ok {
		return
	}
	sc := s.getScratch()
	body, err := readAllInto(sc.body, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	sc.body = body
	var readings []Reading
	switch {
	case err != nil:
	case binary:
		readings, err = DecodeBatchInto(body, sc.readings, s.cfg.Pipeline.Core.Dim, s.cfg.MaxBatch, s.wireFP, &s.names)
	default:
		readings, err = DecodeIngestJSON(body, sc.readings, s.cfg.MaxBatch, &s.names)
	}
	if err != nil {
		s.scratch.Put(sc)
		WriteErr(w, IngestDecodeStatus(err), err)
		return
	}
	sc.readings = readings
	sc.results = growResults(sc.results, len(readings))
	rejected, err := s.ingestInto(readings, sc.results, &sc.route)
	if err != nil {
		// A failed round may leave an un-awaited reply in a pooled
		// channel; drop the scratch rather than poison the pool.
		WriteErr(w, ingestErrStatus(err), err)
		return
	}
	var retryMS int64
	status := http.StatusOK
	if rejected > 0 {
		retryMS = s.cfg.RetryAfter.Milliseconds()
		if rejected == len(readings) {
			// Nothing was admitted: a pure backpressure reply.
			w.Header().Set("Retry-After", retryAfterSecs(s.cfg.RetryAfter.Seconds()))
			status = http.StatusTooManyRequests
		}
	}
	if binary {
		sc.out = AppendResults(sc.out[:0], sc.results, rejected, retryMS)
		WriteBody(w, status, ContentTypeBinary, sc.out)
	} else {
		sc.out = AppendIngestJSON(sc.out[:0], sc.results, rejected, retryMS)
		WriteBody(w, status, "application/json", sc.out)
	}
	s.scratch.Put(sc)
}

func retryAfterSecs(secs float64) string {
	n := int(secs)
	if n < 1 {
		n = 1
	}
	return strconv.Itoa(n)
}

// readAllInto is io.ReadAll into a reused buffer: once the buffer has
// grown to the steady batch size, reading a request body allocates
// nothing.
func readAllInto(buf []byte, r io.Reader) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// parseVec parses "0.1,0.2" into a vector of the server's dimensionality.
// A non-finite component is refused, as /ingest refuses it.
func (s *Server) parseVec(raw string) ([]float64, error) {
	if raw == "" {
		return nil, fmt.Errorf("missing v parameter")
	}
	parts := strings.Split(raw, ",")
	if len(parts) != s.cfg.Pipeline.Core.Dim {
		return nil, fmt.Errorf("v has %d components, want %d", len(parts), s.cfg.Pipeline.Core.Dim)
	}
	v := make([]float64, len(parts))
	for i, p := range parts {
		x, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("v component %d: %v", i, err)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("v component %d: %v is not finite", i, x)
		}
		v[i] = x
	}
	return v, nil
}

// queryTarget reads the sensor and v parameters both query endpoints
// share, answering 400 itself when either is unusable.
func (s *Server) queryTarget(w http.ResponseWriter, q url.Values) (sensor string, v []float64, ok bool) {
	if sensor = q.Get("sensor"); sensor == "" {
		WriteErr(w, http.StatusBadRequest, fmt.Errorf("missing sensor parameter"))
		return "", nil, false
	}
	v, err := s.parseVec(q.Get("v"))
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return "", nil, false
	}
	return sensor, v, true
}

func (s *Server) handleQueryOutlier(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	sensor, v, ok := s.queryTarget(w, r.URL.Query())
	if !ok {
		return
	}
	resp, err := s.QueryOutlier(sensor, v)
	if err != nil {
		WriteErr(w, queryErrStatus(err), err)
		return
	}
	WriteBody(w, http.StatusOK, "application/json", appendQueryJSON(make([]byte, 0, 96), resp))
}

func (s *Server) handleQueryProb(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	q := r.URL.Query()
	sensor, v, ok := s.queryTarget(w, q)
	if !ok {
		return
	}
	radius, err := strconv.ParseFloat(q.Get("r"), 64)
	if err != nil || !(radius > 0) || math.IsInf(radius, 1) {
		WriteErr(w, http.StatusBadRequest, fmt.Errorf("r %q: radius must be positive and finite", q.Get("r")))
		return
	}
	resp, err := s.QueryProb(sensor, v, radius)
	switch {
	case err != nil:
		WriteErr(w, queryErrStatus(err), err)
	case math.IsNaN(resp.Prob) || math.IsInf(resp.Prob, 0):
		WriteJSON(w, http.StatusOK, resp) // encoding/json refuses it; counted there
	default:
		WriteBody(w, http.StatusOK, "application/json", appendProbJSON(make([]byte, 0, 64), resp))
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	st, err := s.Stats()
	if err != nil {
		WriteErr(w, http.StatusServiceUnavailable, err)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		http.Error(w, "closed", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// handleMetrics emits expvar-style lines from the lock-free counters —
// cheap enough to scrape without a mailbox round trip (so no latency
// quantiles here; those are in /stats).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !RequireMethod(w, r, http.MethodGet) {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintf(w, "odds_serve_shards %d\n", len(s.shards))
	driftOn := s.cfg.Pipeline.Drift.Enabled
	var ingested, rejected, outliers, driftDet, driftAct uint64
	for _, sh := range s.shards {
		if sh == nil {
			continue
		}
		in, rej, out := sh.ingested.Load(), sh.rejected.Load(), sh.outliers.Load()
		ingested, rejected, outliers = ingested+in, rejected+rej, outliers+out
		fmt.Fprintf(w, "odds_serve_shard_ingested{shard=\"%d\"} %d\n", sh.id, in)
		fmt.Fprintf(w, "odds_serve_shard_rejected{shard=\"%d\"} %d\n", sh.id, rej)
		fmt.Fprintf(w, "odds_serve_shard_outliers{shard=\"%d\"} %d\n", sh.id, out)
		fmt.Fprintf(w, "odds_serve_shard_queue_depth{shard=\"%d\"} %d\n", sh.id, len(sh.reqs))
		if link := sh.repl.Load(); link != nil {
			broken := 0
			if link.broken.Load() {
				broken = 1
			}
			fmt.Fprintf(w, "odds_serve_shard_replica_link_broken{shard=\"%d\"} %d\n", sh.id, broken)
			fmt.Fprintf(w, "odds_serve_shard_replicated_batches{shard=\"%d\"} %d\n", sh.id, link.shipped.Load())
		}
		if driftOn {
			det, act := sh.driftDetections.Load(), sh.driftActions.Load()
			driftDet, driftAct = driftDet+det, driftAct+act
			fmt.Fprintf(w, "odds_serve_shard_drift_detections{shard=\"%d\"} %d\n", sh.id, det)
			fmt.Fprintf(w, "odds_serve_shard_drift_actions{shard=\"%d\"} %d\n", sh.id, act)
		}
	}
	fmt.Fprintf(w, "odds_serve_ingested_total %d\n", ingested)
	fmt.Fprintf(w, "odds_serve_rejected_total %d\n", rejected)
	fmt.Fprintf(w, "odds_serve_outliers_total %d\n", outliers)
	if driftOn {
		fmt.Fprintf(w, "odds_serve_drift_detections_total %d\n", driftDet)
		fmt.Fprintf(w, "odds_serve_drift_actions_total %d\n", driftAct)
	}
	fmt.Fprintf(w, "odds_serve_subscribers %d\n", s.hub.subscribers())
	fmt.Fprintf(w, "odds_serve_subscriber_dropped_total %d\n", s.hub.dropped.Load())
	fmt.Fprintf(w, "odds_serve_json_encode_failures_total %d\n", jsonEncodeFailures.Load())
}
