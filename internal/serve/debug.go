package serve

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/metrics"
	"time"
)

// DebugHandler is the operator's profiling surface: net/http/pprof under
// /debug/pprof/ and every runtime/metrics sample, one "name value" line
// each, under /debug/metrics. It belongs on its own listener (ServeDebug,
// the -debug-addr flag of oddserve and oddrouter): the serving handlers
// never route to it, so a profile cannot be pulled through the ingest
// port.
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/metrics", handleRuntimeMetrics)
	return mux
}

// ServeDebug listens on addr and serves DebugHandler there for the life
// of the process. A listen error is returned before anything is served.
func ServeDebug(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: DebugHandler(), ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // lives until the process exits
	return ln.Addr(), nil
}

// handleRuntimeMetrics writes every runtime/metrics sample: a counter or
// gauge as its value, a histogram as its total count.
func handleRuntimeMetrics(w http.ResponseWriter, _ *http.Request) {
	descs := metrics.All()
	samples := make([]metrics.Sample, len(descs))
	for i := range samples {
		samples[i].Name = descs[i].Name
	}
	metrics.Read(samples)
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			fmt.Fprintf(w, "%s %d\n", s.Name, s.Value.Uint64())
		case metrics.KindFloat64:
			fmt.Fprintf(w, "%s %g\n", s.Name, s.Value.Float64())
		case metrics.KindFloat64Histogram:
			var n uint64
			for _, c := range s.Value.Float64Histogram().Counts {
				n += c
			}
			fmt.Fprintf(w, "%s count=%d\n", s.Name, n)
		}
	}
}
