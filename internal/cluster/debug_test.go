package cluster

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestRouterServesNoDebug: the profiling surface lives on oddrouter's
// -debug-addr listener only; the routing handler answers 404 on it.
func TestRouterServesNoDebug(t *testing.T) {
	tc := newTestCluster(t, 2, 2, false)
	for _, path := range []string{"/debug/pprof/", "/debug/metrics"} {
		rec := httptest.NewRecorder()
		tc.router.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("router %s: %d, want 404", path, rec.Code)
		}
	}
}
