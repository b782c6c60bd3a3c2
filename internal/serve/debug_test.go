package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestDebugOnlyOnItsOwnListener: the serving handler answers 404 on the
// profiling paths, and DebugHandler serves them.
func TestDebugOnlyOnItsOwnListener(t *testing.T) {
	srv := mustServer(t, testServerConfig(1, 1))
	t.Cleanup(func() { _ = srv.Close() })
	get := func(h http.Handler, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/metrics"} {
		if rec := get(srv.Handler(), path); rec.Code != http.StatusNotFound {
			t.Errorf("serving handler %s: %d, want 404", path, rec.Code)
		}
	}
	if rec := get(DebugHandler(), "/debug/pprof/"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("debug handler /debug/pprof/: %d %.80q", rec.Code, rec.Body.String())
	}
	if rec := get(DebugHandler(), "/debug/metrics"); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "/gc/heap/allocs:bytes ") {
		t.Errorf("debug handler /debug/metrics: %d %.80q", rec.Code, rec.Body.String())
	}
}

func TestServeDebugListens(t *testing.T) {
	at, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + at.String() + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/metrics on the debug listener: %d", resp.StatusCode)
	}
	if _, err := ServeDebug(at.String()); err == nil {
		t.Fatal("a second listener on a taken address did not fail")
	}
}
