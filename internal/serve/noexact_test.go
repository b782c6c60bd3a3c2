package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// noExactReadings is a stream whose every 17th reading is a spike no
// window point lies near: an exact neighbour count would flag each one.
func noExactReadings(n int) []Reading {
	rs := make([]Reading, n)
	for i := range rs {
		v := 0.4 + 0.2*float64(i*37%101)/101
		if i%17 == 16 {
			v += 3
		}
		rs[i] = Reading{Sensor: fmt.Sprintf("s-%d", i%5), Value: []float64{v}}
	}
	return rs
}

// TestExactAlwaysFalse pins the serving contract that keeps no ground
// truth: the exact bit is false on every path that still carries it — the
// pipeline's ingest and query verdicts, JSON and ODWR ingest replies,
// /query/outlier, and both subscription encodings (an ODWS frame with flag
// bit 4 set would not decode) — on a stream the estimate path flags.
func TestExactAlwaysFalse(t *testing.T) {
	const n = 400
	rs := noExactReadings(n)

	p, err := NewPipeline(testPipelineConfig(DetectDistance, 1, 120, 7))
	if err != nil {
		t.Fatal(err)
	}
	outliers := 0
	for _, r := range rs {
		v := p.IngestSensor(r.Sensor, r.Value)
		q := p.QueryOutlierSensor(r.Sensor, r.Value)
		if v.Exact || q.Exact {
			t.Fatalf("pipeline seq %d: ingest %+v, query %+v", v.Seq, v, q)
		}
		if v.Outlier {
			outliers++
		}
	}
	if outliers == 0 {
		t.Fatal("the estimate path flagged nothing; the stream is too tame")
	}

	srv := mustServer(t, testServerConfig(2, 1))
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sse := openStream(t, ts.URL+"/subscribe")
	defer sse.Body.Close()
	bin := openStream(t, ts.URL+"/subscribe?format=binary")
	defer bin.Body.Close()

	half := n / 2
	resp, body := postJSON(t, ts.URL+"/ingest", IngestRequest{Readings: rs[:half]})
	if resp.StatusCode != http.StatusOK || strings.Contains(string(body), `"exact":true`) ||
		strings.Count(string(body), `"exact":false`) != half {
		t.Fatalf("JSON ingest: status %d, body %.200s", resp.StatusCode, body)
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	frame := AppendBatch(nil, rs[half:], 1, st.WireFingerprint)
	bresp, err := http.Post(ts.URL+"/ingest", ContentTypeBinary, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	reply, err := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	results, rejected, _, err := DecodeResultsInto(reply, nil)
	if err != nil || rejected != 0 || len(results) != n-half {
		t.Fatalf("binary ingest: %d results, %d rejected, %v", len(results), rejected, err)
	}
	for _, r := range results {
		if r.Exact {
			t.Fatalf("binary ingest result %+v", r)
		}
	}
	for _, r := range rs[:20] {
		resp, body := getBody(t, fmt.Sprintf("%s/query/outlier?sensor=%s&v=%v", ts.URL, r.Sensor, r.Value[0]))
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"exact":false`) {
			t.Fatalf("query: status %d, body %s", resp.StatusCode, body)
		}
	}

	for i, ev := range readSSE(t, bufio.NewReader(sse.Body), n) {
		if !strings.Contains(ev.data, `"exact":false,`) {
			t.Fatalf("SSE event %d: %s", i, ev.data)
		}
	}
	sr := NewStreamReader(bin.Body)
	for got := 0; got < n; {
		_, _, kind, err := sr.Next()
		if err != nil {
			t.Fatalf("ODWS frame after %d verdicts: %v", got, err)
		}
		if kind == StreamFrameVerdict {
			got++
		}
	}
}
