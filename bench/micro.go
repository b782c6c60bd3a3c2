package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"odds/internal/detector"
	"odds/internal/distance"
	"odds/internal/drift"
	"odds/internal/kernel"
	"odds/internal/sample"
	"odds/internal/serve"
	"odds/internal/varest"
	"odds/internal/window"
)

// routerCounters scrapes a router's /metrics into name → value.
func routerCounters(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if x, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = x
		}
	}
	return out, sc.Err()
}

// perOp times n calls of fn and returns ns per call.
func perOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// microRungs times single layers on the workload's own readings: the two
// wire codecs, the four detector backends, the structures under the
// kernelchain backend, the drift bank, and restore at two arrival counts.
func microRungs(r *rig, out *outcome) error {
	v := out.values
	w := r.w
	pcfg := r.st.stats.PipelineConfigFor(0)

	// The restore-growth rung is a long single-threaded feed; it takes the
	// second core while the short rungs below take the first.
	growth := make(chan error, 1)
	var at [2]float64
	go func() {
		var err error
		at, err = restoreGrowth(r, pcfg)
		growth <- err
	}()

	// Connection 0's first readings, decoded from its own frames.
	var (
		readings []serve.Reading
		names    serve.Interner
		rd       []serve.Reading
		err      error
	)
	ci := &r.in.conns[0]
	for f := 0; len(readings) < r.sz.microReadings; f++ {
		if rd, err = r.in.decodeFrame(ci.frame(f), rd[:0:0], &names); err != nil {
			return err
		}
		readings = append(readings, rd...)
	}
	readings = readings[:r.sz.microReadings]
	values := make([]float64, len(readings))
	for i, x := range readings {
		values[i] = x.Value[0]
	}

	// Codecs, a batch at a time, on reused buffers as the server does.
	results := make([]serve.ReadingResult, w.batch)
	for i := range results {
		results[i] = serve.ReadingResult{Shard: i % w.shards, Accepted: true, Seq: uint64(1_000_000 + i), Outlier: i%97 == 0, Warmed: true}
	}
	batches := r.sz.microReadings / w.batch
	n := float64(batches * w.batch)
	var frame, reply []byte
	var dec []serve.Reading
	var decRes []serve.ReadingResult
	encB := perOp(batches, func(i int) {
		frame = serve.AppendBatch(frame[:0], readings[i*w.batch:(i+1)*w.batch], r.in.dim, r.in.fp)
	})
	decB := perOp(batches, func(i int) {
		dec, err = serve.DecodeBatchInto(frame, dec, r.in.dim, w.batch, r.in.fp, &names)
	})
	if err != nil {
		return err
	}
	respB := perOp(batches, func(i int) { reply = serve.AppendResults(reply[:0], results, 0, 0) })
	respDecB := perOp(batches, func(i int) { decRes, _, _, err = serve.DecodeResultsInto(reply, decRes[:0]) })
	if err != nil {
		return err
	}
	v["codec.binary.decode_ns_per_reading"] = (decB + respDecB) / float64(w.batch)
	v["codec.binary.encode_ns_per_reading"] = (encB + respB) / float64(w.batch)
	v["codec.binary.bytes_per_reading"] = float64(len(frame)+len(reply)) / float64(w.batch)

	var jframe, jreply []byte
	encJ := perOp(batches, func(i int) {
		jframe, err = json.Marshal(serve.IngestRequest{Readings: readings[i*w.batch : (i+1)*w.batch]})
	})
	req := serve.IngestRequest{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	decJ := perOp(batches, func(i int) {
		req.Readings = req.Readings[:0]
		err = json.Unmarshal(jframe, &req)
	})
	respJ := perOp(batches, func(i int) { jreply, err = json.Marshal(serve.IngestResponse{Results: results}) })
	runtime.ReadMemStats(&m1)
	var resp serve.IngestResponse
	respDecJ := perOp(batches, func(i int) {
		resp.Results = resp.Results[:0]
		err = json.Unmarshal(jreply, &resp)
	})
	if err != nil {
		return err
	}
	v["codec.json.decode_ns_per_reading"] = (decJ + respDecJ) / float64(w.batch)
	v["codec.json.encode_ns_per_reading"] = (encJ + respJ) / float64(w.batch)
	v["codec.json.bytes_per_reading"] = float64(len(jframe)+len(jreply)) / float64(w.batch)
	// The server side of the JSON path: request decode plus reply encode.
	v["codec.json.allocs_per_reading"] = float64(m1.Mallocs-m0.Mallocs) / n

	// The four backends on the same values.
	for _, kind := range detector.AllKinds() {
		d, err := detector.New(detectorConfig(pcfg, kind))
		if err != nil {
			return err
		}
		pt := []float64{0}
		v["detector."+string(kind)+".ingest_ns"] = perOp(len(values), func(i int) {
			pt[0] = values[i]
			d.Ingest(pt)
		})
		v["detector."+string(kind)+".state_bytes"] = float64(d.Stats().StateBytes)
		if kind != detector.KindKernelChain {
			continue
		}
		blob, err := d.Snapshot()
		if err != nil {
			return err
		}
		fresh, err := detector.New(detectorConfig(pcfg, kind))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := fresh.Restore(blob); err != nil {
			return err
		}
		v["detector.kernelchain.restore_ms"] = ms(time.Since(t0))
		v["detector.kernelchain.snapshot_bytes"] = float64(len(blob))
	}

	// Under the kernelchain backend, at the paper's defaults whatever the
	// workload's own window: |W|=10000, |R|=500, r=0.01.
	const wcap, rsize, radius = 10000, 500, 0.01
	idx := distance.NewDynIndex(radius, 1)
	ring := make([]window.Point, wcap)
	for i := range ring {
		ring[i] = window.Point{values[i%len(values)]}
		idx.Add(ring[i])
	}
	v["distance.dynindex.slide_ns"] = perOp(len(values), func(i int) {
		slot := ring[i%wcap]
		idx.Remove(slot)
		slot[0] = values[i]
		idx.Add(slot)
		idx.CountUpTo(slot, radius, 45)
	})
	for _, d := range []int{1, 2} {
		centers := make([]window.Point, rsize)
		sigmas := make([]float64, d)
		for i := range centers {
			centers[i] = make(window.Point, d)
			for j := range centers[i] {
				centers[i][j] = values[(i*d+j)%len(values)]
			}
		}
		for j := range sigmas {
			sigmas[j] = 0.06 // the mixture's spread
		}
		model, err := kernel.New(centers, kernel.Bandwidths(sigmas, rsize), wcap)
		if err != nil {
			return err
		}
		q := model.NewQuerier()
		pt := make(window.Point, d)
		v[fmt.Sprintf("kernel.prob_ns_d%d_r500", d)] = perOp(len(values), func(i int) {
			for j := range pt {
				pt[j] = values[(i+j)%len(values)]
			}
			q.Prob(pt, radius)
		})
	}
	chain := sample.NewChain(rsize, wcap, 1, rand.New(rand.NewSource(1)))
	pt := window.Point{0}
	v["sample.chain.push_ns"] = perOp(len(values), func(i int) {
		pt[0] = values[i]
		chain.Push(pt)
	})
	ve := varest.New(wcap, 0.2)
	v["varest.push_ns"] = perOp(len(values), func(i int) { ve.Push(values[i]) })
	bank := drift.NewDetector(drift.Default())
	v["drift.observe_ns"] = perOp(len(values), func(i int) { bank.Observe(values[i]) })

	if err := <-growth; err != nil {
		return err
	}
	v["snapshot.restore_ms_1e5"] = at[0]
	v["snapshot.restore_ms_1e6"] = at[1]
	v["snapshot.restore_growth"] = at[1] / at[0]
	return nil
}

// restoreGrowth feeds one pipeline connection 0's stream and times
// RestorePipeline after sz.growthLo and after sz.growthHi arrivals. A restore
// that replays history costs more the longer the pipeline has run; the
// ratio is 1.0 once it does not.
func restoreGrowth(r *rig, pcfg serve.PipelineConfig) (at [2]float64, err error) {
	pl, err := serve.NewPipeline(pcfg)
	if err != nil {
		return at, err
	}
	var (
		rd    []serve.Reading
		names serve.Interner
	)
	ci := &r.in.conns[0]
	lo, hi := r.sz.growthLo, r.sz.growthHi
	for f := 0; int(pl.Seq()) < hi; f++ {
		if f >= ci.frames() {
			return at, fmt.Errorf("restore growth: input ends at %d arrivals", pl.Seq())
		}
		if rd, err = r.in.decodeFrame(ci.frame(f), rd, &names); err != nil {
			return at, err
		}
		for i := range rd {
			pl.IngestSensor(rd[i].Sensor, rd[i].Value)
			n := int(pl.Seq())
			if n != lo && n != hi {
				continue
			}
			blob, err := pl.Snapshot()
			if err != nil {
				return at, err
			}
			t0 := time.Now()
			if _, err := serve.RestorePipeline(pcfg, blob); err != nil {
				return at, err
			}
			at[n/hi] = ms(time.Since(t0))
		}
	}
	return at, nil
}
