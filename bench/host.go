package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"odds/internal/stats"
)

// The builder's host is a shared VM whose speed drifts by tens of percent
// over minutes, with nothing reported as steal, and it drifts two ways that
// do not move together: how fast a core computes, and how fast a request
// crosses a loopback socket and wakes the thread behind it (over one
// quarter of an hour the second slowed by 15–20 % while the first stood
// still, and took kernel-steady's throughput down 15 % with it). Two runs
// of one commit then differ by more than any bound worth having. So every
// end-to-end run measures the host beside the stack, at quiesced points
// spread over the run, with two yardsticks that share no code with the
// product — no change to the product moves them:
//
//   - compute: each of conns goroutines slides a sorted window of 10 000
//     floats (two binary searches and two block moves inside 80 KB, the kind
//     of work a shard pipeline does);
//   - wire: each of conns connections posts 4 KB to a net/http handler on a
//     loopback listener that does nothing and answers 1 KB, closed loop.
//
// The run's host speed is the geometric mean of the two, each the median of
// its samples over the reference host's rate (the builder's host on a quiet
// minute), and every timing is reported at the reference host's speed.
// Measured against 19 s stretches of kernel-steady's closed-loop ingest,
// reads and paced batches over eight minutes, yardsticks interleaved: the
// spread between stretches was 9.4 %, 7.6 % and 6.1 % as measured; scaled
// by compute alone 3.5 %, 8.2 %, 4.5 %; by wire alone 4.8 %, 3.7 %, 7.4 %;
// by the geometric mean 1.3 %, 4.8 %, 3.9 %. (A register-only loop, the
// first yardstick, did worse than the window; the window inside the handler,
// one yardstick for both, worse than the two apart.) The scaling is one
// factor per run: over a run the medians move together, over 25 ms a sample
// says little about the window next to it.
const (
	refSlidesPerSec = 900_000.0 // compute: slides a second over conns goroutines
	refTripsPerSec  = 32_500.0  // wire: round trips a second over conns connections
	refWindow       = 10_000    // floats in each goroutine's sorted window
	refChunk        = 50        // slides between looks at the clock
	refBody         = 4096
	refReply        = 1024
	refWarm         = 3 // untimed round trips before a wire sample: the connection's goroutines start parked
)

// slidingWindow is one goroutine's share of the compute yardstick.
type slidingWindow struct {
	sorted []float64 // ascending
	ring   []float64 // the same values in arrival order
	at     int       // ring slot of the oldest value
	lcg    uint64
}

func newSlidingWindow(seed uint64) *slidingWindow {
	w := &slidingWindow{lcg: seed}
	for i := 0; i < refWindow; i++ {
		w.ring = append(w.ring, w.next())
	}
	w.sorted = append(w.sorted, w.ring...)
	sort.Float64s(w.sorted)
	return w
}

func (w *slidingWindow) next() float64 {
	w.lcg = w.lcg*6364136223846793005 + 1442695040888963407
	return float64(w.lcg>>11) / (1 << 53)
}

// slide replaces the oldest value by a new one, keeping sorted sorted.
func (w *slidingWindow) slide() {
	s := w.sorted
	i := sort.SearchFloat64s(s, w.ring[w.at])
	copy(s[i:], s[i+1:])
	x := w.next()
	j := sort.SearchFloat64s(s[:len(s)-1], x)
	copy(s[j+1:], s[j:len(s)-1])
	s[j] = x
	w.ring[w.at] = x
	w.at = (w.at + 1) % len(w.ring)
}

// hostMeter holds the two yardsticks and the samples of one run.
type hostMeter struct {
	windows [conns]*slidingWindow
	hs      *http.Server
	served  chan struct{}
	url     string
	clients [conns]*http.Client
	body    []byte

	slides []float64 // compute samples: slides a second, summed over the goroutines
	trips  []float64 // wire samples: round trips a second, summed over the connections
}

func newHostMeter() (*hostMeter, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &hostMeter{served: make(chan struct{}), url: "http://" + ln.Addr().String(), body: make([]byte, refBody)}
	for g := range h.windows {
		h.windows[g] = newSlidingWindow(uint64(g) + 1)
		h.clients[g] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	reply := make([]byte, refReply)
	h.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		_, _ = w.Write(reply)
	})}
	go func() {
		defer close(h.served)
		_ = h.hs.Serve(ln) // returns ErrServerClosed on close
	}()
	return h, nil
}

func (h *hostMeter) close() {
	for _, c := range h.clients {
		c.CloseIdleConnections()
	}
	_ = h.hs.Close()
	<-h.served
}

// both runs fn on conns goroutines at once and returns the sum of the rates
// they return.
func both(fn func(g int) (float64, error)) (float64, error) {
	var (
		wg    sync.WaitGroup
		rates [conns]float64
		errs  [conns]error
	)
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rates[g], errs[g] = fn(g)
		}(g)
	}
	wg.Wait()
	total := 0.0
	for g := range rates {
		if errs[g] != nil {
			return 0, errs[g]
		}
		total += rates[g]
	}
	return total, nil
}

// sampleCompute slides the windows for d. Call it, like sampleWire, with the
// stack quiesced: whatever else runs takes cycles and reads as a slow host.
func (h *hostMeter) sampleCompute(d time.Duration) {
	rate, _ := both(func(g int) (float64, error) {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < d {
			for k := 0; k < refChunk; k++ {
				h.windows[g].slide()
			}
			n += refChunk
		}
		return float64(n) / time.Since(t0).Seconds(), nil
	})
	h.slides = append(h.slides, rate)
}

// sampleWire drives the echo handler for d.
func (h *hostMeter) sampleWire(d time.Duration) error {
	rate, err := both(func(g int) (float64, error) {
		trip := func() error {
			resp, err := h.clients[g].Post(h.url, "application/octet-stream", bytes.NewReader(h.body))
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			return err
		}
		for i := 0; i < refWarm; i++ {
			if err := trip(); err != nil {
				return 0, err
			}
		}
		n := 0
		t0 := time.Now()
		for time.Since(t0) < d {
			if err := trip(); err != nil {
				return 0, err
			}
			n++
		}
		return float64(n) / time.Since(t0).Seconds(), nil
	})
	if err != nil {
		return fmt.Errorf("host wire sample: %w", err)
	}
	h.trips = append(h.trips, rate)
	return nil
}

// speed is the run's host speed as a multiple of the reference host's, with
// its two factors.
func (h *hostMeter) speed() (speed, compute, wire float64) {
	compute = stats.Median(h.slides) / refSlidesPerSec
	wire = stats.Median(h.trips) / refTripsPerSec
	return math.Sqrt(compute * wire), compute, wire
}
