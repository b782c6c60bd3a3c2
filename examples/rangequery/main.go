// Online range queries: approximate answers with spatial and temporal
// constraints from the density models (paper Section 9).
//
// A weather station streams (pressure, dew-point) pairs; the RangeEngine
// seals a kernel model per block of arrivals. Queries like "how many
// low-pressure readings in the last day?" or "average dew-point while
// pressure was high, during the first week?" are answered from the sealed
// models without storing the raw readings.
//
//	go run ./examples/rangequery
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"odds"
	"odds/internal/apps"
	"odds/internal/core"
	"odds/internal/stream"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the example against w so the smoke test can capture and
// assert on the output. All seeds are pinned: the output is deterministic.
func run(w io.Writer) error {
	const (
		perDay = 48  // readings per day (one per 30 min)
		days   = 120 // four months of deployment
		epochs = perDay * days
	)
	cfg := odds.DefaultConfig(2)
	cfg.WindowCap = epochs
	cfg.SampleSize = 512
	engine := apps.NewRangeEngine(core.Config(cfg), perDay, days)

	src := stream.NewEnviro(stream.DefaultEnviro(), 11)
	for t := 0; t < epochs; t++ {
		engine.Observe(src.Next())
	}

	day := func(d int) int { return d * perDay }
	wholeDomain := []float64{0, 0}
	top := []float64{1, 1}
	lowP := []float64{0, 0}
	lowPTop := []float64{0.6, 1}
	highP := []float64{0.72, 0}

	fmt.Fprintf(w, "observed %d readings over %d days\n\n", engine.Now(), days)

	total := engine.Count(wholeDomain, top, 0, 0)
	fmt.Fprintf(w, "Q1  total readings (model estimate):            %8.1f (true %d)\n", total, epochs)

	lowAll := engine.Count(lowP, lowPTop, 0, 0)
	fmt.Fprintf(w, "Q2  low-pressure readings (p < 0.6), all time:  %8.1f\n", lowAll)

	lowLastWeek := engine.Count(lowP, lowPTop, day(days-7), 0)
	fmt.Fprintf(w, "Q3  low-pressure readings, last 7 days:         %8.1f\n", lowLastWeek)

	avgDewEarly := engine.Average(1, wholeDomain, top, 0, day(30))
	avgDewLate := engine.Average(1, wholeDomain, top, day(days-30), 0)
	fmt.Fprintf(w, "Q4  average dew-point, first 30 days:           %8.3f\n", avgDewEarly)
	fmt.Fprintf(w, "Q5  average dew-point, last 30 days:            %8.3f\n", avgDewLate)

	avgDewHighP := engine.Average(1, highP, top, 0, 0)
	fmt.Fprintf(w, "Q6  average dew-point while pressure > 0.72:    %8.3f\n", avgDewHighP)
	return nil
}
