package main

import (
	"fmt"
	"time"
)

// validateFlags rejects out-of-range numeric flags before a run starts:
// a bad sampling rate or fault rate should fail fast with a clear
// message, not surface minutes later from deep inside the simulator
// (or, worse, silently disable the feature it was meant to tune). The
// fault and remap knobs need no check here: every value means something
// under sim.Config's convention (0 = default, negative = off).
func validateFlags(traceSample, traceSlowest int, faultRate float64) error {
	switch {
	case traceSample < 1:
		return fmt.Errorf("-trace-sample must be >= 1 (record one in every N transactions), got %d", traceSample)
	case traceSlowest < 0:
		return fmt.Errorf("-trace-slowest must be >= 0 (0 disables the digest), got %d", traceSlowest)
	case faultRate < 0 || faultRate >= 1:
		return fmt.Errorf("-fault-rate must be in [0, 1) (0 disables injection), got %g", faultRate)
	}
	return nil
}

// validateTimelineFlags rejects a -timeline-out with no sampling
// cadence: without -timeline-interval the run records no epochs and the
// export would silently write an empty document.
func validateTimelineFlags(interval uint64, out string) error {
	if out != "" && interval == 0 {
		return fmt.Errorf("-timeline-out requires -timeline-interval > 0 (no epochs are recorded otherwise)")
	}
	return nil
}

// validateServeFlags rejects out-of-range service-mode knobs (see
// docs/SERVICE.md for their semantics). The timeouts take 0 to disable;
// negatives would silently behave like an already-expired deadline.
func validateServeFlags(jobs, queueDepth, cacheSize int, jobTimeout, stallTimeout time.Duration) error {
	switch {
	case jobs < 0:
		return fmt.Errorf("-jobs must be >= 0 (0 = one worker per CPU), got %d", jobs)
	case queueDepth < 1:
		return fmt.Errorf("-queue-depth must be >= 1, got %d", queueDepth)
	case cacheSize < 1:
		return fmt.Errorf("-cache-size must be >= 1, got %d", cacheSize)
	case jobTimeout < 0:
		return fmt.Errorf("-job-timeout must be >= 0 (0 disables the deadline), got %v", jobTimeout)
	case stallTimeout < 0:
		return fmt.Errorf("-stall-timeout must be >= 0 (0 disables the watchdog), got %v", stallTimeout)
	}
	return nil
}
