package main

import (
	"fmt"
	"time"

	"ladder"
	"ladder/internal/timing"
)

// Long-write's cell: lbm under LADDER-Hybrid, run the way laddersim runs
// a single configuration, long enough that rows are revisited.
const (
	longWorkload = "lbm"
	longScheme   = ladder.SchemeHybrid
	longInstr    = 10_000_000
)

// runLongWrite runs the long cell once in the calling goroutine; traced
// runs resolve the scheme through its timing wrapper.
func runLongWrite(ts *timing.TableSet, seed int64, traced bool) (*ladder.Result, time.Duration, error) {
	scheme := longScheme
	if traced {
		scheme = timedName(scheme)
	}
	start := time.Now()
	res, err := ladder.Run(ladder.Config{
		Workload:     longWorkload,
		Scheme:       scheme,
		InstrPerCore: longInstr,
		Seed:         seed,
		Tables:       ts,
	})
	wall := time.Since(start)
	if err != nil {
		return nil, wall, fmt.Errorf("long-write cell: %w", err)
	}
	return res, wall, nil
}
