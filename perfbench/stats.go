package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// minTail is how many samples must lie strictly beyond a reported
// percentile for it to be trusted.
const minTail = 10

// samplesFor returns the smallest sample count for which the p-quantile
// (0 < p < 1) has at least minTail samples beyond it.
func samplesFor(p float64) int {
	return int(math.Ceil(minTail/(1-p) - 1e-9))
}

// tailOK reports whether n samples leave at least minTail samples beyond
// the p-quantile.
func tailOK(n int, p float64) bool {
	return n >= samplesFor(p)
}

// tailQuantile is the p-quantile of xs when at least minTail samples lie
// beyond it, and the median otherwise: a run too short to support the
// percentile reports its median in that percentile's place.
func tailQuantile(xs []float64, p float64) float64 {
	if !tailOK(len(xs), p) {
		return median(xs)
	}
	return quantile(xs, p)
}

// keepGoing reports whether a run may start another unit of work (a
// pass, a cell or a job): before the deadline, or until min have
// started, so a run always has the samples its statistics need.
func keepGoing(now, deadline time.Time, started, min int) bool {
	return now.Before(deadline) || started < min
}

// tally counts operations attempted and failed; an operation fails when
// it errors, is rejected, or its output does not match the reference.
type tally struct {
	attempted, failed int
	// reasons keeps the first few failure descriptions for the log.
	reasons []string
}

// ok records one successful operation.
func (t *tally) ok() { t.attempted++ }

// fail records one failed operation with its reason.
func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.reasons) < 8 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// check records one operation that succeeded iff good.
func (t *tally) check(good bool, format string, args ...any) {
	if good {
		t.ok()
		return
	}
	t.fail(format, args...)
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, r := range o.reasons {
		if len(t.reasons) < 8 {
			t.reasons = append(t.reasons, r)
		}
	}
}

// frac is failed ÷ attempted (0 when nothing was attempted).
func (t tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// String prints the failure fraction with its base.
func (t tally) String() string {
	return fmt.Sprintf("%.4f (%d failed / %d attempted)", t.frac(), t.failed, t.attempted)
}

// ratio returns num ÷ den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
