package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ladder"
	"ladder/internal/bits"
	"ladder/internal/core"
)

// timedPrefix marks the registry names of the timing wrappers: scheme
// "timed:LADDER-Hybrid" runs LADDER-Hybrid with its calls counted and a
// sample of them timed.
const timedPrefix = "timed:"

// timedName maps a scheme name to its timing wrapper's name.
func timedName(s string) string { return timedPrefix + s }

// sameName is the scheme-name mapping of untraced runs.
func sameName(s string) string { return s }

// untimed strips the wrapper prefix from every name in s.
func untimed(s string) string { return strings.ReplaceAll(s, timedPrefix, "") }

// dispatchStats accumulates the time spent inside scheme methods during
// one traced phase. Each scheme instance owns one clock (a run is single
// goroutine), so the hot path takes no lock; totals are summed once the
// phase's runs have returned.
type dispatchStats struct {
	mu        sync.Mutex
	clocks    []*schemeClock
	factories atomic.Int64
}

// schemeClock counts every call and times one call in sampleEvery,
// which keeps the wrapper's own cost small next to the calls it times.
type schemeClock struct{ ns, calls, timed int64 }

// sampleEvery is the timing sample period in calls.
const sampleEvery = 32

// sample counts a call and reports whether to time it.
func (c *schemeClock) sample() bool {
	c.calls++
	return c.calls%sampleEvery == 1
}

// since adds one timed call's duration.
func (c *schemeClock) since(start time.Time) {
	c.ns += int64(time.Since(start))
	c.timed++
}

func (d *dispatchStats) newClock() *schemeClock {
	d.factories.Add(1)
	c := &schemeClock{}
	d.mu.Lock()
	d.clocks = append(d.clocks, c)
	d.mu.Unlock()
	return c
}

// totals returns the mean time per scheme call over the timed sample
// and the total call count. Call it only after every run of the phase
// has returned.
func (d *dispatchStats) totals() (meanNs float64, calls int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var ns, timed int64
	for _, c := range d.clocks {
		ns += c.ns
		calls += c.calls
		timed += c.timed
	}
	return ratio(float64(ns), float64(timed)), calls
}

// timedSink is the phase whose dispatchStats the wrappers report into;
// a wrapper built while it is nil reports into a throwaway.
var timedSink atomic.Pointer[dispatchStats]

var registerOnce sync.Once

// registerTimed registers a timing wrapper for every built-in scheme
// under timedName(name), once per process.
func registerTimed() {
	registerOnce.Do(func() {
		for _, name := range core.RegisteredSchemes() {
			inner := name
			ladder.RegisterScheme(timedName(inner), func(env *core.Env, cache core.MetaCacheConfig) (core.Scheme, error) {
				s, err := core.NewScheme(inner, env, cache)
				if err != nil {
					return nil, err
				}
				mirrorNamedSetup(inner, env)
				d := timedSink.Load()
				if d == nil {
					d = &dispatchStats{}
				}
				return wrapScheme(s, d.newClock())
			})
		}
	})
}

// mirrorNamedSetup repeats the store set-up the simulator keys on the
// scheme's registered name (sim's system build and warm phases), which a
// wrapper registered under another name would otherwise lose: shifting
// schemes store resident data through their bit-shift datapath, and BLP
// needs per-bitline LRS tracking. The factory runs after the simulator
// switched column tracking off and before the warm phase, so the
// settings hold for the whole run.
func mirrorNamedSetup(inner string, env *core.Env) {
	switch inner {
	case core.SchemeEst, core.SchemeHybrid:
		env.Store.SetResidentTransform(func(slot int, l bits.Line) bits.Line {
			return bits.Shifted(l, slot)
		})
	case core.SchemeBLP:
		env.Store.SetColumnTracking(true)
	}
}

// cacher is the metadata-cache accessor the simulator probes schemes for.
type cacher interface{ Cache() *core.MetaCache }

// wrapScheme returns a Scheme that delegates every method to s, counts
// the calls and times a sample of them into c. The simulator probes
// schemes for three optional methods (Cache, WriteRetry, CrashRecover);
// the wrapper has exactly the ones s has, for the combinations the
// built-in schemes use, and refuses any other combination rather than
// hide a method.
func wrapScheme(s core.Scheme, c *schemeClock) (core.Scheme, error) {
	t := &timedScheme{in: s, c: c}
	ca, hasCache := s.(cacher)
	ra, hasRetry := s.(core.RetryAware)
	cr, hasCrash := s.(core.CrashRecoverable)
	switch {
	case !hasCache && !hasRetry && !hasCrash:
		return t, nil
	case hasCache && hasCrash && !hasRetry:
		return &timedLadder{t, ca, cr}, nil
	case hasCache && hasCrash && hasRetry:
		return &timedLadderRetry{timedLadder{t, ca, cr}, ra}, nil
	}
	return nil, fmt.Errorf("timing wrapper: scheme %s has optional methods it cannot forward (cache %v, retry %v, crash %v)",
		s.Name(), hasCache, hasRetry, hasCrash)
}

type timedScheme struct {
	in core.Scheme
	c  *schemeClock
}

func (t *timedScheme) Name() string {
	if t.c.sample() {
		defer t.c.since(time.Now())
	}
	return t.in.Name()
}

func (t *timedScheme) Enqueue(req *core.WriteRequest) ([]core.AuxRead, []core.MetaWriteback) {
	if t.c.sample() {
		defer t.c.since(time.Now())
	}
	return t.in.Enqueue(req)
}

func (t *timedScheme) SMBArrived(req *core.WriteRequest, stale bits.Line) {
	if t.c.sample() {
		defer t.c.since(time.Now())
	}
	t.in.SMBArrived(req, stale)
}

func (t *timedScheme) MetaArrived(key uint64) {
	if t.c.sample() {
		defer t.c.since(time.Now())
	}
	t.in.MetaArrived(key)
}

func (t *timedScheme) RetrySpill() ([]core.AuxRead, []core.MetaWriteback) {
	if t.c.sample() {
		defer t.c.since(time.Now())
	}
	return t.in.RetrySpill()
}

func (t *timedScheme) Ready(req *core.WriteRequest) bool {
	if t.c.sample() {
		defer t.c.since(time.Now())
	}
	return t.in.Ready(req)
}

func (t *timedScheme) Latency(req *core.WriteRequest) float64 {
	if t.c.sample() {
		defer t.c.since(time.Now())
	}
	return t.in.Latency(req)
}

func (t *timedScheme) Complete(req *core.WriteRequest, old, stored bits.Line) []core.MetaWriteback {
	if t.c.sample() {
		defer t.c.since(time.Now())
	}
	return t.in.Complete(req, old, stored)
}

func (t *timedScheme) DecodeRead(line uint64, payload bits.Line) bits.Line {
	if t.c.sample() {
		defer t.c.since(time.Now())
	}
	return t.in.DecodeRead(line, payload)
}

func (t *timedScheme) UseConstrainedFNW() bool {
	if t.c.sample() {
		defer t.c.since(time.Now())
	}
	return t.in.UseConstrainedFNW()
}

// timedLadder wraps a scheme with a metadata cache and crash recovery
// (LADDER-Basic).
type timedLadder struct {
	*timedScheme
	ca cacher
	cr core.CrashRecoverable
}

func (t *timedLadder) Cache() *core.MetaCache { return t.ca.Cache() }

func (t *timedLadder) CrashRecover() {
	if t.c.sample() {
		defer t.c.since(time.Now())
	}
	t.cr.CrashRecover()
}

// timedLadderRetry adds program-and-verify reconciliation (LADDER-Est
// and LADDER-Hybrid).
type timedLadderRetry struct {
	timedLadder
	ra core.RetryAware
}

func (t *timedLadderRetry) WriteRetry(req *core.WriteRequest, attempt int) {
	if t.c.sample() {
		defer t.c.since(time.Now())
	}
	t.ra.WriteRetry(req, attempt)
}
