package main

import (
	"sync"
	"testing"

	"ladder"
	"ladder/internal/circuit"
	"ladder/internal/core"
	"ladder/internal/reram"
	"ladder/internal/timing"
)

var (
	smallOnce   sync.Once
	smallSet    *timing.TableSet
	smallSetErr error
)

// smallTables builds a 128×128 table set, so the test avoids generating
// the full 512×512 set; smallGeometry shrinks the memory to match.
func smallTables(t *testing.T) *timing.TableSet {
	t.Helper()
	smallOnce.Do(func() {
		p := circuit.DefaultParams()
		p.N = 128
		smallSet, smallSetErr = timing.NewTableSet(p)
	})
	if smallSetErr != nil {
		t.Fatal(smallSetErr)
	}
	return smallSet
}

func smallGeometry() reram.Geometry {
	return reram.Geometry{Channels: 2, RanksPerChannel: 2, BanksPerRank: 8, MatGroupsPerBank: 64, MatRows: 128}
}

// TestTimingWrapperIsObservationOnly runs the long-write cell at small
// scale under every built-in scheme, plain and through its timing
// wrapper, and requires byte-identical stripped reports — also with a
// mid-run crash and with fault injection, which reach the optional
// CrashRecover and WriteRetry methods.
func TestTimingWrapperIsObservationOnly(t *testing.T) {
	ts := smallTables(t)
	var builtins []string
	for _, s := range core.RegisteredSchemes() {
		if untimed(s) == s {
			builtins = append(builtins, s)
		}
	}
	registerTimed()
	d := &dispatchStats{}
	timedSink.Store(d)
	defer timedSink.Store(nil)
	variants := []struct {
		name string
		set  func(*ladder.Config)
	}{
		{"plain", func(*ladder.Config) {}},
		{"crash", func(c *ladder.Config) { c.CrashAtInstr = 10_000 }},
		{"faults", func(c *ladder.Config) { c.FaultRate = 0.01 }},
	}
	for _, scheme := range builtins {
		for _, v := range variants {
			digests := map[bool]string{}
			for _, traced := range []bool{false, true} {
				cfg := ladder.Config{Workload: longWorkload, Scheme: scheme, InstrPerCore: 20_000,
					Seed: 42, Tables: ts, Geom: smallGeometry()}
				if traced {
					cfg.Scheme = timedName(scheme)
				}
				v.set(&cfg)
				res, err := ladder.Run(cfg)
				if err != nil {
					t.Fatalf("%s %s: %v", cfg.Scheme, v.name, err)
				}
				if digests[traced], err = reportDigest(res); err != nil {
					t.Fatal(err)
				}
			}
			if digests[false] != digests[true] {
				t.Errorf("%s %s: wrapped report digest %s, plain %s", scheme, v.name, digests[true], digests[false])
			}
		}
	}
	_, calls := d.totals()
	if want := int64(len(builtins) * len(variants) * smallGeometry().Channels); d.factories.Load() != want || calls == 0 {
		t.Errorf("wrappers saw %d factory calls (want %d) and %d scheme calls", d.factories.Load(), want, calls)
	}
}
