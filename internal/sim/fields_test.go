package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ladder/internal/core"
	"ladder/internal/timing"
	"ladder/internal/trace"
)

// fieldCase accounts for one Config field. A result field's set must,
// applied on top of ctx, change the stripped report or make Run fail;
// an observer (or check) field's set, on top of ctx, must leave the
// golden key unchanged.
type fieldCase struct {
	observer bool
	ctx, set func(*Config)
}

// TestEveryConfigFieldAccounted walks Config by reflection against a
// table that classifies every field, so a new field cannot land without
// saying what it does: change the result, or only observe it. It mirrors
// the service's TestEveryRequestFieldMatters one layer down.
func TestEveryConfigFieldAccounted(t *testing.T) {
	ts := smallTables(t)
	defaults, err := timing.DefaultTableSet()
	if err != nil {
		t.Fatal(err)
	}
	tracePath := recordTinyTrace(t)
	none := func(*Config) {}
	hybrid := func(c *Config) { c.Scheme = SchemeHybrid }
	leveled := func(c *Config) { c.WearLeveling = true }
	faulty := func(c *Config) { c.FaultRate = 0.05 }
	// remapping sends every transient failure straight to a spare row.
	remapping := func(c *Config) { faulty(c); c.RetryMax = -1 }
	result := func(ctx, set func(*Config)) fieldCase { return fieldCase{ctx: ctx, set: set} }
	observer := func(ctx, set func(*Config)) fieldCase { return fieldCase{observer: true, ctx: ctx, set: set} }
	cases := map[string]fieldCase{
		"Workload":      result(none, func(c *Config) { c.Workload = "astar" }),
		"Scheme":        result(none, hybrid),
		"InstrPerCore":  result(none, func(c *Config) { c.InstrPerCore *= 2 }),
		"Seed":          result(none, func(c *Config) { c.Seed++ }),
		"Geom":          result(none, func(c *Config) { c.Geom.Channels = 1 }),
		"Tables":        result(none, func(c *Config) { c.Tables = defaults }),
		"ShrinkRange":   result(func(c *Config) { hybrid(c); c.Tables = defaults }, func(c *Config) { c.ShrinkRange = 2 }),
		"WearLeveling":  result(none, leveled),
		"VWLMode":       result(leveled, func(c *Config) { c.VWLMode = "line" }),
		"VWLPeriod":     result(leveled, func(c *Config) { c.VWLPeriod = 1 }),
		"ResidentLevel": result(none, func(c *Config) { c.ResidentLevel = -1 }),
		"CrashAtInstr":  result(hybrid, func(c *Config) { c.CrashAtInstr = c.InstrPerCore / 2 }),
		"MetaCache": result(func(c *Config) { hybrid(c); c.InstrPerCore = 60_000 }, func(c *Config) {
			c.MetaCache = core.MetaCacheConfig{SizeBytes: 1 << 10, Ways: 1, SpillSize: 1}
		}),
		"HybridLowRows":      result(hybrid, func(c *Config) { c.HybridLowRows = -1 }),
		"TraceFile":          result(none, func(c *Config) { c.TraceFile = tracePath }),
		"FaultRate":          result(none, faulty),
		"FaultSeed":          result(faulty, func(c *Config) { c.FaultSeed = 99 }),
		"RetryMax":           result(faulty, func(c *Config) { c.RetryMax = -1 }),
		"SpareRows":          result(remapping, func(c *Config) { c.SpareRows = -1 }),
		"RemapPenaltyNs":     result(remapping, func(c *Config) { c.RemapPenaltyNs = 500 }),
		"ProactiveWearLimit": result(none, func(c *Config) { c.ProactiveWearLimit = 1 }),

		"Verify":           observer(none, func(c *Config) { c.Verify = true }),
		"Observe":          observer(none, func(c *Config) { c.Observe = func(Event) {} }),
		"ProgressEvery":    observer(func(c *Config) { c.Observe = func(Event) {} }, func(c *Config) { c.ProgressEvery = 1_000 }),
		"TraceSample":      observer(none, func(c *Config) { c.TraceSample = 1 }),
		"TraceSlowest":     observer(func(c *Config) { c.TraceSample = 1 }, func(c *Config) { c.TraceSlowest = 2 }),
		"TimelineInterval": observer(none, func(c *Config) { c.TimelineInterval = 1_000 }),
		"TimelineCapacity": observer(func(c *Config) { c.TimelineInterval = 1_000 }, func(c *Config) { c.TimelineCapacity = 2 }),
	}
	rt := reflect.TypeOf(Config{})
	for i := 0; i < rt.NumField(); i++ {
		name := rt.Field(i).Name
		if _, ok := cases[name]; !ok {
			t.Errorf("Config.%s is not accounted for: add it to the table as a result or an observer field", name)
		}
	}
	for name, fc := range cases {
		if _, ok := rt.FieldByName(name); !ok {
			t.Errorf("table lists %s, which Config no longer has", name)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			base := Config{Workload: "lbm", Scheme: SchemeBaseline, InstrPerCore: 5_000, Seed: 7, Geom: smallGeometry(), Tables: ts}
			fc.ctx(&base)
			perturbed := base
			fc.set(&perturbed)
			if fc.observer {
				a, b := mustRun(t, base), mustRun(t, perturbed)
				if ka, kb := goldenKey(a), goldenKey(b); ka != kb {
					t.Errorf("observer field %s perturbed the run\n off: %s\n  on: %s", name, ka, kb)
				}
				return
			}
			want := strippedRunReport(t, mustRun(t, base))
			res, err := Run(perturbed)
			if err != nil {
				t.Logf("rejected: %v", err)
				return // rejected: the field is not inert
			}
			if bytes.Equal(strippedRunReport(t, res), want) {
				t.Errorf("result field %s left the stripped report unchanged: an inert input", name)
			}
		})
	}
}

func mustRun(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// strippedRunReport is a run's report JSON without its wall-clock fields.
func strippedRunReport(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(NewReport(res).StripVolatile())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// recordTinyTrace writes a short astar trace that fits the small test
// geometry and returns its path.
func recordTinyTrace(t *testing.T) string {
	t.Helper()
	prof := trace.Profiles["astar"]
	prof.WorkingSetPages = 500
	gen, err := trace.NewGenerator(prof, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Record(f, gen, "astar", 3, 1000); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}
