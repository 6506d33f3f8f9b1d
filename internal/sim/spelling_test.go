package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestSchemeSpellingIdentical pins that a scheme name is resolved once,
// in Config.applyDefaults: any case-insensitive spelling of a registered
// scheme runs exactly the registered scheme — the store set-up keyed on
// the name (BLP's column tracking, the Est/Hybrid resident shift)
// included — and reports under the registered label. A grid resolves
// its scheme list before any cell runs, so its Schemes, its Results keys
// and its report match the registered spellings, and an unknown name
// fails without simulating a cell.
func TestSchemeSpellingIdentical(t *testing.T) {
	for _, tc := range []struct{ spelled, canon string }{
		{"ladder-est", SchemeEst},
		{"ladder-hybrid", SchemeHybrid},
		{"blp", SchemeBLP},
	} {
		t.Run(tc.spelled, func(t *testing.T) {
			t.Parallel()
			run := func(name string) (*Result, []byte) {
				res, err := Run(testConfig(t, "lbm", name))
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(NewReport(res).StripVolatile())
				if err != nil {
					t.Fatal(err)
				}
				return res, b
			}
			want, wantJSON := run(tc.canon)
			got, gotJSON := run(tc.spelled)
			if got.Scheme != tc.canon {
				t.Errorf("Result.Scheme = %q, want the registered spelling %q", got.Scheme, tc.canon)
			}
			if g, w := goldenKey(got), goldenKey(want); g != w {
				t.Errorf("%q diverged from %q\n got: %s\nwant: %s", tc.spelled, tc.canon, g, w)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("%q report differs from %q report", tc.spelled, tc.canon)
			}
		})
	}
	t.Run("RunGrid", func(t *testing.T) {
		t.Parallel()
		opts := Options{Instr: 5_000, Seed: 7, Tables: smallTables(t), Workloads: []string{"astar"}, Jobs: 1}
		report := func(schemes []string) (*Grid, []byte) {
			g, err := RunGrid(opts, schemes)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := NewGridReport(g)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(rep.StripVolatile())
			if err != nil {
				t.Fatal(err)
			}
			return g, b
		}
		lower := []string{"BASELINE", "ladder-est"}
		g, gotJSON := report(lower)
		_, wantJSON := report([]string{SchemeBaseline, SchemeEst})
		if lower[1] != "ladder-est" {
			t.Errorf("RunGrid rewrote the caller's scheme slice: %v", lower)
		}
		if strings.Join(g.Schemes, ",") != SchemeBaseline+","+SchemeEst {
			t.Errorf("Grid.Schemes = %v, want registered spellings", g.Schemes)
		}
		if g.Results["astar"][SchemeEst] == nil || g.Results["astar"][SchemeEst].Scheme != SchemeEst {
			t.Errorf("Results not keyed by the registered spelling: %v", g.Results["astar"])
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("lower-case grid report differs from the registered-spelling report")
		}

		cells := 0
		opts.Progress = func(GridProgress) { cells++ }
		if _, err := RunGrid(opts, []string{SchemeBaseline, "no-such-scheme"}); err == nil || !strings.Contains(err.Error(), "no-such-scheme") {
			t.Errorf("unknown scheme: err = %v, want one naming it", err)
		}
		if cells != 0 {
			t.Errorf("%d cells ran before the unknown scheme was rejected", cells)
		}
	})
}
