package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// parallelGridOptions is the shared fixture: a 2×2 grid small enough to
// run under the race detector yet wide enough to keep several workers
// busy at once.
func parallelGridOptions(t *testing.T) Options {
	return Options{
		Instr:     5_000,
		Seed:      7,
		Tables:    smallTables(t),
		Workloads: []string{"astar", "lbm"},
	}
}

func parallelGridReportJSON(t *testing.T, jobs int, edit func(*Options)) []byte {
	t.Helper()
	opts := parallelGridOptions(t)
	opts.Jobs = jobs
	if edit != nil {
		edit(&opts)
	}
	g, err := RunGrid(opts, []string{SchemeBaseline, SchemeHybrid})
	if err != nil {
		t.Fatalf("RunGrid(jobs=%d): %v", jobs, err)
	}
	rep, err := NewGridReport(g)
	if err != nil {
		t.Fatalf("NewGridReport(jobs=%d): %v", jobs, err)
	}
	b, err := json.MarshalIndent(rep.StripVolatile(), "", "  ")
	if err != nil {
		t.Fatalf("marshaling grid report: %v", err)
	}
	return b
}

// TestRunGridByteIdenticalAcrossJobs is the determinism contract behind
// the service's report cache: for a fixed seed, the grid report is
// byte-identical whether cells ran sequentially or on a worker pool,
// once volatile wall-clock fields are stripped.
func TestRunGridByteIdenticalAcrossJobs(t *testing.T) {
	seq := parallelGridReportJSON(t, 1, nil)
	par := parallelGridReportJSON(t, 4, nil)
	if !bytes.Equal(seq, par) {
		sl, pl := strings.Split(string(seq), "\n"), strings.Split(string(par), "\n")
		for i := range sl {
			if i >= len(pl) || sl[i] != pl[i] {
				t.Fatalf("reports diverge at line %d:\n  jobs=1: %s\n  jobs=4: %s", i+1, sl[i], pl[i])
			}
		}
		t.Fatalf("reports differ in length: jobs=1 %d bytes, jobs=4 %d bytes", len(seq), len(par))
	}
}

// TestRunGridProgressSerialized runs a parallel grid whose progress
// callback, fed both completion notices and in-cell snapshots, mutates
// unsynchronized state: the grid's mutex is the only thing keeping that
// safe, so the race detector fails this test if serialization ever
// regresses. It also checks the Done counter is monotonic and complete
// and that every in-cell snapshot is tagged with its cell.
func TestRunGridProgressSerialized(t *testing.T) {
	opts := parallelGridOptions(t)
	opts.Jobs = 4
	opts.ProgressEvery = 1_000
	var (
		dones     []int // plain slice: appended from worker goroutines, safe only under the callback mutex
		cellTicks int   // likewise
		lastDone  int   //
		lastTotal int   //
	)
	opts.Progress = func(p GridProgress) {
		if p.Done < lastDone {
			t.Errorf("Done went backwards: %d after %d", p.Done, lastDone)
		}
		lastDone = p.Done
		if p.Cell != nil {
			if p.Workload == "" || p.Scheme == "" {
				t.Errorf("cell progress without identity: %q/%q", p.Workload, p.Scheme)
			}
			cellTicks++
			return
		}
		dones = append(dones, p.Done)
		lastTotal = p.Total
	}
	g, err := RunGrid(opts, []string{SchemeBaseline, SchemeHybrid})
	if err != nil {
		t.Fatalf("RunGrid: %v", err)
	}
	if lastTotal != 4 || len(dones) != 4 {
		t.Fatalf("expected 4 completion callbacks with Total=4, got %d callbacks (Total=%d)", len(dones), lastTotal)
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("Done not monotonically increasing: %v", dones)
		}
	}
	if cellTicks == 0 {
		t.Fatal("no in-cell snapshot despite ProgressEvery being set")
	}
	for _, w := range g.Workloads {
		for _, s := range g.Schemes {
			if g.Results[w][s] == nil {
				t.Fatalf("missing result for %s/%s", w, s)
			}
		}
	}
}

// TestGridProgressNeutral pins that a progress callback only observes:
// the same grid with completion notices and frequent in-cell snapshots
// yields a stripped report byte-identical to the grid with no callback.
// The service always installs one, so its reports depend on this.
func TestGridProgressNeutral(t *testing.T) {
	plain := parallelGridReportJSON(t, 2, nil)
	calls := 0
	watched := parallelGridReportJSON(t, 2, func(o *Options) {
		o.ProgressEvery = 1_000
		o.Progress = func(GridProgress) { calls++ }
	})
	if calls == 0 {
		t.Fatal("progress callback never fired")
	}
	if !bytes.Equal(plain, watched) {
		t.Fatal("installing a progress callback changed the grid report")
	}
}

// TestRunGridReportsEveryCellFailure: cells are independent, so one bad
// cell must not mask another's error, and the joined error names each.
func TestRunGridReportsEveryCellFailure(t *testing.T) {
	opts := parallelGridOptions(t)
	opts.Workloads = []string{"astar", "no-such-workload"}
	_, err := RunGrid(opts, []string{SchemeBaseline})
	if err == nil {
		t.Fatal("grid with an unknown workload should fail")
	}
	if !strings.Contains(err.Error(), "no-such-workload") {
		t.Fatalf("error does not name the failing cell: %v", err)
	}
}

// TestRunGridCtxCanceled: a canceled context yields an error, never a
// silently partial grid.
func TestRunGridCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunGridCtx(ctx, parallelGridOptions(t), []string{SchemeBaseline})
	if err == nil {
		t.Fatal("canceled grid should return an error")
	}
	if !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("error does not mention cancellation: %v", err)
	}
}
