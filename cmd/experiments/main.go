// Command experiments regenerates the paper's evaluation: every figure
// and table of Sections 5–7 (see DESIGN.md's experiment index). Output is
// plain text, one block per experiment, with workloads as rows and
// schemes as series — the same rows the paper plots.
//
// Usage:
//
//	experiments                 # everything (several minutes)
//	experiments -exp fig12      # one experiment
//	experiments -instr 100000   # cheaper runs
//	experiments -jobs 1         # sequential grid cells (default: one per CPU)
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ladder"
	"ladder/internal/core"
	"ladder/internal/fault"
	"ladder/internal/introspect"
	"ladder/internal/logging"
	"ladder/internal/remap"
	"ladder/internal/sim"
	"ladder/internal/timing"
)

// runCtx is canceled on SIGINT/SIGTERM: in-flight simulations finish,
// but no further grid cell or experiment starts, and the run exits with
// an error instead of printing figures from a partial grid.
var runCtx context.Context

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runCtx = ctx
	var (
		exp    = flag.String("exp", "all", "experiment: fig2 fig4 fig11 fig12 fig13 fig14 fig15 fig16 fig17 table4 storage lifetime ablation wear vwlmode crash cachesize lowrows fnw reliability all")
		instr  = flag.Uint64("instr", 150_000, "instructions per core per run")
		seed   = flag.Int64("seed", 42, "simulation seed")
		jobs   = flag.Int("jobs", 0, "grid cells simulated concurrently (0 = one worker per CPU; 1 = sequential)")
		report = flag.String("report", "", "write a structured JSON grid report (per-cell summaries + merged metrics) to this file")
		http   = flag.String("http", "", "serve live introspection (pprof + grid progress) on this address, e.g. :6060")

		faultRate = flag.Float64("fault-rate", 0, "override the reliability sweep's fault-rate list with this single rate, in (0, 1); see docs/FAULTS.md")
		faultSeed = flag.Int64("fault-seed", 0, "fault-injector PRNG seed for reliability runs (0 = reuse -seed)")
		retryMax  = flag.Int("retry-max", 0, fmt.Sprintf("program-and-verify reissue cap per write in reliability runs (0 = default %d, negative disables reissues)", fault.DefaultRetryMax))
		spareRows = flag.Int("spare-rows", 0, fmt.Sprintf("per-bank spare-row pool in reliability runs (0 = default %d, negative disables remapping)", remap.DefaultSpareRows))

		gapPeriods = flag.String("gap-periods", "", "comma-separated gap-move periods for the lifetime sweep (empty = defaults)")
		spareGrid  = flag.String("spare-grid", "", "comma-separated spare-pool sizes for the lifetime sweep (empty = defaults)")

		timelineInterval = flag.Uint64("timeline-interval", 0, "record a telemetry epoch every N simulated cycles in every run (0 disables; see docs/TIMELINE.md)")
		timelineOut      = flag.String("timeline-out", "", "write the merged grid timeline to this file: a .csv extension selects CSV, anything else JSON (requires -timeline-interval and a grid experiment)")
		logFormat        = flag.String("log-format", "", "diagnostic log format on stderr: text (default) or json")
	)
	flag.Parse()
	var err error
	lg, err = logging.New(*logFormat, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	switch {
	case *faultRate < 0 || *faultRate >= 1:
		fail(fmt.Errorf("-fault-rate must be in [0, 1), got %g", *faultRate))
	case *jobs < 0:
		fail(fmt.Errorf("-jobs must be >= 0 (0 = one worker per CPU), got %d", *jobs))
	case *timelineOut != "" && *timelineInterval == 0:
		fail(fmt.Errorf("-timeline-out requires -timeline-interval > 0 (no epochs are recorded otherwise)"))
	}
	periods, err := intList(*gapPeriods)
	if err != nil {
		fail(fmt.Errorf("-gap-periods: %w", err))
	}
	spares, err := intList(*spareGrid)
	if err != nil {
		fail(fmt.Errorf("-spare-grid: %w", err))
	}

	if *http != "" {
		srv := must(introspect.New(*http))
		// Graceful drain bounded by a grace period; an interrupt
		// (canceled runCtx) collapses it to an immediate close.
		defer func() {
			sctx, cancel := context.WithTimeout(runCtx, 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(sctx)
		}()
		fmt.Printf("introspection: http://%s/ (pprof under /debug/pprof/)\n", srv.Addr())
		gridProgress = func(p ladder.GridProgress) { srv.Publish("grid", p) }
	}

	opts := ladder.Options{Instr: *instr, Seed: *seed, Jobs: *jobs, TimelineInterval: *timelineInterval, Progress: gridProgress}
	// The lighter studies run on a three-workload subset.
	sub := opts
	sub.Workloads = []string{"lbm", "mcf", "mix-7"}
	// Every experiment starts by asking want, so an interrupt stops the
	// run at the next experiment boundary.
	want := func(name string) bool {
		checkInterrupt()
		return *exp == "all" || *exp == name
	}

	// Cheap analytic experiments first.
	if want("table4") {
		printTable4()
	}
	if want("storage") {
		printStorage()
	}
	if want("fig4") || want("fig11") {
		printLatencyModel(want)
	}

	if want("fig2") {
		fig2 := opts
		fig2.Workloads = ladder.SingleWorkloads()
		grid := mustGrid(fig2, []string{ladder.SchemeBaseline, ladder.SchemeLocAware, ladder.SchemeOracle})
		printRows("Figure 2 — normalized IPC (worst-case vs location-aware vs data/location-aware)",
			grid.Speedup(), grid.Schemes)
	}

	needGrid := want("fig12") || want("fig13") || want("fig14") || want("fig16") || want("fig17") || want("fnw")
	if needGrid {
		schemes := ladder.FigureSchemes()
		grid := mustGrid(opts, schemes)
		mainFigureGrid = grid
		if want("fig12") {
			printRows("Figure 12 — normalized average write service time", grid.WriteServiceTime(), schemes)
		}
		if want("fig13") {
			printRows("Figure 13 — normalized average read latency", grid.ReadLatency(), schemes)
		}
		if want("fig14") {
			ladders := []string{ladder.SchemeBasic, ladder.SchemeEst, ladder.SchemeHybrid}
			printRows("Figure 14a — additional reads (fraction of baseline reads)", grid.ExtraReads(), ladders)
			printRows("Figure 14b — additional writes (fraction of baseline writes)", grid.ExtraWrites(), ladders)
		}
		if want("fig16") {
			printRows("Figure 16 — speedup over baseline (weighted IPC)", grid.Speedup(), schemes)
		}
		if want("fig17") {
			printEnergy(grid)
		}
		if want("fnw") {
			printRows("Section 6.1 — FNW flip cancellations (fraction of units; paper <4%)",
				grid.FNWCancellation(), []string{ladder.SchemeBasic, ladder.SchemeEst, ladder.SchemeHybrid})
		}
	}

	if want("fig15") {
		grid := mustGrid(opts, []string{ladder.SchemeEstNoShift, ladder.SchemeEst})
		printRows("Figure 15 — LRS-counter difference, LADDER-Est minus accurate",
			grid.CounterDiffs(), []string{"without-shift", "with-shift"})
	}

	if want("ablation") {
		printRows("Section 7 — benefit retained with 2x shrunk latency range (paper ≈85%)",
			must(ladder.RangeAblation(opts, ladder.SchemeEst, 2)), []string{"gain-full", "gain-shrunk", "retained"})
	}

	if want("wear") {
		printRows("Section 6.4 — IPC with VWL enabled relative to without (paper ≈99%)",
			must(ladder.WearLevelingImpact(opts, ladder.SchemeHybrid)), []string{"ipc-ratio", "gap-moves"})
	}

	if want("lifetime") {
		lifetimeStudy = must(ladder.LifetimeSweep(sub, ladder.SchemeHybrid, periods, spares))
		printRows("Decoder lifetime sweep — relative lifetime and IPC ratio vs gap-move period × spare pool",
			lifetimeStudy.Rows(), lifetimeStudy.Series())
	}

	if want("vwlmode") {
		printRows("Section 6.4 — segment vs line VWL (metadata reads per data write, IPC)",
			must(ladder.VWLModeComparison(opts, ladder.SchemeEst)), []string{"segment-metareads", "line-metareads", "segment-ipc", "line-ipc"})
	}

	if want("crash") {
		printRows("Section 7 — crash recovery with lazy conservative correction",
			must(ladder.CrashRecoveryStudy(opts, ladder.SchemeEst)), []string{"pre-service-ns", "post-service-ns", "post-counter-gap"})
	}

	if want("cachesize") {
		printRows("Section 6.3 — metadata cache size ablation (IPC vs default 64KB; paper <2% gain)",
			must(ladder.CacheSizeSweep(sub, ladder.SchemeHybrid, nil)), []string{"16KB", "32KB", "64KB", "128KB", "256KB"})
	}

	if want("reliability") {
		rel := sub
		rel.FaultSeed, rel.RetryMax, rel.SpareRows = *faultSeed, *retryMax, *spareRows
		rates := []float64{0.001, 0.01}
		if *faultRate > 0 {
			rates = []float64{*faultRate}
		}
		schemes := []string{ladder.SchemeBasic, ladder.SchemeEst, ladder.SchemeHybrid}
		rows := must(ladder.ReliabilitySweep(rel, schemes, rates))
		series := make([]string, 0, len(schemes)*len(rates))
		for _, s := range schemes {
			for _, r := range rates {
				series = append(series, fmt.Sprintf("%s@%g", s, r))
			}
		}
		printRows("Reliability — program-and-verify retries per 1000 data writes (stale-margin effect; see docs/FAULTS.md)",
			rows, series)
	}

	if want("lowrows") {
		printRows("Section 4.2 — Hybrid precision-register ablation (avg write service ns)",
			must(ladder.LowPrecisionSweep(sub, nil)), []string{"rows=0 svc", "rows=64 svc", "rows=128 svc", "rows=256 svc", "rows=512 svc"})
	}

	checkInterrupt()

	if *report != "" {
		// -exp lifetime serializes the sweep study; every other
		// experiment serializes the grid it built.
		if *exp == "lifetime" {
			if lifetimeStudy == nil {
				fail(fmt.Errorf("-report with -exp lifetime needs the sweep to have run"))
			}
			writeReport(*report, "lifetime report", lifetimeStudy.Report().WriteJSON)
			return
		}
		gr := mustGridReport()
		writeReport(*report, "grid report", gr.WriteJSON)
	}
	if *timelineOut != "" {
		// The grid report carries the cells' timelines merged epoch-by-
		// epoch (cells run the same instruction budget, so epochs align).
		gr := mustGridReport()
		if gr.Timeline == nil {
			fail(fmt.Errorf("-timeline-out: the selected experiment produced no timeline"))
		}
		write := gr.Timeline.WriteJSON
		if strings.HasSuffix(*timelineOut, ".csv") {
			write = gr.Timeline.WriteCSV
		}
		writeReport(*timelineOut, "merged timeline", write)
	}
}

// mustGridReport freezes the grid the selected experiments built, or
// fails if none ran.
func mustGridReport() *ladder.GridReport {
	if mainFigureGrid != nil {
		reportGrid = mainFigureGrid
	}
	if reportGrid == nil {
		fail(fmt.Errorf("-report and -timeline-out need a grid experiment (fig2/fig12..fig17/fig15/fnw or all)"))
	}
	return must(ladder.NewGridReport(reportGrid))
}

// writeReport creates path and streams a JSON document into it via emit.
func writeReport(path, kind string, emit func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := emit(f); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Printf("\n%s written to %s\n", kind, path)
}

// intList parses a comma-separated list of non-negative integers; an
// empty string yields nil (caller-defined defaults).
func intList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", p, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("values must be >= 0, got %d", v)
		}
		out = append(out, v)
	}
	return out, nil
}

// reportGrid is the grid -report serializes: the main figure grid when
// it runs (mainFigureGrid), otherwise the last grid any experiment built.
var reportGrid, mainFigureGrid *ladder.Grid

// lifetimeStudy holds the decoder lifetime sweep when it ran, for
// -report under -exp lifetime.
var lifetimeStudy *ladder.LifetimeStudy

// lg is the process logger (-log-format), set before any experiment
// runs; fail routes every fatal error through it.
var lg *slog.Logger

func fail(err error) {
	lg.Error("experiment failed", "err", err)
	os.Exit(1)
}

// must returns v, or fails the run on err.
func must[T any](v T, err error) T {
	if err != nil {
		fail(err)
	}
	return v
}

// checkInterrupt fails the run once SIGINT/SIGTERM has canceled runCtx.
func checkInterrupt() {
	if runCtx.Err() != nil {
		fail(fmt.Errorf("interrupted: %w", runCtx.Err()))
	}
}

// gridProgress, when -http is set, publishes each grid or study notice
// (a cell completion or a running cell's snapshot) to the introspection
// server; it rides in every run's Options.
var gridProgress func(ladder.GridProgress)

func mustGrid(opts ladder.Options, schemes []string) *ladder.Grid {
	reportGrid = must(ladder.RunGridCtx(runCtx, opts, schemes))
	return reportGrid
}

func printRows(title string, rows []sim.Row, series []string) {
	fmt.Println("\n" + title)
	fmt.Printf("%-10s", "workload")
	for _, s := range series {
		fmt.Printf("%*s", colWidth(s), s)
	}
	fmt.Println()
	all := append(append([]sim.Row(nil), rows...), ladder.Average(rows))
	for _, r := range all {
		fmt.Printf("%-10s", r.Workload)
		for _, s := range series {
			fmt.Printf("%*.3f", colWidth(s), r.Values[s])
		}
		fmt.Println()
	}
}

func colWidth(s string) int {
	if w := len(s) + 2; w > 9 {
		return w
	}
	return 9
}

func printEnergy(grid *ladder.Grid) {
	fmt.Println("\nFigure 17 — dynamic memory energy normalized to baseline (read+write split)")
	schemes := []string{ladder.SchemeSplitReset, ladder.SchemeBLP, ladder.SchemeBasic, ladder.SchemeEst, ladder.SchemeHybrid}
	fmt.Printf("%-10s", "workload")
	for _, s := range schemes {
		fmt.Printf("%*s", colWidth(s), s)
	}
	fmt.Println("   (each cell: total = read+write)")
	splits := grid.DynamicEnergy()
	totals := make(map[string]float64)
	for _, es := range splits {
		fmt.Printf("%-10s", es.Workload)
		for _, s := range schemes {
			t := es.Read[s] + es.Write[s]
			totals[s] += t
			fmt.Printf("%*.3f", colWidth(s), t)
		}
		fmt.Println()
	}
	fmt.Printf("%-10s", "AVG")
	for _, s := range schemes {
		fmt.Printf("%*.3f", colWidth(s), totals[s]/float64(len(splits)))
	}
	fmt.Println()
}

func printTable4() {
	fmt.Println("\nTable 4 — LADDER controller hardware overhead (published synthesis results)")
	fmt.Printf("%-32s %10s %10s %10s\n", "module", "area mm2", "power mW", "latency ns")
	for _, m := range ladder.ControllerOverheads() {
		fmt.Printf("%-32s %10.4f %10.2f %10.2f\n", m.Name, m.AreaMM2, m.PowerMW, m.LatencyNs)
	}
	fmt.Printf("on-chip timing tables: %d bytes\n", core.TimingTableBytes)
}

func printStorage() {
	basic, est, hybrid := ladder.MetadataOverheads()
	fmt.Println("\nSection 6.3 — LRS-metadata storage overhead (fraction of capacity)")
	fmt.Printf("%-16s %8.4f%%  (paper: 3.12%%)\n", "LADDER-Basic", 100*basic)
	fmt.Printf("%-16s %8.4f%%  (paper: 1.56%%)\n", "LADDER-Est", 100*est)
	fmt.Printf("%-16s %8.4f%%  (paper: 0.97%%; see EXPERIMENTS.md)\n", "LADDER-Hybrid", 100*hybrid)
}

func printLatencyModel(want func(string) bool) {
	ts := must(ladder.DefaultTables())
	params := ladder.DefaultCrossbarParams()
	gran := params.N / timing.Buckets
	if want("fig4") {
		fmt.Println("\nFigure 4b — RESET latency (ns) vs WL LRS percentage, near and far cells")
		near := ts.ContentCurve(0, 0)
		far := ts.ContentCurve(params.N-1, params.N-1)
		var b strings.Builder
		fmt.Fprintf(&b, "%-10s %10s %10s\n", "WL LRS %", "near", "far")
		for cb := 0; cb < timing.Buckets; cb++ {
			pct := float64((cb+1)*gran) / float64(params.N) * 100
			fmt.Fprintf(&b, "%-10.0f %10.1f %10.1f\n", pct, near[cb], far[cb])
		}
		fmt.Print(b.String())
	}
	if want("fig11") {
		for _, c := range []struct {
			name   string
			bucket int
		}{{"all-0s", 0}, {"all-1s", timing.Buckets - 1}} {
			fmt.Printf("\nFigure 11 — latency surface (ns), WL pattern %s\n", c.name)
			s := ts.Surface(c.bucket)
			keys := make([]int, 0, timing.Buckets)
			for i := 0; i < timing.Buckets; i++ {
				keys = append(keys, (i+1)*gran-1)
			}
			sort.Ints(keys)
			fmt.Printf("%-8s", "WL\\BL")
			for _, k := range keys {
				fmt.Printf("%8d", k)
			}
			fmt.Println()
			for wb := 0; wb < timing.Buckets; wb++ {
				fmt.Printf("%-8d", keys[wb])
				for bb := 0; bb < timing.Buckets; bb++ {
					fmt.Printf("%8.1f", s[wb][bb])
				}
				fmt.Println()
			}
		}
	}
}
