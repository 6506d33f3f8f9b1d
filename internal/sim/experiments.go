package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"ladder/internal/core"
	"ladder/internal/remap"
	"ladder/internal/reram"
	"ladder/internal/timing"
	"ladder/internal/trace"
)

// Options scopes an experiment run.
type Options struct {
	// Instr is the per-core instruction budget (0 = 200k).
	Instr uint64
	// Seed makes the experiment deterministic.
	Seed int64
	// Tables overrides the timing tables (nil = full 512×512 set).
	Tables *timing.TableSet
	// Workloads restricts the workload list (nil = all sixteen).
	Workloads []string
	// Jobs bounds how many cells of a grid or study simulate
	// concurrently (0 = runtime.NumCPU()). Each cell is an independent
	// run with its own store, Env and metrics registry, so any Jobs value
	// produces the same Grid and the same study rows; grid reports are
	// byte-identical across Jobs settings once volatile wall-clock fields
	// are stripped (GridReport.StripVolatile). Jobs=1 recovers fully
	// sequential execution.
	Jobs int
	// Progress, when set, receives the grid's notices: one completion
	// notice after each grid or study cell finishes (successfully or not;
	// LifetimeSweep runs two rounds, each counting Done from 1), and the
	// running cells' in-cell snapshots every ProgressEvery cycles
	// (GridProgress.Cell set). Invocations are serialized under the
	// pool's mutex — the callback is never entered concurrently, so
	// consumers need no locking of their own — but it runs on worker
	// goroutines and must stay cheap; a slow callback stalls the cells.
	Progress func(GridProgress)
	// ProgressEvery is the in-cell snapshot period, forwarded unchanged
	// to each cell's Config.ProgressEvery (0 = the run default, negative
	// = no in-cell snapshots, completion notices only). Only meaningful
	// with Progress set.
	ProgressEvery int64
	// FaultSeed, RetryMax and SpareRows forward to every cell's Config
	// under its knob convention (0 = default, negative = off); runs
	// without a fault rate or decoder ignore them.
	FaultSeed int64
	RetryMax  int
	SpareRows int
	// TimelineInterval forwards the timeline sampler period to every
	// cell (see Config.TimelineInterval); the grid report merges the
	// per-cell series into one grid-level timeline.
	TimelineInterval uint64
}

// GridProgress is one notice from a running grid or study: a cell
// finished (Cell nil), or a running cell's in-cell snapshot (Cell set).
// Delivery is serialized (see Options.Progress): consumers never observe
// two callbacks at once, and Done never decreases across one pool run's
// callbacks — though with Jobs > 1 the (Workload, Scheme) completion
// order varies run to run. Study cells that share a (Workload, Scheme)
// pair differ only in the study's swept knob.
type GridProgress struct {
	// Done cells out of Total have finished (including failures).
	Done, Total int
	// Workload and Scheme identify the cell the notice is about.
	Workload, Scheme string
	// Failed marks a finished cell whose run returned an error.
	Failed bool
	// Cell is the running cell's snapshot on an in-cell notice, nil on a
	// completion notice.
	Cell *ProgressInfo `json:"cell,omitempty"`
}

func (o Options) workloads() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return trace.AllWorkloads()
}

func (o Options) config(workload, scheme string) Config {
	return Config{
		Workload:         workload,
		Scheme:           scheme,
		InstrPerCore:     o.Instr,
		Seed:             o.Seed,
		Tables:           o.Tables,
		ProgressEvery:    o.ProgressEvery,
		FaultSeed:        o.FaultSeed,
		RetryMax:         o.RetryMax,
		SpareRows:        o.SpareRows,
		TimelineInterval: o.TimelineInterval,
	}
}

// Grid holds results for every (workload, scheme) pair of an experiment.
type Grid struct {
	Workloads []string
	Schemes   []string
	// Results[workload][scheme]
	Results map[string]map[string]*Result
}

// jobs resolves the worker-pool width.
func (o Options) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.NumCPU()
}

// RunGrid simulates every workload under every scheme. Runs are
// independent (each builds its own memory image), so they execute on a
// worker pool sized by Options.Jobs (default: one worker per CPU).
func RunGrid(opts Options, schemes []string) (*Grid, error) {
	return RunGridCtx(context.Background(), opts, schemes)
}

// RunGridCtx is RunGrid under a context; cancellation, failure, panic
// isolation and determinism follow runCells. A canceled grid is returned
// as an error, never as a silently partial result. Scheme names resolve
// to their registered spelling before any cell runs, so Grid.Schemes,
// the Results keys and report labels agree, and an unknown name fails
// up front.
func RunGridCtx(ctx context.Context, opts Options, schemes []string) (*Grid, error) {
	schemes = append([]string(nil), schemes...)
	for i, name := range schemes {
		canon, err := core.CanonicalScheme(name)
		if err != nil {
			return nil, err
		}
		schemes[i] = canon
	}
	res, err := runVariants(ctx, opts, "", sweep(schemes, func(c *Config, s string) { c.Scheme = s })...)
	if err != nil {
		return nil, err
	}
	g := &Grid{Workloads: opts.workloads(), Schemes: schemes, Results: make(map[string]map[string]*Result)}
	for i, w := range g.Workloads {
		g.Results[w] = make(map[string]*Result, len(schemes))
		for j, s := range schemes {
			g.Results[w][s] = res[i][j]
		}
	}
	return g, nil
}

// runVariants runs every workload under every variant: cell [i][j] is
// workload i's config for scheme, edited by variants[j]. Grids and
// studies are such lists; a study then reduces the cells in the order
// its rows accumulate them, so float sums and merges do not depend on
// completion order.
func runVariants(ctx context.Context, opts Options, scheme string, variants ...func(*Config)) ([][]*Result, error) {
	ws := opts.workloads()
	cfgs := make([]Config, 0, len(ws)*len(variants))
	for _, w := range ws {
		for _, v := range variants {
			cfg := opts.config(w, scheme)
			v(&cfg)
			cfgs = append(cfgs, cfg)
		}
	}
	flat, err := runCells(ctx, opts, cfgs)
	if err != nil {
		return nil, err
	}
	out := make([][]*Result, len(ws))
	for i := range out {
		out[i] = flat[i*len(variants) : (i+1)*len(variants)]
	}
	return out, nil
}

// runCells is the executor every grid and study cell runs through: it
// simulates cfgs on a worker pool sized by Options.Jobs and returns the
// results in input order. Once ctx is canceled — or any cell fails — no
// further cell is dispatched, already-running cells abort at their next
// engine step (see RunCtx; a cell never stops mid-cycle), and every
// failure is reported via errors.Join alongside the context's error.
//
// Workers are panic-isolated: a panicking scheme or workload converts
// to that cell's error (a *PanicError carrying the stack) and joins the
// other failures instead of crashing the process.
//
// Determinism: each cell runs with its own metrics registry and memory
// image and lands in its input slot regardless of completion order, so
// the results are independent of Options.Jobs and of scheduling. Every
// Options.Progress notice, completion or in-cell, is delivered under the
// pool's mutex, so notices never run concurrently and Done never
// decreases.
func runCells(ctx context.Context, opts Options, cfgs []Config) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	// A cell failure cancels runCtx so queued cells never dispatch; the
	// caller's ctx flows through, so external cancellation behaves the
	// same way.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		mu      sync.Mutex // guards runErrs, done; serializes Options.Progress
		runErrs []error
		done    int
		wg      sync.WaitGroup
	)
	sem := make(chan struct{}, opts.jobs())
	for i := range cfgs {
		if runCtx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			cfg := cfgs[i]
			if opts.Progress != nil {
				cfg.Observe = func(e Event) {
					if e.Progress == nil {
						return
					}
					mu.Lock()
					defer mu.Unlock()
					opts.Progress(GridProgress{Done: done, Total: len(cfgs), Workload: cfg.Workload, Scheme: cfg.Scheme, Cell: e.Progress})
				}
			}
			res, err := runCell(runCtx, cfg)
			results[i] = res
			mu.Lock()
			defer mu.Unlock()
			done++
			if err != nil {
				// Collect every cell's failure (cells are independent, so
				// one bad workload name should not mask another's error);
				// errors.Join reports them all. The cancel stops queued
				// cells from dispatching after the first failure.
				runErrs = append(runErrs, fmt.Errorf("running %s/%s: %w", cfg.Workload, cfg.Scheme, err))
				cancel()
			}
			if opts.Progress != nil {
				opts.Progress(GridProgress{Done: done, Total: len(cfgs), Workload: cfg.Workload, Scheme: cfg.Scheme, Failed: err != nil})
			}
		}(i)
	}
	wg.Wait()
	if ctx.Err() != nil {
		runErrs = append(runErrs, fmt.Errorf("experiment canceled: %w", ctx.Err()))
	}
	if err := errors.Join(runErrs...); err != nil {
		return nil, err
	}
	return results, nil
}

// Baseline returns a workload's baseline result; RunGrid callers must
// include SchemeBaseline for the normalized views to work.
func (g *Grid) baseline(workload string) *Result {
	return g.Results[workload][SchemeBaseline]
}

// Row is one workload's series values keyed by scheme (or series name).
type Row struct {
	Workload string
	Values   map[string]float64
}

// rows applies a per-result metric, normalized by the baseline metric
// when norm is set.
func (g *Grid) rows(metric func(*Result) float64, norm bool) []Row {
	out := make([]Row, 0, len(g.Workloads))
	for _, w := range g.Workloads {
		r := Row{Workload: w, Values: make(map[string]float64)}
		base := 1.0
		if norm {
			base = metric(g.baseline(w))
		}
		for _, s := range g.Schemes {
			v := metric(g.Results[w][s])
			if norm && base > 0 {
				v /= base
			}
			r.Values[s] = v
		}
		out = append(out, r)
	}
	return out
}

// Average appends an AVG row (arithmetic mean across workloads).
func Average(rows []Row) Row {
	avg := Row{Workload: "AVG", Values: make(map[string]float64)}
	if len(rows) == 0 {
		return avg
	}
	for _, r := range rows {
		for k, v := range r.Values {
			avg.Values[k] += v
		}
	}
	for k := range avg.Values {
		avg.Values[k] /= float64(len(rows))
	}
	return avg
}

// WriteServiceTime derives Figure 12: average write service time
// normalized to baseline.
func (g *Grid) WriteServiceTime() []Row {
	return g.rows(func(r *Result) float64 { return r.Stats.AvgWriteServiceNs() }, true)
}

// ReadLatency derives Figure 13: average processor read latency
// (queuing + service) normalized to baseline.
func (g *Grid) ReadLatency() []Row {
	return g.rows(func(r *Result) float64 { return r.Stats.AvgReadLatencyNs() }, true)
}

// ExtraReads and ExtraWrites derive Figure 14: metadata/SMB traffic
// relative to the baseline's data traffic.
func (g *Grid) ExtraReads() []Row {
	return g.rows(func(r *Result) float64 { return r.Stats.ExtraReadFraction() }, false)
}

// ExtraWrites derives Figure 14b.
func (g *Grid) ExtraWrites() []Row {
	return g.rows(func(r *Result) float64 { return r.Stats.ExtraWriteFraction() }, false)
}

// Speedup derives Figures 2 and 16: weighted speedup over baseline.
func (g *Grid) Speedup() []Row {
	out := make([]Row, 0, len(g.Workloads))
	for _, w := range g.Workloads {
		base := g.baseline(w)
		r := Row{Workload: w, Values: make(map[string]float64)}
		for _, s := range g.Schemes {
			r.Values[s] = g.Results[w][s].WeightedSpeedup(base)
		}
		out = append(out, r)
	}
	return out
}

// EnergySplit is one workload's dynamic-energy breakdown per scheme,
// normalized to the baseline total (Figure 17).
type EnergySplit struct {
	Workload string
	// Read and Write are normalized energies keyed by scheme.
	Read, Write map[string]float64
}

// DynamicEnergy derives Figure 17.
func (g *Grid) DynamicEnergy() []EnergySplit {
	out := make([]EnergySplit, 0, len(g.Workloads))
	for _, w := range g.Workloads {
		base := g.baseline(w)
		total := base.ReadNJ + base.WriteNJ
		es := EnergySplit{Workload: w, Read: map[string]float64{}, Write: map[string]float64{}}
		for _, s := range g.Schemes {
			r := g.Results[w][s]
			if total > 0 {
				es.Read[s] = r.ReadNJ / total
				es.Write[s] = r.WriteNJ / total
			}
		}
		out = append(out, es)
	}
	return out
}

// CounterDiffs derives Figure 15: the mean (estimated − accurate) C_lrs
// gap for LADDER-Est without (a) and with (b) intra-line shifting. The
// grid must include SchemeEst and SchemeEstNoShift.
func (g *Grid) CounterDiffs() []Row {
	out := make([]Row, 0, len(g.Workloads))
	for _, w := range g.Workloads {
		r := Row{Workload: w, Values: make(map[string]float64)}
		if res := g.Results[w][SchemeEstNoShift]; res != nil {
			r.Values["without-shift"] = res.Stats.AvgCounterDiff()
		}
		if res := g.Results[w][SchemeEst]; res != nil {
			r.Values["with-shift"] = res.Stats.AvgCounterDiff()
		}
		out = append(out, r)
	}
	return out
}

// RelativeLifetime derives Section 6.4's lifetime comparison: lifetime
// under ideal wear leveling scales inversely with total write traffic
// (data + metadata maintenance).
func (g *Grid) RelativeLifetime() []Row {
	return g.rows(func(r *Result) float64 {
		total := float64(r.Stats.DataWrites + r.Stats.MetaWrites)
		if total == 0 {
			return 1
		}
		return float64(r.Stats.DataWrites) / total
	}, false)
}

// FNWCancellation derives the Section 6.1 datum: the fraction of FNW
// flip opportunities canceled by LADDER's ones constraint (reported <4%).
func (g *Grid) FNWCancellation() []Row {
	return g.rows(func(r *Result) float64 {
		if r.Stats.FNWUnits == 0 {
			return 0
		}
		return float64(r.Stats.FNWCanceled) / float64(r.Stats.FNWUnits)
	}, false)
}

// noEdit is the variant that runs a study's config unchanged.
func noEdit(*Config) {}

// sweep makes one variant per value, each applying set with its value.
func sweep[T any](values []T, set func(*Config, T)) []func(*Config) {
	out := make([]func(*Config), len(values))
	for j, v := range values {
		out[j] = func(c *Config) { set(c, v) }
	}
	return out
}

// runStudy runs a per-workload study on the pool: every workload under
// every variant, then reduce turns each workload's cells (in variant
// order) into that workload's row values.
func runStudy(opts Options, scheme string, variants []func(*Config), reduce func(cells []*Result) map[string]float64) ([]Row, error) {
	runs, err := runVariants(context.TODO(), opts, scheme, variants...)
	if err != nil {
		return nil, err
	}
	out := make([]Row, len(runs))
	for i, w := range opts.workloads() {
		out[i] = Row{Workload: w, Values: reduce(runs[i])}
	}
	return out, nil
}

// RangeAblation runs Section 7's process-variation study: it reports the
// fraction of a scheme's speedup retained when the timing tables' dynamic
// range shrinks by `factor` (the paper: 2× shrink retains ~85% on
// average).
func RangeAblation(opts Options, scheme string, factor float64) ([]Row, error) {
	baseline := func(c *Config) { c.Scheme = SchemeBaseline }
	shrink := func(c *Config) { c.ShrinkRange = factor }
	variants := []func(*Config){baseline, noEdit, func(c *Config) { baseline(c); shrink(c) }, shrink}
	return runStudy(opts, scheme, variants, func(r []*Result) map[string]float64 {
		gainFull := r[1].WeightedSpeedup(r[0]) - 1
		gainShr := r[3].WeightedSpeedup(r[2]) - 1
		retained := 0.0
		if gainFull > 0 {
			retained = gainShr / gainFull
		}
		return map[string]float64{
			"gain-full":   gainFull,
			"gain-shrunk": gainShr,
			"retained":    retained,
		}
	})
}

// CrashRecoveryStudy runs Section 7's crash-consistency scenario: a power
// failure halfway through the run loses cached LRS-metadata, the lazy
// conservative correction overwrites the region with maximum values, and
// execution resumes. Reported per workload: average write service before
// and after the crash, and the post-crash counter gap (how conservative
// the corrected metadata still is on average).
func CrashRecoveryStudy(opts Options, scheme string) ([]Row, error) {
	crash := func(c *Config) {
		c.CrashAtInstr = c.InstrPerCore / 2
		if c.CrashAtInstr == 0 {
			c.CrashAtInstr = 100_000
		}
	}
	return runStudy(opts, scheme, []func(*Config){crash}, func(r []*Result) map[string]float64 {
		v := map[string]float64{}
		if pre, post := r[0].PreCrashStats, r[0].PostCrashStats; pre != nil && post != nil {
			v["pre-service-ns"] = pre.AvgWriteServiceNs()
			v["post-service-ns"] = post.AvgWriteServiceNs()
			v["post-counter-gap"] = post.AvgCounterDiff()
		}
		return v
	})
}

// VWLModeComparison contrasts segment-based and line-based vertical wear
// leveling under a LADDER scheme (Section 6.4's locality argument):
// line-granularity scatter breaks the page→metadata-line association, so
// metadata reads per data write rise and IPC falls.
func VWLModeComparison(opts Options, scheme string) ([]Row, error) {
	modes := []string{"segment", "line"}
	variants := sweep(modes, func(c *Config, mode string) {
		c.WearLeveling = true
		c.VWLMode = mode
	})
	return runStudy(opts, scheme, variants, func(r []*Result) map[string]float64 {
		v := map[string]float64{}
		for j, mode := range modes {
			metaPerWrite := 0.0
			if r[j].Stats.DataWrites > 0 {
				metaPerWrite = float64(r[j].Stats.MetaReads) / float64(r[j].Stats.DataWrites)
			}
			v[mode+"-ipc"] = r[j].AvgIPC()
			v[mode+"-metareads"] = metaPerWrite
		}
		return v
	})
}

// CacheSizeSweep runs the metadata-cache ablation the paper mentions in
// Section 6.3 ("marginal system performance gain when increasing cache
// size (<2%)"): the scheme runs with a range of LRS-metadata cache sizes
// and reports IPC relative to the default 64 KB configuration.
func CacheSizeSweep(opts Options, scheme string, sizesKB []int) ([]Row, error) {
	if len(sizesKB) == 0 {
		sizesKB = []int{16, 32, 64, 128, 256}
	}
	// Variant 0 is the default-cache reference; variant j+1 is sizesKB[j].
	variants := append([]func(*Config){noEdit}, sweep(sizesKB, func(c *Config, kb int) {
		c.MetaCache = core.MetaCacheConfig{SizeBytes: kb << 10, Ways: 4, SpillSize: 16}
	})...)
	return runStudy(opts, scheme, variants, func(r []*Result) map[string]float64 {
		v := map[string]float64{}
		for j, kb := range sizesKB {
			rel := 0.0
			if r[0].AvgIPC() > 0 {
				rel = r[j+1].AvgIPC() / r[0].AvgIPC()
			}
			v[fmt.Sprintf("%dKB", kb)] = rel
		}
		return v
	})
}

// LowPrecisionSweep ablates LADDER-Hybrid's precision control register:
// how many driver-near rows use 1-bit counters. 0 degenerates to
// LADDER-Est; MatRows makes everything low-precision. Reported: average
// write service time (ns) and metadata reads per data write.
func LowPrecisionSweep(opts Options, rows []int) ([]Row, error) {
	if len(rows) == 0 {
		rows = []int{0, 64, 128, 256, 512}
	}
	variants := sweep(rows, func(c *Config, n int) {
		c.HybridLowRows = n
		if n == 0 {
			c.HybridLowRows = -1
		}
	})
	return runStudy(opts, SchemeHybrid, variants, func(r []*Result) map[string]float64 {
		v := map[string]float64{}
		for j, n := range rows {
			v[fmt.Sprintf("rows=%d svc", n)] = r[j].Stats.AvgWriteServiceNs()
		}
		return v
	})
}

// ReliabilitySweep runs the write-fault reliability study: every
// workload runs under each scheme at each base fault rate (same fault
// seed), and the reported value is program-and-verify retries per 1000
// data writes, keyed "scheme@rate". The sweep exposes the stale-metadata
// margin effect: LADDER-Est's conservative partial-counter bounds
// program surplus latency margin, whose over-RESET stress draws more
// verify failures than LADDER-Basic's exact zero-margin counters (see
// docs/FAULTS.md). Nil schemes/rates select the defaults.
func ReliabilitySweep(opts Options, schemes []string, rates []float64) ([]Row, error) {
	if len(schemes) == 0 {
		schemes = []string{SchemeBasic, SchemeEst, SchemeHybrid}
	}
	if len(rates) == 0 {
		rates = []float64{0.001, 0.01}
	}
	// Variants are scheme-major, rate-minor; each names its own scheme.
	var variants []func(*Config)
	var keys []string
	for _, s := range schemes {
		for _, rate := range rates {
			variants = append(variants, func(c *Config) { c.Scheme, c.FaultRate = s, rate })
			keys = append(keys, fmt.Sprintf("%s@%g", s, rate))
		}
	}
	return runStudy(opts, "", variants, func(r []*Result) map[string]float64 {
		v := map[string]float64{}
		for j, key := range keys {
			v[key] = 0
			if r[j].Faults != nil && r[j].Stats.DataWrites > 0 {
				v[key] = 1000 * float64(r[j].Faults.Retries) / float64(r[j].Stats.DataWrites)
			}
		}
		return v
	})
}

// LifetimeCell is one (gap-move period, spare-pool size) combination's
// outcome in a LifetimeSweep, averaged across the study's workloads.
type LifetimeCell struct {
	GapPeriod int `json:"gap_period"`
	SpareRows int `json:"spare_rows"`
	// RelativeLifetime is the modeled device lifetime relative to the
	// unleveled, spare-less baseline (see relativeLifetime).
	RelativeLifetime float64 `json:"relative_lifetime"`
	// IPCRatio is measured performance relative to the baseline run:
	// the cost side of the lifetime trade.
	IPCRatio float64 `json:"ipc_ratio"`
	// GapMoves and SpareRemaps total the decoder activity across the
	// cell's workload runs.
	GapMoves    uint64 `json:"gap_moves"`
	SpareRemaps uint64 `json:"spare_remaps"`
}

// LifetimeStudy is the lifetime-vs-overhead sweep over the programmable
// decoder's two sizing knobs: how often the start gap moves and how many
// spare rows each bank holds.
type LifetimeStudy struct {
	Scheme     string
	Workloads  []string
	GapPeriods []int
	SpareRows  []int
	// Cells are ordered gap-period-major, spare-pool-minor.
	Cells []LifetimeCell
	// Remap merges the decoder accounting of every leveled run in the
	// sweep.
	Remap remap.Stats
}

// relativeLifetime is the study's first-order endurance model over
// measured quantities. The simulator's vertical wear leveling is
// timing-only — store writes stay keyed by logical line — so leveling
// cannot be read off MaxRowWrites directly; instead the hottest row is
// interpolated toward the mean by the fraction of completed start-gap
// rotations:
//
//	rotations = gapMoves / (segments + 1)   // full map rotations
//	leveled   = rotations / (rotations + 1) // asymptotically → 1
//	effMax    = avgRow + (maxRow − avgRow)·(1 − leveled)
//
// Gap moves add maintenance write traffic (one segment copy per move,
// charged as one maintenance write here), and the spare pool adds raw
// row capacity the device fails over to, so the reported ratio is
//
//	(baseMax / effMax) / overhead · (1 + spares·banks/touchedRows)
//
// Study cells run the default geometry (Options does not set one) and
// vwlSegmentRows-row segments.
func relativeLifetime(base, res *Result, spares int) float64 {
	touched := float64(res.TouchedRows)
	total := float64(res.TotalStoreWrites)
	if touched == 0 || total == 0 {
		return 1
	}
	geom := reram.DefaultGeometry()
	segments := float64(geom.Rows()/vwlSegmentRows) + 1
	gapMoves := float64(res.gapMoves())
	rotations := gapMoves / (segments + 1)
	leveled := rotations / (rotations + 1)
	avgRow := total / touched
	effMax := avgRow + (float64(res.MaxRowWrites)-avgRow)*(1-leveled)
	if effMax <= 0 {
		return 1
	}
	overhead := (total + gapMoves) / total
	spareFactor := 1 + float64(spares)*float64(geom.Banks())/touched
	return float64(base.MaxRowWrites) / effMax / overhead * spareFactor
}

// LifetimeSweep runs the lifetime study the decoder refactor enables:
// every workload runs once without leveling (the endurance baseline)
// and once per (gap period, spare pool) combination with segment VWL,
// spare remapping and proactive wear-limit retirement enabled — the
// limit auto-scaled to half the workload's observed hottest-row count so
// short runs still exercise the retirement path. Reported per cell:
// modeled relative lifetime and measured IPC ratio (the trade the paper
// prices at ~3% write overhead), averaged across workloads. Nil period
// and spare lists select the defaults.
func LifetimeSweep(opts Options, scheme string, periods, spares []int) (*LifetimeStudy, error) {
	if len(periods) == 0 {
		periods = []int{64, 128, 256}
	}
	if len(spares) == 0 {
		spares = []int{0, 16, 32}
	}
	study := &LifetimeStudy{
		Scheme:     scheme,
		Workloads:  opts.workloads(),
		GapPeriods: periods,
		SpareRows:  spares,
	}
	// Two rounds: each leveled cell's wear limit derives from its
	// workload's baseline, so the baselines run first.
	baseRuns, err := runVariants(context.TODO(), opts, scheme, noEdit)
	if err != nil {
		return nil, fmt.Errorf("lifetime baseline: %w", err)
	}
	bases := make(map[string]*Result, len(study.Workloads))
	for i, w := range study.Workloads {
		bases[w] = baseRuns[i][0]
	}
	// One variant per cell, gap-period-major, spare-pool-minor.
	var variants []func(*Config)
	for _, p := range periods {
		for _, sp := range spares {
			study.Cells = append(study.Cells, LifetimeCell{GapPeriod: p, SpareRows: sp})
			variants = append(variants, func(c *Config) {
				c.WearLeveling = true
				c.VWLPeriod = p
				c.SpareRows = sp
				if sp == 0 {
					c.SpareRows = -1 // explicit "no spares", not the default pool
				}
				c.ProactiveWearLimit = bases[c.Workload].MaxRowWrites/2 + 1
			})
		}
	}
	runs, err := runVariants(context.TODO(), opts, scheme, variants...)
	if err != nil {
		return nil, fmt.Errorf("lifetime: %w", err)
	}
	for j := range study.Cells {
		cell := &study.Cells[j]
		for i, w := range study.Workloads {
			base, res := bases[w], runs[i][j]
			var st remap.Stats
			if res.Remap != nil {
				st = *res.Remap
			}
			study.Remap.Merge(st)
			cell.GapMoves += st.GapMoves
			cell.SpareRemaps += st.SpareRemaps
			cell.RelativeLifetime += relativeLifetime(base, res, cell.SpareRows)
			if base.AvgIPC() > 0 {
				cell.IPCRatio += res.AvgIPC() / base.AvgIPC()
			}
		}
		n := float64(len(study.Workloads))
		cell.RelativeLifetime /= n
		cell.IPCRatio /= n
	}
	return study, nil
}

// Series lists the sweep's printable column keys in cell order:
// "spares=N life" then "spares=N ipc" for each spare-pool size.
func (s *LifetimeStudy) Series() []string {
	out := make([]string, 0, 2*len(s.SpareRows))
	for _, sp := range s.SpareRows {
		out = append(out, fmt.Sprintf("spares=%d life", sp))
	}
	for _, sp := range s.SpareRows {
		out = append(out, fmt.Sprintf("spares=%d ipc", sp))
	}
	return out
}

// Rows renders the study for the experiment text printer: one row per
// gap period, columns per Series.
func (s *LifetimeStudy) Rows() []Row {
	byKey := make(map[[2]int]LifetimeCell, len(s.Cells))
	for _, c := range s.Cells {
		byKey[[2]int{c.GapPeriod, c.SpareRows}] = c
	}
	out := make([]Row, 0, len(s.GapPeriods))
	for _, p := range s.GapPeriods {
		r := Row{Workload: fmt.Sprintf("gap=%d", p), Values: make(map[string]float64)}
		for _, sp := range s.SpareRows {
			c := byKey[[2]int{p, sp}]
			r.Values[fmt.Sprintf("spares=%d life", sp)] = c.RelativeLifetime
			r.Values[fmt.Sprintf("spares=%d ipc", sp)] = c.IPCRatio
		}
		out = append(out, r)
	}
	return out
}

// WearLevelingImpact runs Section 6.4's performance check: the IPC cost
// of enabling segment-based VWL under a LADDER scheme.
func WearLevelingImpact(opts Options, scheme string) ([]Row, error) {
	variants := []func(*Config){noEdit, func(c *Config) { c.WearLeveling = true }}
	return runStudy(opts, scheme, variants, func(r []*Result) map[string]float64 {
		plain, wl := r[0], r[1]
		ratio := 0.0
		if plain.AvgIPC() > 0 {
			ratio = wl.AvgIPC() / plain.AvgIPC()
		}
		return map[string]float64{
			"ipc-ratio": ratio,
			"gap-moves": float64(wl.gapMoves()),
		}
	})
}
