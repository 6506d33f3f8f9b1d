package main

import (
	"encoding/json"
	"fmt"
	"time"

	"ladder"
	"ladder/internal/timing"
)

// paperInstr is paper-eval's per-core instruction budget: the default of
// `experiments -exp all`.
const paperInstr = 150_000

// studySubset is the workload subset experiments runs its lighter
// studies on.
var studySubset = []string{"lbm", "mcf", "mix-7"}

// paperGrid is one experiment grid paper-eval runs.
type paperGrid struct {
	name    string
	opts    ladder.Options
	schemes []string
	grid    *ladder.Grid
	wall    time.Duration
}

// paperStudy is one Section 6/7 study: run returns its output rows in a
// JSON-encodable form.
type paperStudy struct {
	name string
	run  func(opts ladder.Options, scheme func(string) string) (any, error)
}

// paperStudies lists the eight studies with the arguments `experiments
// -exp all` passes them. scheme maps a scheme name to the one to run
// (the timing wrapper's name in a traced run). LowPrecisionSweep takes
// no scheme and always runs the unwrapped LADDER-Hybrid, because the
// simulator sets its precision register only on that concrete type.
var paperStudies = []paperStudy{
	{"ablation", func(o ladder.Options, m func(string) string) (any, error) {
		return ladder.RangeAblation(o, m(ladder.SchemeEst), 2)
	}},
	{"wear", func(o ladder.Options, m func(string) string) (any, error) {
		return ladder.WearLevelingImpact(o, m(ladder.SchemeHybrid))
	}},
	{"lifetime", func(o ladder.Options, m func(string) string) (any, error) {
		o.Workloads = studySubset
		st, err := ladder.LifetimeSweep(o, m(ladder.SchemeHybrid), nil, nil)
		if err != nil {
			return nil, err
		}
		return st.Report(), nil
	}},
	{"vwlmode", func(o ladder.Options, m func(string) string) (any, error) {
		return ladder.VWLModeComparison(o, m(ladder.SchemeEst))
	}},
	{"crash", func(o ladder.Options, m func(string) string) (any, error) {
		return ladder.CrashRecoveryStudy(o, m(ladder.SchemeEst))
	}},
	{"cachesize", func(o ladder.Options, m func(string) string) (any, error) {
		o.Workloads = studySubset
		return ladder.CacheSizeSweep(o, m(ladder.SchemeHybrid), nil)
	}},
	{"reliability", func(o ladder.Options, m func(string) string) (any, error) {
		o.Workloads = studySubset
		o.RetryMax, o.SpareRows = 3, 32
		schemes := []string{m(ladder.SchemeBasic), m(ladder.SchemeEst), m(ladder.SchemeHybrid)}
		return ladder.ReliabilitySweep(o, schemes, []float64{0.001, 0.01})
	}},
	{"lowrows", func(o ladder.Options, _ func(string) string) (any, error) {
		o.Workloads = studySubset
		return ladder.LowPrecisionSweep(o, nil)
	}},
}

// paperRun is the output of one paper-eval pass.
type paperRun struct {
	grids   []*paperGrid
	studies map[string][]byte
	figures []byte
	wall    time.Duration
}

// runPaperEval makes the calls `experiments -exp all` makes through the
// public API: the analytic tables, the fig2, figure and fig15 grids with
// their derived figures, and the eight studies. With rec non-nil the
// pass is traced: every scheme runs under its timing wrapper and each
// grid and study gets a span under parent.
func runPaperEval(ts *timing.TableSet, seed int64, jobs int, rec *recorder, parent int) (*paperRun, error) {
	mapName := sameName
	if rec != nil {
		mapName = timedName
	}
	opts := ladder.Options{Instr: paperInstr, Seed: seed, Jobs: jobs, Tables: ts}
	out := &paperRun{grids: paperGrids(opts), studies: map[string][]byte{}}
	start := time.Now()
	analytic := analyticTables(ts)
	for _, g := range out.grids {
		names := make([]string, len(g.schemes))
		for i, s := range g.schemes {
			names[i] = mapName(s)
		}
		end := rec.start("sim.grid", parent, g.name)
		t := time.Now()
		grid, err := ladder.RunGrid(g.opts, names)
		g.wall = time.Since(t)
		end()
		if err != nil {
			return nil, fmt.Errorf("grid %s: %w", g.name, err)
		}
		restoreNames(grid)
		g.grid = grid
	}
	figures, err := json.Marshal(map[string]any{"analytic": analytic, "figures": deriveFigures(out.grids)})
	if err != nil {
		return nil, fmt.Errorf("encoding figures: %w", err)
	}
	out.figures = figures
	studiesID := rec.reserve("sim.studies", parent, "")
	studiesStart := rec.now()
	for _, st := range paperStudies {
		end := rec.start("sim.study."+st.name, studiesID, st.name)
		rows, err := st.run(opts, mapName)
		end()
		if err != nil {
			return nil, fmt.Errorf("study %s: %w", st.name, err)
		}
		b, err := json.Marshal(rows)
		if err != nil {
			return nil, fmt.Errorf("encoding study %s: %w", st.name, err)
		}
		out.studies[st.name] = []byte(untimed(string(b)))
	}
	rec.finish(studiesID, studiesStart, rec.now())
	out.wall = time.Since(start)
	return out, nil
}

// paperGrids lists the three grids experiments runs, in its order: the
// fig2 grid over the single-programmed workloads, the figure grid and the
// fig15 grid.
func paperGrids(opts ladder.Options) []*paperGrid {
	fig2 := opts
	fig2.Workloads = ladder.SingleWorkloads()
	return []*paperGrid{
		{name: "fig2", opts: fig2, schemes: []string{ladder.SchemeBaseline, ladder.SchemeLocAware, ladder.SchemeOracle}},
		{name: "main", opts: opts, schemes: ladder.FigureSchemes()},
		{name: "fig15", opts: opts, schemes: []string{ladder.SchemeEstNoShift, ladder.SchemeEst}},
	}
}

// restoreNames renames a grid run under timing wrappers back to the
// wrapped schemes' names, so figure derivations (which look up the
// baseline by name) and report digests see the same grid as an
// untraced run.
func restoreNames(g *ladder.Grid) {
	for i, s := range g.Schemes {
		g.Schemes[i] = untimed(s)
	}
	for w, row := range g.Results {
		renamed := make(map[string]*ladder.Result, len(row))
		for s, res := range row {
			res.Scheme = untimed(res.Scheme)
			renamed[untimed(s)] = res
		}
		g.Results[w] = renamed
	}
}

// analyticTables gathers experiments' cheap analytic outputs: Table 4,
// the metadata storage overheads and the Figure 4b/11 latency surfaces.
func analyticTables(ts *timing.TableSet) map[string]any {
	basic, est, hybrid := ladder.MetadataOverheads()
	p := ladder.DefaultCrossbarParams()
	return map[string]any{
		"table4":  ladder.ControllerOverheads(),
		"storage": []float64{basic, est, hybrid},
		"fig4":    [][]float64{ts.ContentCurve(0, 0), ts.ContentCurve(p.N-1, p.N-1)},
		"fig11":   [][timing.Buckets][timing.Buckets]float64{ts.Surface(0), ts.Surface(timing.Buckets - 1)},
	}
}

// deriveFigures computes every figure experiments prints from the grids.
func deriveFigures(grids []*paperGrid) map[string]any {
	fig2, main, fig15 := grids[0].grid, grids[1].grid, grids[2].grid
	avg := func(rows []ladder.Row) []ladder.Row { return append(rows, ladder.Average(rows)) }
	return map[string]any{
		"fig2":   avg(fig2.Speedup()),
		"fig12":  avg(main.WriteServiceTime()),
		"fig13":  avg(main.ReadLatency()),
		"fig14a": avg(main.ExtraReads()),
		"fig14b": avg(main.ExtraWrites()),
		"fig16":  avg(main.Speedup()),
		"fig17":  main.DynamicEnergy(),
		"fnw":    avg(main.FNWCancellation()),
		"fig15":  avg(fig15.CounterDiffs()),
	}
}

// paperOutputs lists a pass's checked outputs in their canonical order
// with their digests: every grid cell's stripped report, each study's
// rows and the derived figures.
func paperOutputs(run *paperRun) ([]string, []string, error) {
	var names, digests []string
	for _, g := range run.grids {
		for _, w := range g.grid.Workloads {
			for _, s := range g.grid.Schemes {
				res := g.grid.Results[w][s]
				if res == nil {
					return nil, nil, fmt.Errorf("grid %s: missing cell %s/%s", g.name, w, s)
				}
				d, err := reportDigest(res)
				if err != nil {
					return nil, nil, err
				}
				names = append(names, g.name+"/"+w+"/"+s)
				digests = append(digests, d)
			}
		}
	}
	for _, st := range paperStudies {
		names = append(names, "study/"+st.name)
		digests = append(digests, digest(run.studies[st.name]))
	}
	names = append(names, "figures")
	digests = append(digests, digest(run.figures))
	return names, digests, nil
}

// cellFacts sums the grids' cell work counts.
func cellFacts(grids ...*paperGrid) facts {
	var f facts
	for _, g := range grids {
		for _, w := range g.grid.Workloads {
			for _, s := range g.grid.Schemes {
				f.add(resultFacts(g.grid.Results[w][s]))
			}
		}
	}
	return f
}
