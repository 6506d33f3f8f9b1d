package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"ladder"
	"ladder/internal/timing"
)

// bench is one worker's shared state.
type bench struct {
	o    options
	idx  int
	seed int64
	jobs int
	ts   *timing.TableSet
	ref  *reference
	tmp  string
	rec  *recorder
	t    tally
	e2e  *metricSet
	lay  *metricSet
}

// work is a run's worker process: set up cold, run the workload, check
// its outputs and print the result line.
func work(o options) error {
	if err := validate(o); err != nil {
		return err
	}
	os.Unsetenv("LADDER_TABLE_CACHE")
	b := &bench{o: o, idx: refIndex(o.seed), jobs: runtime.NumCPU(),
		e2e: newMetricSet(endToEnd), lay: newMetricSet(perLayer)}
	b.seed = simSeed(b.idx)
	var err error
	if o.trace == 1 {
		registerTimed()
		b.rec = newRecorder()
		b.ts, err = tracedSetup(b.rec)
	} else {
		b.ts, err = timing.DefaultTableSet()
	}
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	fmt.Println(readyLine)
	fmt.Println(provenance(o, b.idx))
	if b.ref, err = loadReference(); err != nil {
		return err
	}
	if b.tmp, err = os.MkdirTemp(os.Getenv("TMPDIR"), "perfbench-"); err != nil {
		return err
	}
	defer os.RemoveAll(b.tmp)

	switch o.workload {
	case "paper-eval":
		err = b.paperEval()
	case "long-write":
		err = b.longWrite()
	case "service-mix":
		err = b.serviceMix()
	}
	if err != nil {
		return err
	}
	metrics := b.e2e
	if o.trace == 1 {
		metrics = b.lay
		b.lay.set("failed_frac", b.t.frac(), b.t.String())
		b.spanReport()
	}
	b.e2e.set("peak_rss_mb", peakRSSMB(), "")
	fmt.Printf("failed_frac: %s\n", b.t)
	for _, r := range b.t.reasons {
		fmt.Println("  failure:", r)
	}
	fmt.Print(metrics.lines())
	out, err := json.Marshal(result{Correct: b.t.failed == 0, Attempted: b.t.attempted, Failed: b.t.failed, Metrics: metrics.out()})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// deadline is when a run stops starting new work.
func (b *bench) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(b.o.seconds * float64(time.Second)))
}

// memDelta measures Go runtime allocation and GC activity around f.
type memDelta struct {
	mallocs, gcs uint64
	pause        time.Duration
}

func measureMem(f func() error) (memDelta, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := f()
	runtime.ReadMemStats(&after)
	return memDelta{
		mallocs: after.Mallocs - before.Mallocs,
		gcs:     uint64(after.NumGC - before.NumGC),
		pause:   time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}, err
}

// setWorkCounts records the exact work counts and per-unit host times of
// a set of cells, and the Go runtime's activity over the untraced body.
func (b *bench) setWorkCounts(f facts, mem memDelta) {
	base := fmt.Sprintf("(%d cells)", f.cells)
	b.lay.set("sim.ticks", float64(f.ticks), base)
	b.lay.set("core.traffic.data_reads", float64(f.reads), base)
	b.lay.set("core.traffic.data_writes", float64(f.writes), base)
	b.lay.set("memctrl.drain_entries", float64(f.drains), base)
	b.lay.set("core.meta_cache.hit_ratio", ratio(float64(f.metaHits), float64(f.metaHits+f.metaMisses)),
		fmt.Sprintf("(%d hits / %d lookups)", f.metaHits, f.metaHits+f.metaMisses))
	b.lay.set("sim.ns_per_kinstr", ratio(float64(f.wall.Nanoseconds()), float64(f.instr)/1e3),
		fmt.Sprintf("(%d instructions)", f.instr))
	b.lay.set("sim.ns_per_ktick", ratio(float64(f.wall.Nanoseconds()), float64(f.ticks)/1e3), "")
	b.lay.set("go.mallocs_per_kinstr", ratio(float64(mem.mallocs), float64(f.instr)/1e3),
		fmt.Sprintf("(%d mallocs)", mem.mallocs))
	b.lay.set("go.gc_cycles", float64(mem.gcs), "")
	b.lay.set("go.gc_pause_ms", float64(mem.pause.Nanoseconds())/1e6, "")
}

// setDispatch records the timing wrappers' totals for a traced phase.
func (b *bench) setDispatch(d *dispatchStats) {
	meanNs, calls := d.totals()
	b.lay.set("core.dispatch_ns", meanNs, fmt.Sprintf("(1 in %d of %d calls timed)", sampleEvery, calls))
	b.lay.set("core.dispatch_calls", float64(calls), "")
	channels := ladder.DefaultGeometry().Channels
	b.lay.set("sim.cells_run", float64(d.factories.Load())/float64(channels),
		fmt.Sprintf("(%d scheme-factory calls / %d channels)", d.factories.Load(), channels))
}

// setReplays records the standalone layer replays over the cells.
func (b *bench) setReplays(cells []cellSpec) error {
	us, err := circuitSolveUs(2)
	if err != nil {
		return err
	}
	b.lay.set("circuit.solve_us", us, "")
	streams, n, nextNs, err := replayTrace(cells)
	if err != nil {
		return err
	}
	b.lay.set("trace.accesses", float64(n), fmt.Sprintf("(%d cells)", len(cells)))
	b.lay.set("trace.next_ns", nextNs, "")
	rr, err := replayStore(streams)
	if err != nil {
		return err
	}
	b.lay.set("reram.prefill_us", rr.prefillUs, "")
	b.lay.set("reram.write_ns", rr.writeNs, "")
	b.lay.set("reram.rows_prefilled", float64(rr.rowsPrefilled), "")
	return nil
}

// spanReport sets the timing and self-time metrics from the spans,
// prints each layer's total and self time, and writes the spans out.
func (b *bench) spanReport() {
	spans := b.rec.snapshot()
	b.lay.set("timing.calibrate_s", totalOf(spans, "timing.calibrate").Seconds(), "")
	b.lay.set("timing.generate_s", totalOf(spans, "timing.generate").Seconds(), "(3 tables)")
	fmt.Println("layer self time (traced run):")
	for _, lt := range selfTimes(spans) {
		fmt.Printf("  %-28s n=%-5d total=%-12v self=%v\n", lt.Name, lt.Count, lt.Total.Round(time.Microsecond), lt.Self.Round(time.Microsecond))
		if lt.Name == "bench."+b.o.workload {
			b.lay.set("bench.self_s", lt.Self.Seconds(), "(traced body outside layer spans)")
		}
	}
	if err := os.MkdirAll(filepath.Dir(b.o.spans), 0o755); err == nil {
		if err := writeSpans(b.o.spans, spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		} else {
			fmt.Printf("spans written to %s (%d spans)\n", b.o.spans, len(spans))
		}
	}
}

// setOverhead records traced minus untraced time of the same body.
func (b *bench) setOverhead(untraced, traced time.Duration, what string) {
	b.lay.set("trace.overhead_s", (traced - untraced).Seconds(),
		fmt.Sprintf("(%s: traced %.4fs - untraced %.4fs)", what, traced.Seconds(), untraced.Seconds()))
}

// seconds converts durations to seconds.
func seconds(ds []time.Duration) []float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return xs
}

// setEndToEnd sets every end-to-end metric but setup_s from one run's
// samples. body holds the host times of the workload body (paper-eval
// passes, long-write cells, service-mix jobs): run_s is their median. ops
// holds the latencies of the operations a user waits on (grid cells,
// long-write cells, service-mix jobs), completed in opsWall: job_p50_s,
// job_p90_s and jobs_per_s come from them. On long-write and service-mix
// the body is the operation, so run_s equals job_p50_s there. A run with
// fewer ops than samplesFor(0.9) reports its median as job_p90_s.
func (b *bench) setEndToEnd(body, ops []time.Duration, opsWall time.Duration, what string) {
	bs := seconds(body)
	b.e2e.set("run_s", median(bs), fmt.Sprintf("(median of %d, min %.4g, max %.4g)", len(bs), quantile(bs, 0), quantile(bs, 1)))
	xs := seconds(ops)
	note := fmt.Sprintf("(%d %s)", len(xs), what)
	p90note := note
	if !tailOK(len(xs), 0.9) {
		p90note = fmt.Sprintf("(%d %s, under the %d a p90 needs: the median)", len(xs), what, samplesFor(0.9))
	}
	b.e2e.set("job_p50_s", median(xs), note)
	b.e2e.set("job_p90_s", tailQuantile(xs, 0.9), p90note)
	b.e2e.set("jobs_per_s", ratio(float64(len(xs)), opsWall.Seconds()),
		fmt.Sprintf("(%d %s in %.3fs)", len(xs), what, opsWall.Seconds()))
}

// checkPaper checks a paper-eval pass against the reference.
func (b *bench) checkPaper(run *paperRun) error {
	names, digests, err := paperOutputs(run)
	if err != nil {
		return err
	}
	want := b.ref.paperDigests(b.idx)
	for i, n := range names {
		w, ok := want[n]
		b.t.check(ok && w == digests[i], "paper-eval %s: digest %s, reference %q", n, digests[i], w)
	}
	return nil
}

// minPasses is the fewest paper-eval passes a run makes, so that run_s
// is not a single pass.
const minPasses = 2

func (b *bench) paperEval() error {
	if b.o.trace == 1 {
		return b.paperEvalTraced()
	}
	start := time.Now()
	var passes, cells []time.Duration
	var gridWall time.Duration
	for keepGoing(time.Now(), b.deadline(start), len(passes), minPasses) {
		run, err := runPaperEval(b.ts, b.seed, b.jobs, nil, 0)
		if err != nil {
			return err
		}
		passes = append(passes, run.wall)
		if err := b.checkPaper(run); err != nil {
			return err
		}
		for _, g := range run.grids {
			gridWall += g.wall
			for _, w := range g.grid.Workloads {
				for _, s := range g.grid.Schemes {
					cells = append(cells, g.grid.Results[w][s].WallClock)
				}
			}
		}
	}
	b.setEndToEnd(passes, cells, gridWall, "grid cells")
	return nil
}

func (b *bench) paperEvalTraced() error {
	var plain *paperRun
	mem, err := measureMem(func() error {
		var err error
		plain, err = runPaperEval(b.ts, b.seed, b.jobs, nil, 0)
		return err
	})
	if err != nil {
		return err
	}
	if err := b.checkPaper(plain); err != nil {
		return err
	}
	b.setWorkCounts(cellFacts(plain.grids...), mem)

	d := &dispatchStats{}
	timedSink.Store(d)
	root := b.rec.reserve("bench.paper-eval", 0, "")
	begin := b.rec.now()
	traced, err := runPaperEval(b.ts, b.seed, b.jobs, b.rec, root)
	b.rec.finish(root, begin, b.rec.now())
	timedSink.Store(nil)
	if err != nil {
		return err
	}
	if err := b.checkPaper(traced); err != nil {
		return err
	}
	b.setDispatch(d)
	b.setOverhead(plain.wall, traced.wall, "paper-eval pass")

	spans := b.rec.snapshot()
	var gridWall, cellWall time.Duration
	for _, g := range traced.grids {
		gridWall += g.wall
		cellWall += cellFacts(g).wall
	}
	b.lay.set("sim.grid_s", totalOf(spans, "sim.grid").Seconds(), "(3 grids)")
	b.lay.set("sim.studies_s", totalOf(spans, "sim.studies").Seconds(), "(8 studies)")
	for _, st := range paperStudies {
		b.lay.set("sim.study."+st.name+"_s", totalOf(spans, "sim.study."+st.name).Seconds(), "")
	}
	b.lay.set("sim.pool_busy_frac", ratio(cellWall.Seconds(), gridWall.Seconds()*float64(b.jobs)),
		fmt.Sprintf("(cell wall %.3fs / (grid wall %.3fs x %d jobs))", cellWall.Seconds(), gridWall.Seconds(), b.jobs))
	ms, _, err := gridEncodeMs(plain.grids[1].grid, 5)
	if err != nil {
		return err
	}
	b.lay.set("sim.report_encode_ms", ms, "(figure grid, median of 5)")
	var cells []cellSpec
	for _, w := range ladder.Workloads() {
		cells = append(cells, cellSpec{workload: w, seed: b.seed, instr: paperInstr})
	}
	return b.setReplays(cells)
}

func (b *bench) checkLong(res *ladder.Result) error {
	d, err := reportDigest(res)
	if err != nil {
		return err
	}
	want := b.ref.LongWrite[strconv.Itoa(b.idx)]
	b.t.check(d == want, "long-write: digest %s, reference %q", d, want)
	return nil
}

func (b *bench) longWrite() error {
	if b.o.trace == 1 {
		return b.longWriteTraced()
	}
	start := time.Now()
	var walls []time.Duration
	var total time.Duration
	for keepGoing(time.Now(), b.deadline(start), len(walls), 1) {
		res, wall, err := runLongWrite(b.ts, b.seed, false)
		if err != nil {
			return err
		}
		walls = append(walls, wall)
		total += wall
		if err := b.checkLong(res); err != nil {
			return err
		}
	}
	b.setEndToEnd(walls, walls, total, "cells")
	return nil
}

func (b *bench) longWriteTraced() error {
	var plain *ladder.Result
	var plainWall time.Duration
	mem, err := measureMem(func() error {
		var err error
		plain, plainWall, err = runLongWrite(b.ts, b.seed, false)
		return err
	})
	if err != nil {
		return err
	}
	if err := b.checkLong(plain); err != nil {
		return err
	}
	b.setWorkCounts(resultFacts(plain), mem)

	d := &dispatchStats{}
	timedSink.Store(d)
	root := b.rec.reserve("bench.long-write", 0, "")
	begin := b.rec.now()
	end := b.rec.start("sim.run", root, longWorkload)
	traced, tracedWall, err := runLongWrite(b.ts, b.seed, true)
	end()
	b.rec.finish(root, begin, b.rec.now())
	timedSink.Store(nil)
	if err != nil {
		return err
	}
	if err := b.checkLong(traced); err != nil {
		return err
	}
	b.setDispatch(d)
	b.setOverhead(plainWall, tracedWall, "long cell")
	ms, err := runEncodeMs(plain, 5)
	if err != nil {
		return err
	}
	b.lay.set("sim.report_encode_ms", ms, "(run report, median of 5)")
	return b.setReplays([]cellSpec{{workload: longWorkload, seed: b.seed, instr: longInstr}})
}

// mixCountJobs is how many fresh jobs' reports feed the work counts.
const mixCountJobs = 64

func (b *bench) serviceMix() error {
	if b.o.trace == 1 {
		return b.serviceMixTraced()
	}
	run, err := runServiceMix(b.ts, b.o.seed, b.o.seconds, b.jobs, b.tmp, nil, 0)
	if err != nil {
		return err
	}
	t, _, hits := checkMix(run, b.ref.ServicePool, mixCountJobs)
	b.t.add(t)
	var lat []time.Duration
	for _, s := range run.samples {
		if s.err == nil {
			lat = append(lat, s.total)
		}
	}
	b.setEndToEnd(lat, lat, run.wall, fmt.Sprintf("jobs, %d cache hits", hits))
	return nil
}

func (b *bench) serviceMixTraced() error {
	var plain *mixRun
	mem, err := measureMem(func() error {
		var err error
		plain, err = runServiceMix(b.ts, b.o.seed, b.o.seconds, b.jobs, b.tmp, nil, 0)
		return err
	})
	if err != nil {
		return err
	}
	t, f, _ := checkMix(plain, b.ref.ServicePool, mixCountJobs)
	b.t.add(t)
	b.setWorkCounts(f, mem)

	d := &dispatchStats{}
	timedSink.Store(d)
	root := b.rec.reserve("bench.service-mix", 0, "")
	begin := b.rec.now()
	traced, err := runServiceMix(b.ts, b.o.seed, b.o.seconds, b.jobs, b.tmp, b.rec, root)
	b.rec.finish(root, begin, b.rec.now())
	timedSink.Store(nil)
	if err != nil {
		return err
	}
	t, _, _ = checkMix(traced, b.ref.ServicePool, mixCountJobs)
	b.t.add(t)
	b.setDispatch(d)

	phase := func(run *mixRun, get func(jobSample) time.Duration) []float64 {
		var xs []float64
		for _, s := range run.samples {
			if s.err == nil {
				xs = append(xs, float64(get(s).Nanoseconds())/1e6)
			}
		}
		return xs
	}
	n := fmt.Sprintf("(median over %d jobs)", len(traced.samples))
	b.lay.set("service.submit_ms", median(phase(traced, func(s jobSample) time.Duration { return s.submit })), n)
	b.lay.set("service.queue_wait_ms", median(phase(traced, func(s jobSample) time.Duration { return s.queueWait })), n)
	b.lay.set("service.exec_ms", median(phase(traced, func(s jobSample) time.Duration { return s.exec })), n)
	b.lay.set("service.fetch_ms", median(phase(traced, func(s jobSample) time.Duration { return s.fetch })), n)
	st := plain.stats
	posts := st.Submitted + st.Deduped + st.CacheHits + st.Rejected + st.Resubmitted
	b.lay.set("service.cache_hit_ratio", ratio(float64(st.CacheHits), float64(posts)),
		fmt.Sprintf("(%d cache hits / %d submissions)", st.CacheHits, posts))
	untracedP50 := median(phase(plain, func(s jobSample) time.Duration { return s.total }))
	tracedP50 := median(phase(traced, func(s jobSample) time.Duration { return s.total }))
	b.setOverhead(time.Duration(untracedP50*1e6), time.Duration(tracedP50*1e6), "job p50")

	// The service's report encoding and durable store, standalone on a
	// pool job's grid and report bytes.
	grid, err := ladder.RunGrid(requestOptions(poolRequest(0, sameName), b.jobs, b.ts))
	if err != nil {
		return err
	}
	ms, report, err := gridEncodeMs(grid, 20)
	if err != nil {
		return err
	}
	b.lay.set("sim.report_encode_ms", ms, "(pool job grid, median of 20)")
	doneMs, err := storeDoneMs(b.tmp, report, 20)
	if err != nil {
		return err
	}
	b.lay.set("service.store.done_ms", doneMs, fmt.Sprintf("(%d-byte report, median of 20)", len(report)))
	var exec time.Duration
	for _, s := range plain.samples {
		if s.err == nil && s.ordinal >= 0 && s.ordinal < mixCountJobs {
			exec += s.exec
		}
	}
	b.lay.set("sim.pool_busy_frac", ratio(f.wall.Seconds(), exec.Seconds()*float64(b.jobs)),
		fmt.Sprintf("(cell wall %.3fs / (exec %.3fs x %d jobs), first %d fresh jobs)", f.wall.Seconds(), exec.Seconds(), b.jobs, mixCountJobs))

	var cells []cellSpec
	for k := 0; k < mixCountJobs; k++ {
		req := poolRequest(plain.plan.freshIndex(k), sameName)
		for _, w := range req.Workloads {
			cells = append(cells, cellSpec{workload: w, seed: req.Seed, instr: req.Instr})
		}
	}
	return b.setReplays(cells)
}
