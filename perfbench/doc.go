// Command perfbench is the repository's benchmark. It measures what users
// of the simulator pay for — the cold start before any run, the paper's
// evaluation, a long single run, and a service job from submit to report
// — and, in a separate traced run, where each layer's time goes. Later
// changes cite its workload and metric names instead of re-deriving them.
//
// # Running
//
// From the repository root:
//
//	bash perfbench/run.sh --workload paper-eval --seed 1 --seconds 12 --trace 0
//
// run.sh builds the benchmark from the checkout (build cache, binary and
// temporary files under .bench_build/) and runs it. Each run is a fresh
// process tree: a set-up probe and the worker, all started without
// LADDER_TABLE_CACHE, so set-up is always cold. The last line of standard
// output is the result:
//
//	{"correct": true, "attempted": 354, "failed": 0, "metrics": {"run_s": {"value": 12.5, "unit": "s"}, ...}}
//
// The lines before it give the provenance (go version, GOMAXPROCS, nproc,
// workload seed, reference index and simulator seed), failed_frac with
// its base, and every metric with its unit and sample count or base.
//
// Other modes of the binary (run it after building with run.sh):
//
//	.bench_build/perfbench --role check --seed 1     # Jobs=1 vs Jobs=nproc byte identity
//	.bench_build/perfbench --role record             # re-record perfbench/reference.json
//
// # Inputs and output check
//
// The workload seed selects reference index seed mod 12 and the simulator
// seed derived from it, so the same seed always gives the same inputs.
// reference.json holds, per index, a digest (first 16 hex digits of
// SHA-256) of every checked output, recorded at the commit that added the
// benchmark: each grid cell's stripped report (Report.StripVolatile), each
// study's rows, the derived figures, the long-write cell's stripped
// report, and the stripped grid report of each of the 1024 service-mix
// pool jobs. An output that does not match, a failed or rejected job, or
// a cache hit whose bytes differ from the bytes first served for that
// configuration counts as failed. failed_frac = failed ÷ attempted is
// printed with its base on every run and carried by the result's
// "failed" and "attempted" fields. It is not an end-to-end metric,
// because those are gated as a share of the parent's median and must
// never read 0; a traced run reports it as the per-layer metric
// failed_frac.
//
// # Workloads
//
//   - paper-eval: the calls `experiments -exp all` makes at its default
//     150k instructions per core with Jobs = nproc: the analytic tables,
//     the fig2 grid, the 16-workload × 7-scheme figure grid, the fig15 grid,
//     every derived figure and the eight Section 6/7 studies, repeated
//     until the run's seconds are used and at least two passes are done.
//     Why: it is hundreds of short cells, dominated by first-touch
//     resident prefill, trace synthesis and the serial study loops, which
//     ignore Jobs and re-simulate cells the grid already ran, so
//     cross-cell sharing and a memoized cell executor show here.
//   - long-write: one lbm × LADDER-Hybrid cell of 10M instructions per
//     core in one goroutine, as laddersim runs it, repeated until the run's
//     seconds are used. Why: no pool and no cross-cell sharing, rows are
//     revisited, so its time is the steady write path (scheme dispatch,
//     controller, engine, trace synthesis). A cross-cell optimisation must
//     show no change here; a hot-path one shows most here.
//   - service-mix: an in-process service.New with a durable StateDir
//     (journal and report fsyncs are real) behind a loopback HTTP server,
//     driven by a closed loop of nproc clients, one connection each. Each
//     client POSTs a job, follows its SSE events to a terminal state and
//     GETs the report, then starts the next. Three jobs in four are fresh
//     astar/mcf × Baseline/LADDER-Basic grids at 200k instructions, taken
//     from the pool in an order the seed chooses; the fourth resubmits a
//     recently completed configuration, a cache hit. The loop runs until
//     the run's seconds are used and at least 100 jobs have started. Why:
//     the only workload that exercises queueing, report encoding, the
//     fsync'd store and dedup/LRU, and read-leaning cells beside
//     long-write's writes.
//
// # End-to-end metrics (--trace 0)
//
// Host time means wall time on the machine running the simulator. Every
// workload reports every end-to-end metric, each computed once, by
// setEndToEnd, from two lists of samples: the body (one paper-eval pass,
// one long-write cell, one service-mix job) and the operations a user
// waits on (a grid cell on paper-eval; on long-write and service-mix the
// operation is the body, so there run_s equals job_p50_s).
//
//	setup_s      s      median of two cold processes' time from process start until
//	                    timing.DefaultTableSet returns (the probe and the worker)
//	run_s        s      median host time of the body after set-up, resident prefill
//	                    included (service-mix: POST to report bytes in hand)
//	peak_rss_mb  MB     the worker's peak resident memory (getrusage Maxrss)
//	jobs_per_s   1/s    operations completed per second: grid cells per second of grid
//	                    wall (paper-eval), 1 ÷ mean cell (long-write), jobs per second of
//	                    the closed loop (service-mix)
//	job_p50_s    s      median and p90 operation latency, with the sample count printed;
//	job_p90_s    s      p90 needs samplesFor(0.9) = 100 samples so that ten lie beyond it,
//	                    and a run with fewer (long-write's handful of cells) reports its
//	                    median as job_p90_s
//
// # Per-layer metrics (--trace 1)
//
// A traced run sets up with spans around timing.Calibrate and the three
// timing.Generate calls, runs the workload body once untraced and once
// traced, and replays the layers it cannot reach from outside standalone.
// In the traced body every scheme runs under a timing wrapper registered
// with ladder.RegisterScheme ("timed:<name>"), which delegates every
// Scheme method, forwards Cache and WriteRetry, and times one call in 32;
// its stripped reports equal the plain ones (TestTimingWrapperIsObservationOnly).
// Spans go to .bench_build/spans.json and each span name's total and self
// time is printed. Every traced run prints every per-layer metric, so a
// layer the workload does not reach reads 0 (per-layer metrics carry no
// bound). Each line names the end-to-end metric and workload the layer
// metric should move.
//
// circuit/timing — should move setup_s on every workload and leave run_s unchanged:
//
//	timing.calibrate_s, timing.generate_s   spans around Calibrate and the three Generates
//	circuit.solve_us                        mean FastModel.Solve over 12 fixed table corners
//
// trace — run_s on long-write and paper-eval (replaying the cells' own
// profiles, seeds and address regions standalone):
//
//	trace.next_ns, trace.accesses
//
// reram — run_s mostly on paper-eval, little on long-write (the same
// streams through a standalone Store at the default resident level):
//
//	reram.prefill_us (mean first-touch EnsureRow), reram.write_ns, reram.rows_prefilled
//
// core (schemes, metadata cache) — run_s on long-write, barely job_p50_s on service-mix:
//
//	core.dispatch_ns, core.dispatch_calls   from the timing wrapper
//	core.meta_cache.hit_ratio               hits/(hits+misses) from the reports, base printed
//
// memctrl/cpu/engine — run_s on long-write; exact counts from the reports
// and host time per unit of work (Σ cell Result.WallClock):
//
//	sim.ticks, core.traffic.data_reads, core.traffic.data_writes, memctrl.drain_entries
//	sim.ns_per_kinstr, sim.ns_per_ktick
//
// sim grid and studies — run_s on paper-eval, absent (0) on long-write:
//
//	sim.grid_s, sim.studies_s, sim.study.<name>_s (one span per study)
//	sim.cells_run        scheme-factory calls ÷ channels; cells that run an unwrapped
//	                     scheme (RangeAblation's internal baseline, LowPrecisionSweep)
//	                     are not counted
//	sim.pool_busy_frac   Σ cell wall ÷ (grid wall × Jobs)
//
// sim report — job_p50_s on service-mix:
//
//	sim.report_encode_ms   NewGridReport/NewReport plus JSON encoding, median of repeats
//
// service — job_p50_s, job_p90_s and jobs_per_s on service-mix:
//
//	service.submit_ms, service.queue_wait_ms (accepted → running event),
//	service.exec_ms (running → terminal event), service.fetch_ms   client-side medians
//	service.cache_hit_ratio   cache hits ÷ submissions from /stats, base printed
//	service.store.done_ms     Store.Done timed standalone on a pool job's report bytes
//
// Go runtime, over the untraced body — run_s on long-write and
// paper-eval, and peak_rss_mb:
//
//	go.mallocs_per_kinstr, go.gc_cycles, go.gc_pause_ms
//
// Tracing itself:
//
//	bench.self_s       traced body time outside any layer span
//	trace.overhead_s   traced minus untraced run_s (job p50 on service-mix)
//	failed_frac        failed ÷ attempted over both bodies, base printed
//
// On service-mix the work counts cover the first 64 fresh jobs, which
// the seed fixes.
package main
