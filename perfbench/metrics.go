package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names and units (pinned by TestBenchmarkJSONMatches).
type metricDef struct {
	name, unit string
	// better is "lower" or "higher".
	better string
}

// endToEnd are the metrics a run prints with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"run_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_s", "s", "lower"},
	{"job_p90_s", "s", "lower"},
}

// perLayer are the metrics a run prints with --trace 1. Every traced run
// prints all of them, so a layer the workload does not reach reads 0;
// they carry no bound, unlike the end-to-end metrics, which are never 0.
// failed_frac, which is 0 on a correct program, is therefore reported
// here. Ratios of useful outcomes are better higher; times, work counts
// and failures are better lower.
var perLayer = []metricDef{
	{"timing.calibrate_s", "s", "lower"},
	{"timing.generate_s", "s", "lower"},
	{"circuit.solve_us", "us", "lower"},
	{"trace.next_ns", "ns", "lower"},
	{"trace.accesses", "count", "lower"},
	{"reram.prefill_us", "us", "lower"},
	{"reram.write_ns", "ns", "lower"},
	{"reram.rows_prefilled", "count", "lower"},
	{"core.dispatch_ns", "ns", "lower"},
	{"core.dispatch_calls", "count", "lower"},
	{"core.meta_cache.hit_ratio", "ratio", "higher"},
	{"sim.ticks", "count", "lower"},
	{"core.traffic.data_reads", "count", "lower"},
	{"core.traffic.data_writes", "count", "lower"},
	{"memctrl.drain_entries", "count", "lower"},
	{"sim.ns_per_kinstr", "ns", "lower"},
	{"sim.ns_per_ktick", "ns", "lower"},
	{"sim.grid_s", "s", "lower"},
	{"sim.studies_s", "s", "lower"},
	{"sim.study.ablation_s", "s", "lower"},
	{"sim.study.wear_s", "s", "lower"},
	{"sim.study.lifetime_s", "s", "lower"},
	{"sim.study.vwlmode_s", "s", "lower"},
	{"sim.study.crash_s", "s", "lower"},
	{"sim.study.cachesize_s", "s", "lower"},
	{"sim.study.reliability_s", "s", "lower"},
	{"sim.study.lowrows_s", "s", "lower"},
	{"sim.cells_run", "count", "lower"},
	{"sim.pool_busy_frac", "ratio", "higher"},
	{"sim.report_encode_ms", "ms", "lower"},
	{"service.submit_ms", "ms", "lower"},
	{"service.queue_wait_ms", "ms", "lower"},
	{"service.exec_ms", "ms", "lower"},
	{"service.fetch_ms", "ms", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.store.done_ms", "ms", "lower"},
	{"go.mallocs_per_kinstr", "count", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"bench.self_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
	{"failed_frac", "ratio", "lower"},
}

// metricValue is one metric as printed in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet collects values for one list of definitions.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
	// notes carry each value's base or sample count for the log.
	notes map[string]string
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}, notes: map[string]string{}}
}

// set records a metric; naming one outside the definitions is a bug.
func (m *metricSet) set(name string, v float64, note string) {
	for _, d := range m.defs {
		if d.name == name {
			m.values[name] = v
			if note != "" {
				m.notes[name] = note
			}
			return
		}
	}
	panic("perfbench: undefined metric " + name)
}

// out returns every defined metric, 0 where none was set.
func (m *metricSet) out() map[string]metricValue {
	o := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		o[d.name] = metricValue{Value: m.values[d.name], Unit: d.unit}
	}
	return o
}

// lines renders the metrics one per line with units and notes.
func (m *metricSet) lines() string {
	var b strings.Builder
	names := make([]string, 0, len(m.defs))
	units := map[string]string{}
	for _, d := range m.defs {
		names = append(names, d.name)
		units[d.name] = d.unit
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-28s %14.6g %-6s %s\n", n, m.values[n], units[n], m.notes[n])
	}
	return b.String()
}
