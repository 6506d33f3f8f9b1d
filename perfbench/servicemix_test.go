package main

import (
	"testing"
)

// TestServiceMixClosedLoop drives the in-process service through the
// closed-loop clients at small scale: every job must complete, at least
// minJobs must run, resubmissions must come back as cache hits with the
// bytes first served, and span parents must point at the phase span.
func TestServiceMixClosedLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs at least 100 service jobs")
	}
	registerTimed()
	rec := newRecorder()
	root := rec.reserve("bench.service-mix", 0, "")
	run, err := runServiceMix(smallTables(t), 3, 0.01, 2, t.TempDir(), rec, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.samples) < minJobs {
		t.Fatalf("%d jobs ran, want at least %d", len(run.samples), minJobs)
	}
	// Pool references for this scale: each fresh job's own digest.
	pool := make([]string, mixPool)
	for _, s := range run.samples {
		if s.err != nil {
			t.Fatalf("job %d: %v", s.pool, s.err)
		}
		if s.ordinal >= 0 {
			d, _, err := gridReportDigest(s.report)
			if err != nil {
				t.Fatal(err)
			}
			pool[s.pool] = d
		}
	}
	tl, f, hits := checkMix(run, pool, mixCountJobs)
	if tl.failed != 0 || tl.attempted != len(run.samples) {
		t.Fatalf("check: %s %q", tl, tl.reasons)
	}
	if hits == 0 || hits != int(run.stats.CacheHits) {
		t.Fatalf("%d cache hits seen by clients, %d by the service", hits, run.stats.CacheHits)
	}
	if f.cells != 2*len(mixWorkloads)*mixCountJobs {
		t.Fatalf("work counts cover %d cells, want %d", f.cells, 2*len(mixWorkloads)*mixCountJobs)
	}
	jobs := 0
	for _, sp := range rec.snapshot() {
		if sp.Name == "service.job" {
			jobs++
			if sp.Parent != root || sp.Trace == "" {
				t.Fatalf("job span %+v not under the phase span", sp)
			}
		}
	}
	if jobs != len(run.samples) {
		t.Fatalf("%d job spans for %d jobs", jobs, len(run.samples))
	}
}
