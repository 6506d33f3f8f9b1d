package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"

	"ladder"
	"ladder/internal/timing"
)

// check is the check role: it runs paper-eval's three grids with Jobs=1
// and Jobs=nproc and asserts their stripped grid reports are byte
// identical, and that every cell matches the reference digest.
func check(o options) error {
	ts, err := timing.DefaultTableSet()
	if err != nil {
		return err
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	idx := refIndex(o.seed)
	want := ref.paperDigests(idx)
	nproc := runtime.NumCPU()
	var t tally
	for _, g := range paperGrids(ladder.Options{Instr: paperInstr, Seed: simSeed(idx), Tables: ts}) {
		var reports [][]byte
		for _, jobs := range []int{1, nproc} {
			opts := g.opts
			opts.Jobs = jobs
			grid, err := ladder.RunGrid(opts, g.schemes)
			if err != nil {
				return fmt.Errorf("grid %s jobs=%d: %w", g.name, jobs, err)
			}
			for _, w := range grid.Workloads {
				for _, s := range grid.Schemes {
					d, err := reportDigest(grid.Results[w][s])
					if err != nil {
						return err
					}
					name := g.name + "/" + w + "/" + s
					t.check(d == want[name], "%s jobs=%d: digest %s, reference %q", name, jobs, d, want[name])
				}
			}
			gr, err := ladder.NewGridReport(grid)
			if err != nil {
				return err
			}
			b, err := json.Marshal(gr.StripVolatile())
			if err != nil {
				return err
			}
			reports = append(reports, b)
		}
		same := bytes.Equal(reports[0], reports[1])
		t.check(same, "grid %s: stripped report differs between jobs=1 and jobs=%d", g.name, nproc)
		fmt.Printf("grid %-5s jobs=1 vs jobs=%d stripped reports identical: %v (%d bytes)\n", g.name, nproc, same, len(reports[0]))
	}
	fmt.Printf("check (ref index %d): failed_frac %s\n", idx, t)
	for _, r := range t.reasons {
		fmt.Println("  failure:", r)
	}
	if t.failed > 0 {
		return fmt.Errorf("check failed")
	}
	return nil
}

// record is the record role: it runs every reference index's paper-eval
// pass and long cell, and every service-mix pool job through the direct
// API, and writes their digests to o.record.
func record(o options) error {
	ts, err := timing.DefaultTableSet()
	if err != nil {
		return err
	}
	nproc := runtime.NumCPU()
	ref := &reference{PaperEval: map[string][]string{}, LongWrite: map[string]string{}}
	for i := 0; i < refSeeds; i++ {
		run, err := runPaperEval(ts, simSeed(i), nproc, nil, 0)
		if err != nil {
			return err
		}
		names, digests, err := paperOutputs(run)
		if err != nil {
			return err
		}
		ref.PaperOps = names
		ref.PaperEval[strconv.Itoa(i)] = digests
		res, _, err := runLongWrite(ts, simSeed(i), false)
		if err != nil {
			return err
		}
		if ref.LongWrite[strconv.Itoa(i)], err = reportDigest(res); err != nil {
			return err
		}
		fmt.Printf("recorded reference index %d (paper-eval %.1fs)\n", i, run.wall.Seconds())
	}
	for k := 0; k < mixPool; k++ {
		grid, err := ladder.RunGrid(requestOptions(poolRequest(k, sameName), nproc, ts))
		if err != nil {
			return err
		}
		gr, err := ladder.NewGridReport(grid)
		if err != nil {
			return err
		}
		raw, err := json.MarshalIndent(gr, "", "  ")
		if err != nil {
			return err
		}
		d, _, err := gridReportDigest(raw)
		if err != nil {
			return err
		}
		ref.ServicePool = append(ref.ServicePool, d)
	}
	fmt.Printf("recorded %d service-mix pool jobs\n", mixPool)
	return writeReference(o.record, ref)
}
