package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"ladder"
	"ladder/internal/circuit"
	"ladder/internal/reram"
	"ladder/internal/service"
	"ladder/internal/sim"
	"ladder/internal/timing"
	"ladder/internal/trace"
)

// tracedSetup builds the default table set the way timing.NewTableSet
// does, with a span around the calibration and each of the three table
// generations.
func tracedSetup(rec *recorder) (*timing.TableSet, error) {
	p := circuit.DefaultParams()
	end := rec.start("timing.calibrate", 0, "setup")
	m, err := timing.Calibrate(p)
	end()
	if err != nil {
		return nil, fmt.Errorf("calibrating: %w", err)
	}
	gen := func(opts timing.TableOptions) (*timing.Table, error) {
		defer rec.start("timing.generate", 0, "setup")()
		return timing.Generate(p, m, opts)
	}
	wl, err := gen(timing.TableOptions{Content: timing.WLContent})
	if err != nil {
		return nil, err
	}
	bl, err := gen(timing.TableOptions{Content: timing.BLContent})
	if err != nil {
		return nil, err
	}
	half, err := gen(timing.TableOptions{Content: timing.WLContent, SelectedCells: 4})
	if err != nil {
		return nil, err
	}
	return &timing.TableSet{Model: m, WL: wl, BL: bl, Half: half, WorstNs: wl.WorstCase()}, nil
}

// circuitSolveUs is the mean time of FastModel.Solve, in microseconds,
// over a fixed sample of WL-content table corners (the operations table
// generation solves), repeated reps times.
func circuitSolveUs(reps int) (float64, error) {
	p := circuit.DefaultParams()
	f, err := circuit.NewFastModel(p)
	if err != nil {
		return 0, err
	}
	gran := p.N / timing.Buckets
	sel := p.SelectedCells
	var ops []circuit.FastOp
	for _, wb := range []int{0, timing.Buckets - 1} {
		for _, bb := range []int{0, timing.Buckets - 1} {
			cols := make([]int, sel)
			for i := range cols {
				cols[i] = (bb+1)*gran - sel + i
			}
			for _, cb := range []int{0, 3, timing.Buckets - 1} {
				wl := min((cb+1)*gran-1, p.N-sel)
				ops = append(ops, circuit.FastOp{Row: (wb+1)*gran - 1, Cols: cols, WLLRS: wl, BLLRS: p.N - 1})
			}
		}
	}
	start := time.Now()
	for r := 0; r < reps; r++ {
		for _, op := range ops {
			if _, err := f.Solve(op); err != nil {
				return 0, err
			}
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(reps*len(ops)), nil
}

// cellSpec identifies one simulation cell's access streams.
type cellSpec struct {
	workload string
	seed     int64
	instr    uint64
}

// stream is one core's replayed access stream.
type stream struct {
	cell     cellSpec
	accesses []trace.Access
}

// replayTrace synthesizes each cell's per-core streams standalone, with
// the profiles, seeds and address regions the simulator's core build
// gives them, until each core's instruction gaps cover the cell's
// budget. It returns the streams, the access count and the mean
// Generator.Next time in nanoseconds.
func replayTrace(cells []cellSpec) ([]stream, int, float64, error) {
	geom := reram.DefaultGeometry()
	var out []stream
	var n int
	var spent time.Duration
	for _, c := range cells {
		profiles, err := trace.MixProfiles(c.workload)
		if err != nil {
			return nil, 0, 0, err
		}
		regionPages := geom.Lines() / reram.BlocksPerRow / uint64(len(profiles)+1)
		for i, p := range profiles {
			if uint64(p.WorkingSetPages) > regionPages {
				p.WorkingSetPages = int(regionPages)
			}
			gen, err := trace.NewGenerator(p, c.seed+int64(i)*7919+1, uint64(i)*regionPages)
			if err != nil {
				return nil, 0, 0, err
			}
			// Sized for the expected access count, so growing the slice
			// stays out of the timed loop.
			s := stream{cell: c, accesses: make([]trace.Access, 0, int(float64(c.instr)*(p.RPKI+p.WPKI)/1000*1.2)+16)}
			var instr uint64
			start := time.Now()
			for instr < c.instr {
				a := gen.Next()
				instr += uint64(a.Gap) + 1
				s.accesses = append(s.accesses, a)
			}
			spent += time.Since(start)
			n += len(s.accesses)
			out = append(out, s)
		}
	}
	return out, n, ratio(float64(spent.Nanoseconds()), float64(n)), nil
}

// reramReplay is the resident-store replay's result.
type reramReplay struct {
	prefillUs, writeNs float64
	rowsPrefilled      int
}

// replayStore replays the streams through a standalone content store per
// cell, at the default resident level with the simulator's resident
// seed: every access first-touches its row (EnsureRow, timed when it
// prefills) and every write stores its data (Write, timed).
func replayStore(streams []stream) (reramReplay, error) {
	var r reramReplay
	var prefill, write time.Duration
	var writes int
	stores := map[cellSpec]*reram.Store{}
	for _, s := range streams {
		st := stores[s.cell]
		if st == nil {
			var err error
			if st, err = reram.NewStore(reram.DefaultGeometry()); err != nil {
				return r, err
			}
			st.SetResident(residentLevel, uint64(s.cell.seed)+0x5eed)
			stores[s.cell] = st
		}
		for _, a := range s.accesses {
			before := st.TouchedRows()
			t := time.Now()
			if err := st.EnsureRow(a.Line); err != nil {
				return r, err
			}
			d := time.Since(t)
			if st.TouchedRows() > before {
				prefill += d
				r.rowsPrefilled++
			}
			if a.Write {
				t := time.Now()
				if _, err := st.Write(a.Line, a.Data); err != nil {
					return r, err
				}
				write += time.Since(t)
				writes++
			}
		}
	}
	r.prefillUs = ratio(float64(prefill.Nanoseconds())/1e3, float64(r.rowsPrefilled))
	r.writeNs = ratio(float64(write.Nanoseconds()), float64(writes))
	return r, nil
}

// residentLevel is the simulator's default resident-data level.
const residentLevel = 2

// medianMs runs f reps times and returns the median duration in ms.
func medianMs(reps int, f func() error) (float64, error) {
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t).Nanoseconds())/1e6)
	}
	return median(xs), nil
}

// gridEncodeMs times what the service does with a finished grid:
// NewGridReport plus indented JSON encoding.
func gridEncodeMs(g *ladder.Grid, reps int) (float64, []byte, error) {
	var last []byte
	ms, err := medianMs(reps, func() error {
		gr, err := sim.NewGridReport(g)
		if err != nil {
			return err
		}
		last, err = json.MarshalIndent(gr, "", "  ")
		return err
	})
	return ms, last, err
}

// runEncodeMs times NewReport plus indented JSON encoding of one run.
func runEncodeMs(res *ladder.Result, reps int) (float64, error) {
	return medianMs(reps, func() error {
		_, err := json.MarshalIndent(sim.NewReport(res), "", "  ")
		return err
	})
}

// storeDoneMs times the durable store's Done (blob write, fsync, rename,
// journal append) standalone on the given report bytes.
func storeDoneMs(tmp string, report []byte, reps int) (float64, error) {
	dir, err := os.MkdirTemp(tmp, "store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, _, err := service.OpenStore(dir)
	if err != nil {
		return 0, err
	}
	defer st.Close()
	i := 0
	ms, err := medianMs(reps, func() error {
		i++
		st.Done("bench"+strconv.Itoa(i), report)
		return st.Err()
	})
	return ms, err
}
