package main

import (
	"strings"
	"time"

	"ladder/internal/metrics"
	"ladder/internal/sim"
)

// facts are the exact work counts and summed cell wall time of a set of
// simulation cells, read from their results or reports.
type facts struct {
	cells                 int
	instr, ticks          uint64
	reads, writes, drains uint64
	metaHits, metaMisses  uint64
	wall                  time.Duration
}

func (f *facts) add(o facts) {
	f.cells += o.cells
	f.instr += o.instr
	f.ticks += o.ticks
	f.reads += o.reads
	f.writes += o.writes
	f.drains += o.drains
	f.metaHits += o.metaHits
	f.metaMisses += o.metaMisses
	f.wall += o.wall
}

// drainEntries sums the per-channel write-drain entry counters.
func drainEntries(s metrics.Snapshot) uint64 {
	var n uint64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "memctrl.") && strings.HasSuffix(name, ".drain_entries") {
			n += v
		}
	}
	return n
}

// resultFacts reads one cell's counts from its Result.
func resultFacts(r *sim.Result) facts {
	return facts{
		cells:      1,
		instr:      r.InstructionsRetired,
		ticks:      r.Ticks,
		reads:      r.Stats.DataReads,
		writes:     r.Stats.DataWrites,
		drains:     drainEntries(r.Metrics.Snapshot()),
		metaHits:   r.Stats.MetaCacheHits,
		metaMisses: r.Stats.MetaCacheMisses,
		wall:       r.WallClock,
	}
}

// gridFacts reads a grid report's counts: per-cell instructions and wall
// time, and the merged counters.
func gridFacts(gr *sim.GridReport) facts {
	c := gr.Metrics.Counters
	f := facts{
		ticks:      c["sim.ticks"],
		reads:      c["core.traffic.data_reads"],
		writes:     c["core.traffic.data_writes"],
		drains:     drainEntries(gr.Metrics),
		metaHits:   c["core.meta_cache.hits"],
		metaMisses: c["core.meta_cache.misses"],
	}
	for _, cell := range gr.Cells {
		f.cells++
		f.instr += cell.InstructionsRetired
		f.wall += time.Duration(cell.WallClockMS * float64(time.Millisecond))
	}
	return f
}
