package reram

import (
	"encoding/binary"
	"fmt"
	mbits "math/bits"
	"slices"

	"ladder/internal/bits"
)

// rowState holds the stored content of one wordline group plus exact
// per-wordline LRS counters, maintained incrementally. Wordline m of the
// group stores byte m of every block mapped to the group, so
// counters[m] = Σ_blocks popcount(block[m]).
type rowState struct {
	data [BlocksPerRow]bits.Line
	// counters[m] counts the LRS cells on wordline m of the group (range
	// 0..512 for 64 blocks × 8 bits).
	counters [BlockSize]uint16
	// unshifted[m] counts the LRS cells wordline m would hold if every
	// block were reverse-shifted into the raw bit layout — maintained
	// incrementally only when the store tracks unshifted counters, so
	// MaxRowCounterUnshifted (called on every Est/Hybrid dispatch) avoids
	// re-deriving 64 reverse shifts per call.
	unshifted [BlockSize]uint16
	// writes counts block writes landing in this row (wear tracking).
	writes uint64
}

// matCols is the number of bitlines per mat.
const matCols = 512

// colState tracks exact per-bitline LRS counts for one mat group: 64 mats
// × 512 bitlines, counting over the MatRows wordlines of the group. The
// BLP baseline's profiling circuitry exposes these for free.
type colState [BlockSize][matCols]uint16

// Store is a sparse model of the ReRAM content: rows are allocated on
// first write. Untouched memory reads as zero (all HRS), which matches a
// freshly initialized device.
type Store struct {
	geom Geometry
	rows map[uint64]*rowState
	// cols tracks per-bitline LRS counts, keyed by mat-group id
	// (globalRow / MatRows), allocated lazily.
	cols map[uint64]*colState
	// totalWrites counts all block writes for wear statistics.
	totalWrites uint64
	// bankWrites counts block writes per bank (dense index as in
	// Geometry.GlobalRow: ((channel*ranks)+rank)*banks + bank), feeding
	// the per-bank wear view of the run report.
	bankWrites []uint64
	// residentLevel/residentSeed configure synthetic resident data
	// (SetResident); level 0 means a fresh all-HRS device.
	residentLevel int
	residentSeed  uint64
	// residentTransform stores resident blocks through the scheme's
	// datapath (SetResidentTransform).
	residentTransform func(slot int, l bits.Line) bits.Line
	// trackCols enables per-bitline LRS maintenance. Only the BLP
	// baseline's profiling readout (MaxSelectedColCount) consumes it, and
	// the bookkeeping touches every changed bit of every write, so runs of
	// other schemes switch it off.
	trackCols bool
	// trackUnshifted enables incremental unshifted per-wordline counters
	// (see rowState.unshifted).
	trackUnshifted bool
}

// NewStore returns an empty content store over the given geometry.
func NewStore(g Geometry) (*Store, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &Store{
		geom:       g,
		rows:       make(map[uint64]*rowState),
		cols:       make(map[uint64]*colState),
		bankWrites: make([]uint64, g.Banks()),
		trackCols:  true,
	}, nil
}

// SetColumnTracking switches per-bitline LRS maintenance on or off. It
// must be called before the first write: counts accumulated while
// tracking was off are not reconstructed. Tracking defaults to on;
// simulation runs disable it for every scheme but BLP.
func (s *Store) SetColumnTracking(on bool) { s.trackCols = on }

// TrackUnshiftedCounters enables incremental per-wordline counters over
// the reverse-shifted bit layout, turning MaxRowCounterUnshifted from a
// 64-block reverse-shift scan into a counter max. Like SetColumnTracking
// it must be enabled before the first write; shifting schemes (Est,
// Hybrid) enable it at construction.
func (s *Store) TrackUnshiftedCounters() { s.trackUnshifted = true }

// SetResident enables synthetic resident data: when a wordline group is
// first touched, every block is filled with structured pseudo-random
// content. This models a machine in steady state — the paper's warmed-up
// gem5 checkpoints — rather than a factory-fresh all-HRS device, which
// matters because per-bitline LRS counts aggregate all rows of a mat
// group and per-wordline counts aggregate resident neighbors.
//
// The structure mirrors real in-memory data: per row, one "dense" byte
// position per 8-byte word position (think FP exponents or pointer high
// bytes), aligned across the row's blocks, with the remaining bytes
// mostly zero. Level selects overall density: 1 ≈ dense (FP-heavy), 2 ≈
// typical, 3 ≈ sparse (integer/pointer-heavy). Level 0 disables prefill.
func (s *Store) SetResident(level int, seed uint64) {
	s.residentLevel = level
	s.residentSeed = seed
}

// SetResidentTransform installs the controller datapath's storage
// transform (e.g. LADDER-Est's intra-line bit shifting): under a scheme
// that transforms lines before storing them, resident data written before
// the simulation window would have been stored in transformed form too.
// The transform receives the block's slot within its wordline group.
func (s *Store) SetResidentTransform(f func(slot int, l bits.Line) bits.Line) {
	s.residentTransform = f
}

// residentParams returns the per-level bit statistics: hotDraws selects
// how a dense byte combines rng draws (1: one draw; 2: (a|b)&c, three
// draws; 3: a&b, two draws), coldOdds is the 1-in-N odds that a sparse
// byte holds a single set bit.
func residentParams(level int) (hotDraws int, coldOdds uint64) {
	switch {
	case level <= 1:
		return 1, 4 // hot p=0.5, cold byte nonzero 1 in 4
	case level == 2:
		return 2, 8 // hot p≈0.375, cold 1 in 8
	default:
		return 3, 16 // hot p=0.25, cold 1 in 16
	}
}

// EnsureRow allocates (and prefills, when resident data is enabled) the
// wordline group containing the line. The memory controller calls this on
// first reference so metadata initialization observes resident content.
func (s *Store) EnsureRow(line uint64) error {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return err
	}
	s.ensure(s.geom.GlobalRow(loc))
	return nil
}

// ensure returns the row state, allocating and prefilling on first touch.
func (s *Store) ensure(key uint64) *rowState {
	if r := s.rows[key]; r != nil {
		return r
	}
	r := &rowState{}
	s.rows[key] = r
	if s.residentLevel > 0 {
		s.prefill(r, key)
	}
	return r
}

// golden is splitmix64's increment (2^64 / φ).
const golden = 0x9e3779b97f4a7c15

// mix is splitmix64's output function: draw i (counting from 1) of a
// stream seeded x0 is mix(x0 + i*golden).
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// prefill fills every block of a fresh row with resident data and builds
// its counters. Draw order defines the content: the row's dense byte
// positions first, then byte by byte through each block — a dense byte
// takes its hotDraws combination, a sparse byte one draw plus a
// bit-position draw when it comes up nonzero. Each 8-byte word is built in
// a register.
func (s *Store) prefill(r *rowState, key uint64) {
	hotDraws, coldOdds := residentParams(s.residentLevel)
	// coldOdds is a power of two, so the sparse-byte test is a mask test.
	coldMask := coldOdds - 1
	x := s.residentSeed ^ key*golden
	// One dense byte position per 8-byte word position, fixed per row and
	// aligned across blocks (the page-repetitive pattern real data shows).
	var hotPos [BlockSize / 8]int
	for w := range hotPos {
		x += golden
		hotPos[w] = int(mix(x) & 7)
	}
	for b := range r.data {
		for w, hot := range hotPos {
			var word uint64
			for k := 0; k < 8; k++ {
				x += golden
				z := mix(x)
				if k == hot {
					switch hotDraws {
					case 2:
						x += golden
						y := mix(x)
						x += golden
						z = (z | y) & mix(x) // p = 0.375
					case 3:
						x += golden
						z &= mix(x) // p = 0.25
					}
					word |= (z & 0xff) << (8 * k)
				} else if z&coldMask == 0 {
					x += golden
					word |= 1 << (8*k + int(mix(x)&7))
				}
			}
			binary.LittleEndian.PutUint64(r.data[b][w*8:], word)
		}
		if s.residentTransform != nil {
			r.data[b] = s.residentTransform(b, r.data[b])
		}
	}
	bits.ColumnOnes(&r.counters, r.data[:])
	if s.trackUnshifted {
		r.unshifted = r.unshiftedCounts()
	}
	if s.trackCols {
		cs := s.colState(key)
		for b := range r.data {
			cs.replace(b, &bits.Line{}, &r.data[b])
		}
	}
}

// unshiftedCounts recounts the row's per-wordline LRS counters over the
// reverse-shifted bit layout.
func (r *rowState) unshiftedCounts() [BlockSize]uint16 {
	var raw [BlocksPerRow]bits.Line
	for b := range raw {
		raw[b] = bits.Unshifted(r.data[b], b)
	}
	var out [BlockSize]uint16
	bits.ColumnOnes(&out, raw[:])
	return out
}

// replace moves the bitline counts of block slot from content old to neu,
// walking the changed bits a word at a time.
func (cs *colState) replace(slot int, old, neu *bits.Line) {
	base := slot * 8
	for o := 0; o < BlockSize; o += 8 {
		nw := binary.LittleEndian.Uint64(neu[o:])
		for v := binary.LittleEndian.Uint64(old[o:]) ^ nw; v != 0; v &= v - 1 {
			i := mbits.TrailingZeros64(v)
			if nw&(1<<i) != 0 {
				cs[o+i>>3][base+i&7]++
			} else {
				cs[o+i>>3][base+i&7]--
			}
		}
	}
}

// colState returns the bitline counts of the row's mat group, allocating
// them on first use.
func (s *Store) colState(key uint64) *colState {
	matGroup := key / uint64(s.geom.MatRows)
	cs := s.cols[matGroup]
	if cs == nil {
		cs = &colState{}
		s.cols[matGroup] = cs
	}
	return cs
}

// Geometry returns the store's geometry.
func (s *Store) Geometry() Geometry { return s.geom }

// row fetches (without allocating) the state of a global row.
func (s *Store) row(globalRow uint64) *rowState { return s.rows[globalRow] }

// Read returns the stored content of the block at the given line address.
func (s *Store) Read(line uint64) (bits.Line, error) {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return bits.Line{}, err
	}
	r := s.row(s.geom.GlobalRow(loc))
	if r == nil {
		return bits.Line{}, nil
	}
	return r.data[loc.Slot], nil
}

// Write stores new content at the line address and returns the previous
// content. Per-wordline counters are updated incrementally.
func (s *Store) Write(line uint64, data bits.Line) (old bits.Line, err error) {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return bits.Line{}, err
	}
	key := s.geom.GlobalRow(loc)
	r := s.ensure(key)
	old = r.data[loc.Slot]
	bits.ColumnOnesDelta(&r.counters, &old, &data)
	if s.trackCols {
		s.colState(key).replace(loc.Slot, &old, &data)
	}
	if s.trackUnshifted {
		rawOld := bits.Unshifted(old, loc.Slot)
		rawNew := bits.Unshifted(data, loc.Slot)
		bits.ColumnOnesDelta(&r.unshifted, &rawOld, &rawNew)
	}
	r.data[loc.Slot] = data
	r.writes++
	s.totalWrites++
	s.bankWrites[(loc.Channel*s.geom.RanksPerChannel+loc.Rank)*s.geom.BanksPerRank+loc.Bank]++
	return old, nil
}

// MaxSelectedColCount returns the worst per-bitline LRS count among the
// bitlines a write to the given line would select (8 bitlines in each of
// the 64 mats). This models the BLP baseline's bitline profiling readout.
func (s *Store) MaxSelectedColCount(line uint64) (int, error) {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return 0, err
	}
	cs := s.cols[s.geom.GlobalRow(loc)/uint64(s.geom.MatRows)]
	if cs == nil {
		return 0, nil
	}
	base := loc.Slot * 8
	m := uint16(0)
	for mat := 0; mat < BlockSize; mat++ {
		for k := 0; k < 8; k++ {
			if c := cs[mat][base+k]; c > m {
				m = c
			}
		}
	}
	return int(m), nil
}

// MaxRowCounterUnshifted returns C^w_lrs as it would be if every stored
// block were reverse-shifted into LADDER-Basic's raw bit layout. The
// Figure 15 estimation-accuracy study compares LADDER-Est's estimates
// (taken over shifted data) against exactly this quantity.
func (s *Store) MaxRowCounterUnshifted(line uint64) (int, error) {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return 0, err
	}
	r := s.row(s.geom.GlobalRow(loc))
	if r == nil {
		return 0, nil
	}
	counters := r.unshifted
	if !s.trackUnshifted {
		counters = r.unshiftedCounts()
	}
	return int(slices.Max(counters[:])), nil
}

// RowCounters returns a copy of the exact per-wordline LRS counters of the
// wordline group containing the given line address.
func (s *Store) RowCounters(line uint64) ([BlockSize]uint16, error) {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return [BlockSize]uint16{}, err
	}
	r := s.row(s.geom.GlobalRow(loc))
	if r == nil {
		return [BlockSize]uint16{}, nil
	}
	return r.counters, nil
}

// MaxRowCounter returns the exact worst-wordline LRS count C^w_lrs of the
// wordline group containing the line — the quantity the Oracle scheme is
// allowed to read for free and LADDER must estimate.
func (s *Store) MaxRowCounter(line uint64) (int, error) {
	cs, err := s.RowCounters(line)
	if err != nil {
		return 0, err
	}
	return int(slices.Max(cs[:])), nil
}

// RecountRow recomputes the row counters from the stored data, for
// validation against the incremental ones.
func (s *Store) RecountRow(line uint64) ([BlockSize]uint16, error) {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return [BlockSize]uint16{}, err
	}
	var out [BlockSize]uint16
	r := s.row(s.geom.GlobalRow(loc))
	if r == nil {
		return out, nil
	}
	bits.ColumnOnes(&out, r.data[:])
	return out, nil
}

// RowWrites returns how many block writes landed in the row containing
// the line address.
func (s *Store) RowWrites(line uint64) (uint64, error) {
	loc, err := s.geom.Decode(line)
	if err != nil {
		return 0, err
	}
	r := s.row(s.geom.GlobalRow(loc))
	if r == nil {
		return 0, nil
	}
	return r.writes, nil
}

// TotalWrites returns the total number of block writes served.
func (s *Store) TotalWrites() uint64 { return s.totalWrites }

// BankWrites returns a copy of the per-bank block-write counts, indexed
// densely as ((channel*ranks)+rank)*banks + bank. The run report exports
// these as the per-bank wear distribution.
func (s *Store) BankWrites() []uint64 { return append([]uint64(nil), s.bankWrites...) }

// TouchedRows returns the number of allocated (written) wordline groups.
func (s *Store) TouchedRows() int { return len(s.rows) }

// MaxRowWrites returns the largest per-row write count, the quantity the
// worst-cell lifetime model keys on.
func (s *Store) MaxRowWrites() uint64 {
	var m uint64
	for _, r := range s.rows {
		if r.writes > m {
			m = r.writes
		}
	}
	return m
}

// String summarizes the store.
func (s *Store) String() string {
	return fmt.Sprintf("reram.Store{rows: %d, writes: %d}", len(s.rows), s.totalWrites)
}
