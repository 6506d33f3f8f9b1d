package reram

import (
	"math/rand"
	"testing"

	"ladder/internal/bits"
)

// benchRows is how many rows one benchmark store holds before it is
// replaced, so every prefill op is a first touch on a fresh row.
const benchRows = 1024

// storeOfKind returns a store configured the way a simulation run
// configures it for the named scheme family, with resident data at the
// simulator's default level:
//   - plain: no column tracking, no storage transform (Basic, Oracle, ...);
//   - shifted: bit-shifted storage plus unshifted counters (Est, Hybrid);
//   - blp: per-bitline column tracking (the BLP baseline).
func storeOfKind(tb testing.TB, kind string) *Store {
	s, err := NewStore(DefaultGeometry())
	if err != nil {
		tb.Fatal(err)
	}
	s.SetResident(2, 7+0x5eed)
	switch kind {
	case "plain":
		s.SetColumnTracking(false)
	case "shifted":
		s.SetColumnTracking(false)
		s.TrackUnshiftedCounters()
		s.SetResidentTransform(func(slot int, l bits.Line) bits.Line {
			return bits.Shifted(l, slot)
		})
	case "blp":
	default:
		tb.Fatalf("unknown store kind %q", kind)
	}
	return s
}

var storeKinds = []string{"plain", "shifted", "blp"}

// BenchmarkPrefill times one first-touch resident-row prefill per op.
func BenchmarkPrefill(b *testing.B) {
	for _, kind := range storeKinds {
		b.Run(kind, func(b *testing.B) {
			g := DefaultGeometry()
			var s *Store
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				row := uint64(i % benchRows)
				if row == 0 {
					b.StopTimer()
					s = storeOfKind(b, kind)
					b.StartTimer()
				}
				if err := s.EnsureRow(g.RowBaseLine(row)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWrite times one block write per op into rows that are
// already resident, so no op pays for a prefill.
func BenchmarkWrite(b *testing.B) {
	for _, kind := range storeKinds {
		b.Run(kind, func(b *testing.B) {
			g := DefaultGeometry()
			s := storeOfKind(b, kind)
			for row := uint64(0); row < benchRows; row++ {
				if err := s.EnsureRow(g.RowBaseLine(row)); err != nil {
					b.Fatal(err)
				}
			}
			// A fixed pool of writes: random lines of the resident rows,
			// carrying data whose bytes are nonzero one time in four.
			r := rand.New(rand.NewSource(1))
			lines := make([]uint64, 4096)
			data := make([]bits.Line, len(lines))
			for i := range lines {
				lines[i] = g.RowBaseLine(uint64(r.Intn(benchRows))) + uint64(r.Intn(BlocksPerRow))
				for k := range data[i] {
					if r.Intn(4) == 0 {
						data[i][k] = byte(r.Intn(256))
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % len(lines)
				if _, err := s.Write(lines[j], data[j]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
