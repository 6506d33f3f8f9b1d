//go:build !race

package reram

import (
	"testing"

	"ladder/internal/bits"
)

// TestStoreAllocFree pins the store's allocation contract: overwriting a
// block of an existing row allocates nothing, and a first-touch prefill
// allocates exactly the one rowState, under every scheme family's store
// configuration. The race detector instruments allocations, so the file
// is excluded under -race.
func TestStoreAllocFree(t *testing.T) {
	for _, kind := range storeKinds {
		s := storeOfKind(t, kind)
		// Room for every row touched below, so map growth is not counted;
		// every row sits in mat group 0, whose bitline counts are
		// allocated up front.
		s.rows = make(map[uint64]*rowState, 256)
		g := s.Geometry()
		key := uint64(0)
		s.ensure(key)
		if n := testing.AllocsPerRun(100, func() {
			key++
			s.ensure(key)
		}); n != 1 {
			t.Errorf("%s: first-touch prefill allocates %.0f per row, want 1", kind, n)
		}
		var l bits.Line
		slot := uint64(0)
		if n := testing.AllocsPerRun(100, func() {
			slot++
			l[slot%BlockSize] ^= byte(slot)
			if _, err := s.Write(g.RowBaseLine(slot%8)+slot%BlocksPerRow, l); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: overwrite allocates %.0f per write, want 0", kind, n)
		}
	}
}
