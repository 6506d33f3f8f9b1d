//go:build !race

package trace

import "testing"

// TestNextAllocFree pins the generator's allocation contract: producing
// an access, written data included, allocates nothing, for a write-heavy
// incompressible profile and a mostly compressible one. The race detector
// instruments allocations, so the file is excluded under -race.
func TestNextAllocFree(t *testing.T) {
	for _, name := range []string{"lbm", "cannl"} {
		g, err := NewGenerator(Profiles[name], 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(2000, func() { sinkAccess = g.Next() }); n != 0 {
			t.Errorf("%s: Next allocates %.2f per access, want 0", name, n)
		}
	}
}
