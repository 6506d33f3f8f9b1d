package trace

import "testing"

// sinkAccess keeps the compiler from discarding Next's result.
var sinkAccess Access

// BenchmarkNext times one access of the synthesized stream. lbm is the
// write-heavy, incompressible case (trace synthesis dominates), mcf and
// astar are read-heavy, and cannl writes mostly compressible lines.
func BenchmarkNext(b *testing.B) {
	for _, name := range []string{"lbm", "mcf", "astar", "cannl"} {
		b.Run(name, func(b *testing.B) {
			g, err := NewGenerator(Profiles[name], 1, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkAccess = g.Next()
			}
		})
	}
}
