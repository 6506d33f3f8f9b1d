package trace

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ladder/internal/bits"
)

// refGenerator is the generator as written against *rand.Rand alone: one
// Float64 draw per written-data bit. It is the reference the integer
// kernel must reproduce bit for bit.
type refGenerator struct {
	Generator
	rng *rand.Rand
}

func newRefGenerator(t *testing.T, p Profile, seed int64, basePage uint64) *refGenerator {
	t.Helper()
	g, err := NewGenerator(p, seed, basePage)
	if err != nil {
		t.Fatal(err)
	}
	r := &refGenerator{Generator: *g, rng: rand.New(rand.NewSource(seed))}
	r.Generator.src, r.Generator.rng = nil, nil
	return r
}

func (g *refGenerator) Next() Access {
	var a Access
	a.Gap = int(g.rng.ExpFloat64() * g.meanGap)
	a.Write = g.rng.Float64() < g.writeP
	if a.Write {
		a.Line = g.nextWriteLine()
		a.Data = g.synthesize(g.wPage)
		return a
	}
	if g.rng.Float64() < g.prof.PageLocality {
		g.curSlot++
		if g.curSlot >= BlocksPerPage || g.rng.Float64() < 0.1 {
			g.curSlot = g.rng.Intn(BlocksPerPage)
		}
	} else {
		g.curPage = g.jumpPage()
		g.curSlot = g.rng.Intn(BlocksPerPage)
	}
	a.Line = (g.basePage+g.curPage)*BlocksPerPage + uint64(g.curSlot)
	return a
}

func (g *refGenerator) jumpPage() uint64 {
	if g.rng.Float64() < g.prof.HotTraffic {
		return uint64(g.rng.Int63n(int64(g.hotPages)))
	}
	return g.hotPages + uint64(g.rng.Int63n(int64(maxU(uint64(g.prof.WorkingSetPages)-g.hotPages, 1))))
}

func (g *refGenerator) nextWriteLine() uint64 {
	if g.wBurst <= 0 {
		if g.rng.Float64() < 0.5 {
			g.wPage = (g.wPage + 1) % uint64(g.prof.WorkingSetPages)
		} else {
			g.wPage = g.jumpPage()
		}
		g.wSlot = g.rng.Intn(BlocksPerPage)
		g.wBurst = 1 + int(g.rng.ExpFloat64()*(g.prof.WriteBurst-1))
	}
	g.wBurst--
	g.wSlot = (g.wSlot + 1) % BlocksPerPage
	return (g.basePage+g.wPage)*BlocksPerPage + uint64(g.wSlot)
}

func (g *refGenerator) synthesize(page uint64) bits.Line {
	var l bits.Line
	if g.rng.Float64() < g.prof.Compressibility {
		for w := 0; w < bits.LineSize/4; w++ {
			switch g.rng.Intn(4) {
			case 0:
				l[w*4] = byte(g.rng.Intn(16))
			case 1:
				l[w*4] = byte(g.rng.Intn(256))
			}
		}
		return l
	}
	d := g.prof.OnesDensity
	c := g.prof.Clustering
	dHot := d + (0.55-d)*c
	if dHot < d {
		dHot = d
	}
	dCold := d * (1 - 0.9*c)
	hot := pageHotPositions(page, g.seed)
	for j := 0; j < bits.LineSize; j++ {
		density := dCold
		if hot[j] {
			density = dHot
		}
		var b byte
		for k := 0; k < 8; k++ {
			if g.rng.Float64() < density {
				b |= 1 << uint(k)
			}
		}
		l[j] = b
	}
	return l
}

// TestStreamMatchesReference checks the whole access stream (gap,
// direction, line and data) against the *rand.Rand reference for every
// profile, over several seeds (negative ones included) and two base
// pages. Each stream crosses hundreds of 607-word block refills.
func TestStreamMatchesReference(t *testing.T) {
	names := make([]string, 0, len(Profiles))
	for name := range Profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	const n = 4000
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, -7, 1 << 40, math.MinInt64} {
				for _, base := range []uint64{0, 1 << 20} {
					got, err := NewGenerator(Profiles[name], seed, base)
					if err != nil {
						t.Fatal(err)
					}
					want := newRefGenerator(t, Profiles[name], seed, base)
					for i := 0; i < n; i++ {
						if a, b := got.Next(), want.Next(); a != b {
							t.Fatalf("seed %d base %d: access %d = %+v, reference %+v", seed, base, i, a, b)
						}
					}
				}
			}
		})
	}
}

// TestSourceMatchesStdlib checks the captured-and-refilled stream against
// rand.NewSource directly, and that Seed re-captures it.
func TestSourceMatchesStdlib(t *testing.T) {
	for _, seed := range []int64{0, 1, -1, 89482311, math.MaxInt64} {
		s := newSource(seed ^ 0x5a5a)
		s.Uint64()
		s.Seed(seed)
		std := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 5*rngLen+3; i++ {
			if got, want := s.Uint64(), std.Uint64(); got != want {
				t.Fatalf("seed %d: draw %d = %#x, want %#x", seed, i, got, want)
			}
			if got, want := s.Int63(), std.Int63(); got != want {
				t.Fatalf("seed %d: Int63 after draw %d = %#x, want %#x", seed, i, got, want)
			}
		}
	}
}

// TestThresholdMatchesFloat64 checks x < c(p) against the float compare
// rand.Float64 makes, float64(x)/2⁶³ < p, around the threshold.
func TestThresholdMatchesFloat64(t *testing.T) {
	ps := []float64{
		0, 1, math.SmallestNonzeroFloat64, 0x1p-1022, // smallest normal
		math.Nextafter(0, 1), 0.5, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		math.Nextafter(1, 0), 0x1p-63, math.Nextafter(0x1p-63, 1), 0.1, 0.55,
	}
	for _, p := range Profiles {
		ps = append(ps, p.OnesDensity, p.Compressibility, p.PageLocality, p.HotTraffic)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		ps = append(ps, r.Float64(), math.Ldexp(r.Float64(), -r.Intn(1100)))
	}
	for _, p := range ps {
		c := threshold(p)
		for d := -3; d <= 3; d++ {
			x := c + uint64(d)
			if (d < 0 && c < uint64(-d)) || x >= redrawBound {
				continue
			}
			if got, want := x < c, float64(x)/(1<<63) < p; got != want {
				t.Fatalf("p = %v (%#x): c = %d, x = %d: x < c is %v, float compare %v", p, math.Float64bits(p), c, x, got, want)
			}
		}
	}
	if c := threshold(math.NaN()); c != 0 {
		t.Fatalf("threshold(NaN) = %d, want 0 (no draw is below NaN)", c)
	}
}

// TestByteBitsRedraw places draws at and around redrawBound inside the
// eight-draw window and across the block boundary, and draws equal to
// c(p) and c(p)-1 on both the eight-draw and the one-at-a-time path, and
// checks byteBits against eight rand.Float64() < p compares from the same
// state.
func TestByteBitsRedraw(t *testing.T) {
	fill := rand.New(rand.NewSource(11))
	cases := []struct {
		pos       int
		put       map[int]uint64 // block index -> word
		atC, belC []int          // block indices set to c(p) and c(p)-1
		name      string
	}{
		{0, nil, nil, nil, "no redraw"},
		{0, map[int]uint64{0: redrawBound}, nil, nil, "first draw at the bound"},
		{8, map[int]uint64{11: redrawBound - 1}, nil, nil, "just below the bound"},
		{16, map[int]uint64{23: 1<<63 - 1}, nil, nil, "last draw of the window"},
		{24, map[int]uint64{26: 1<<64 - 1, 27: redrawBound, 28: redrawBound + 7}, nil, nil, "three in a row"},
		{40, map[int]uint64{41: 1<<63 + 5}, nil, nil, "top bit only set"},
		{rngLen - 8, map[int]uint64{rngLen - 1: redrawBound}, nil, nil, "last full window"},
		{rngLen - 5, map[int]uint64{rngLen - 2: redrawBound}, nil, nil, "redraw before the refill"},
		// Entry 0 of the next block is blk[0] + blk[334].
		{rngLen - 3, map[int]uint64{0: redrawBound, 334: 0}, nil, nil, "redraw after the refill"},
		{rngLen - 1, map[int]uint64{rngLen - 1: redrawBound, 0: 1<<63 - 1, 334: 0}, nil, nil, "redraws on both sides"},
		{48, nil, []int{48, 50, 55}, []int{49, 54}, "draws at the threshold"},
		{56, map[int]uint64{60: redrawBound}, []int{57, 62}, []int{58, 63}, "threshold draws beside a redraw"},
		{rngLen - 4, nil, []int{rngLen - 3}, []int{rngLen - 2, rngLen - 1}, "threshold draws before the refill"},
	}
	for _, tc := range cases {
		for _, p := range []float64{0, 0.3, 0.5, 1} {
			t.Run(fmt.Sprintf("%s/p=%v", tc.name, p), func(t *testing.T) {
				var s source
				for i := range s.blk {
					s.blk[i] = fill.Uint64()
				}
				for i, w := range tc.put {
					s.blk[i] = w
				}
				c := threshold(p)
				for _, i := range tc.atC {
					s.blk[i] = c
				}
				for _, i := range tc.belC {
					s.blk[i] = c - 1 // c = 0 wraps to a redraw
				}
				s.pos = tc.pos
				ref := s
				r := rand.New(&ref)
				var want byte
				for k := 0; k < 8; k++ {
					if r.Float64() < p {
						want |= 1 << k
					}
				}
				if got := s.byteBits(c); got != want {
					t.Fatalf("byteBits = %08b, Float64 reference %08b", got, want)
				}
				if s != ref {
					t.Fatalf("byteBits consumed to position %d, reference to %d", s.pos, ref.pos)
				}
			})
		}
	}
}
