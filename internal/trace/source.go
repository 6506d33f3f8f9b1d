package trace

import "math/rand"

// The standard library's seeded source is an additive lagged-Fibonacci
// generator: its n-th output is y[n] = y[n-607] + y[n-273] (mod 2⁶⁴), and
// its whole state is the last 607 outputs. So the first 607 outputs of
// rand.NewSource(seed) are enough to continue its stream exactly, without
// a copy of its seeding tables.
const (
	rngLen = 607
	rngTap = 273

	int63Mask = 1<<63 - 1
	// redrawBound is the least 63-bit draw x for which float64(x)/2⁶³
	// rounds to 1; rand.Float64 draws again on every x at or above it.
	redrawBound = 1<<63 - 512
)

// source continues the stream rand.NewSource(seed) would produce, one
// 607-word block at a time, and implements rand.Source64 so that a
// *rand.Rand over it and direct reads of its block share one state.
type source struct {
	pos int
	blk [rngLen]uint64
}

func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed captures the first block of rand.NewSource(seed)'s stream.
func (s *source) Seed(seed int64) {
	std := rand.NewSource(seed).(rand.Source64)
	for i := range s.blk {
		s.blk[i] = std.Uint64()
	}
	s.pos = 0
}

// refill replaces the block with the next 607 outputs in place: entry i
// becomes y[n-607] + y[n-273], where y[n-273] sits 334 entries ahead in
// the old block for the first 273 entries and 273 entries back in the
// new block for the rest.
func (s *source) refill() {
	b := &s.blk
	lo, hi := b[:rngTap], b[rngLen-rngTap:]
	for i := range lo {
		lo[i] += hi[i]
	}
	for i := rngTap; i < rngLen; i++ {
		b[i] += b[i-rngTap]
	}
	s.pos = 0
}

func (s *source) Uint64() uint64 {
	if s.pos == rngLen {
		s.refill()
	}
	x := s.blk[s.pos]
	s.pos++
	return x
}

func (s *source) Int63() int64 { return int64(s.Uint64() & int63Mask) }

// intn returns rand.Rand.Intn(n) for a power of two n ≤ 2³¹, which math/rand
// computes as Int31() & (n-1).
func (s *source) intn(n int) int { return int(s.Int63()>>32) & (n - 1) }

// threshold returns c(p), the least 63-bit x with float64(x) ≥ p·2⁶³.
// float64 conversion is monotone, so for every draw x below redrawBound,
// float64(x)/2⁶³ < p — rand.Float64() < p — holds exactly when x < c(p).
func threshold(p float64) uint64 {
	if !(p > 0) { // also NaN, which no draw is below
		return 0
	}
	target := p * (1 << 63) // exact: scaling by a power of two
	lo, hi := uint64(0), uint64(1<<63)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid) >= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// bit returns 1 when rand.Float64() < p would hold for c = threshold(p),
// drawing again where Float64 would.
func (s *source) bit(c uint64) uint64 {
	for {
		x := s.Uint64() & int63Mask
		if x < redrawBound {
			return (x - c) >> 63 // sign of x - c: 1 exactly when x < c
		}
	}
}

// byteBits packs eight bit(c) draws, the k-th into bit k. When eight
// words remain in the block it reads them in one step, and falls back to
// one draw at a time only if one of them must be redrawn: x + 512 reaches
// bit 63 exactly when x ≥ redrawBound.
func (s *source) byteBits(c uint64) byte {
	if p := s.pos; p <= rngLen-8 {
		w := s.blk[p : p+8 : p+8]
		x0, x1, x2, x3 := w[0]&int63Mask, w[1]&int63Mask, w[2]&int63Mask, w[3]&int63Mask
		x4, x5, x6, x7 := w[4]&int63Mask, w[5]&int63Mask, w[6]&int63Mask, w[7]&int63Mask
		const r = 1<<63 - redrawBound
		if ((x0+r)|(x1+r)|(x2+r)|(x3+r)|(x4+r)|(x5+r)|(x6+r)|(x7+r))>>63 == 0 {
			s.pos = p + 8
			return byte((x0-c)>>63 | (x1-c)>>63<<1 | (x2-c)>>63<<2 | (x3-c)>>63<<3 |
				(x4-c)>>63<<4 | (x5-c)>>63<<5 | (x6-c)>>63<<6 | (x7-c)>>63<<7)
		}
	}
	var b uint64
	for k := 0; k < 8; k++ {
		b |= s.bit(c) << k
	}
	return byte(b)
}
