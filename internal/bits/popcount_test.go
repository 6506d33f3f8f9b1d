package bits

import (
	mathbits "math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func randLine(r *rand.Rand) Line {
	var l Line
	r.Read(l[:])
	return l
}

func TestOnesZeroLine(t *testing.T) {
	var l Line
	if got := l.Ones(); got != 0 {
		t.Fatalf("Ones of zero line = %d, want 0", got)
	}
}

func TestOnesAllOnes(t *testing.T) {
	var l Line
	for i := range l {
		l[i] = 0xff
	}
	if got := l.Ones(); got != LineSize*8 {
		t.Fatalf("Ones of all-ones line = %d, want %d", got, LineSize*8)
	}
}

func TestOnesMatchesCountOnes(t *testing.T) {
	f := func(l Line) bool { return l.Ones() == CountOnes(l[:]) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorstByteBoundsAverage(t *testing.T) {
	// The worst byte is at least ceil(total/64) and at most 8.
	f := func(l Line) bool {
		w := WorstByte(l[:])
		total := l.Ones()
		lo := (total + LineSize - 1) / LineSize
		return w >= lo && w <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorstByteEmpty(t *testing.T) {
	if got := WorstByte(nil); got != 0 {
		t.Fatalf("WorstByte(nil) = %d, want 0", got)
	}
}

func TestWorstByteExact(t *testing.T) {
	p := []byte{0x00, 0x0f, 0xf3, 0x80}
	if got := WorstByte(p); got != 6 {
		t.Fatalf("WorstByte = %d, want 6", got)
	}
}

func TestDiffSelfIsZero(t *testing.T) {
	f := func(l Line) bool { return Diff(l[:], l[:]) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDiffComplement(t *testing.T) {
	var a, b Line
	for i := range a {
		a[i] = 0xaa
		b[i] = 0x55
	}
	if got := Diff(a[:], b[:]); got != LineSize*8 {
		t.Fatalf("Diff of complements = %d, want %d", got, LineSize*8)
	}
}

func TestSetsAndResetsPartitionDiff(t *testing.T) {
	f := func(a, b Line) bool {
		sets, resets := SetsAndResets(a[:], b[:])
		return sets+resets == Diff(a[:], b[:]) && sets >= 0 && resets >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetsAndResetsDirections(t *testing.T) {
	old := []byte{0b1010}
	neu := []byte{0b0110}
	sets, resets := SetsAndResets(old, neu)
	if sets != 1 || resets != 1 {
		t.Fatalf("got sets=%d resets=%d, want 1,1", sets, resets)
	}
}

func TestOnesConservationUnderSetsResets(t *testing.T) {
	// ones(new) = ones(old) + sets - resets
	f := func(a, b Line) bool {
		sets, resets := SetsAndResets(a[:], b[:])
		return b.Ones() == a.Ones()+sets-resets
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOnesPerByte(t *testing.T) {
	p := []byte{0xff, 0x00, 0x01, 0x7e}
	dst := make([]int, len(p))
	n := OnesPerByte(p, dst)
	if n != 4 {
		t.Fatalf("n = %d, want 4", n)
	}
	want := []int{8, 0, 1, 6}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
}

// TestColumnOnes checks the lane-batched column counts against a plain
// per-byte count, over line counts that straddle the lane flush.
func TestColumnOnes(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 30, 31, 32, 62, 64, 100} {
		ls := make([]Line, n)
		for i := range ls {
			ls[i] = randLine(r)
		}
		if n == 64 {
			for i := range ls {
				for k := range ls[i] {
					ls[i][k] = 0xff
				}
			}
		}
		var got, want [LineSize]uint16
		for m := range got {
			got[m] = uint16(m) // ColumnOnes adds to what dst holds
			want[m] = uint16(m)
		}
		ColumnOnes(&got, ls)
		for i := range ls {
			for m, b := range ls[i] {
				want[m] += uint16(mathbits.OnesCount8(b))
			}
		}
		if got != want {
			t.Fatalf("%d lines: ColumnOnes = %v, want %v", n, got, want)
		}
	}
}

// TestColumnOnesDelta checks that replacing a line moves the counts
// exactly as recounting would, including counts that drop to zero.
func TestColumnOnesDelta(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ls := make([]Line, 40)
	for i := range ls {
		ls[i] = randLine(r)
	}
	var got [LineSize]uint16
	ColumnOnes(&got, ls)
	for step := 0; step < 200; step++ {
		i := r.Intn(len(ls))
		neu := ls[i]
		switch step % 3 {
		case 0:
			neu = randLine(r)
		case 1:
			neu[r.Intn(LineSize)] ^= byte(r.Intn(256))
		default:
			neu = Line{}
		}
		ColumnOnesDelta(&got, &ls[i], &neu)
		ls[i] = neu
		var want [LineSize]uint16
		ColumnOnes(&want, ls)
		if got != want {
			t.Fatalf("step %d: delta-maintained counts diverge from a recount", step)
		}
	}
}
