package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewWordZero(t *testing.T) {
	for _, width := range []int{0, 1, 7, 63, 64, 65, 128, 200} {
		w := NewWord(width)
		if w.Width() != width {
			t.Errorf("NewWord(%d).Width() = %d", width, w.Width())
		}
		if w.PopCount() != 0 {
			t.Errorf("NewWord(%d) has %d set bits", width, w.PopCount())
		}
	}
}

func TestNewWordNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWord(-1) did not panic")
		}
	}()
	NewWord(-1)
}

// NewWords hands out independent words over one backing array: setting
// the top bit of one never leaks into its neighbours.
func TestNewWordsIndependent(t *testing.T) {
	for _, width := range []int{0, 1, 64, 65, 130} {
		ws := NewWords(3, width)
		if width > 0 {
			ws[1].Set(width-1, true)
			ws[1].Set(0, true)
		}
		for i, w := range ws {
			want := 0
			if i == 1 && width > 0 {
				want = 1 + min(1, width-1)
			}
			if w.Width() != width || w.PopCount() != want {
				t.Errorf("width %d: word %d has width %d, %d set bits; want %d",
					width, i, w.Width(), w.PopCount(), want)
			}
		}
	}
}

func TestCopyFrom(t *testing.T) {
	src := MustParseWord("1011_0010_1")
	dst := MustParseWord("0100_1111_0")
	dst.CopyFrom(src)
	if !dst.Equal(src) {
		t.Fatalf("CopyFrom: got %s, want %s", dst, src)
	}
	src.Set(0, false)
	if !dst.Bit(0) {
		t.Fatal("CopyFrom aliased the source")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("CopyFrom across widths did not panic")
		}
	}()
	dst.CopyFrom(NewWord(3))
}

func TestFromUintRoundTrip(t *testing.T) {
	cases := []struct {
		v     uint64
		width int
		want  uint64
	}{
		{0, 8, 0},
		{255, 8, 255},
		{256, 8, 0}, // wraps
		{0x1ff, 8, 0xff},
		{^uint64(0), 64, ^uint64(0)},
		{1, 1, 1},
		{2, 1, 0},
		{0xdeadbeef, 32, 0xdeadbeef},
	}
	for _, c := range cases {
		got := FromUint(c.v, c.width).Uint()
		if got != c.want {
			t.Errorf("FromUint(%#x,%d).Uint() = %#x, want %#x", c.v, c.width, got, c.want)
		}
	}
}

func TestFromIntTwosComplement(t *testing.T) {
	cases := []struct {
		v     int64
		width int
	}{
		{0, 8}, {1, 8}, {-1, 8}, {127, 8}, {-128, 8},
		{-1, 16}, {32767, 16}, {-32768, 16},
		{-5, 4}, {7, 4}, {-8, 4},
	}
	for _, c := range cases {
		w := FromInt(c.v, c.width)
		if got := w.Int(); got != c.v {
			t.Errorf("FromInt(%d,%d).Int() = %d", c.v, c.width, got)
		}
	}
}

func TestIntSignExtension(t *testing.T) {
	w := MustParseWord("1000") // -8 in 4-bit two's complement
	if got := w.Int(); got != -8 {
		t.Errorf("1000 as int = %d, want -8", got)
	}
	w = MustParseWord("1111")
	if got := w.Int(); got != -1 {
		t.Errorf("1111 as int = %d, want -1", got)
	}
	w = MustParseWord("0111")
	if got := w.Int(); got != 7 {
		t.Errorf("0111 as int = %d, want 7", got)
	}
}

func TestParseWord(t *testing.T) {
	w, err := ParseWord("1010")
	if err != nil {
		t.Fatal(err)
	}
	if w.Uint() != 10 || w.Width() != 4 {
		t.Errorf("ParseWord(1010) = %v (width %d)", w.Uint(), w.Width())
	}
	if _, err := ParseWord("10a0"); err == nil {
		t.Error("ParseWord(10a0) did not fail")
	}
	w = MustParseWord("1111_0000")
	if w.Uint() != 0xf0 || w.Width() != 8 {
		t.Errorf("underscore parse = %#x width %d", w.Uint(), w.Width())
	}
}

func TestStringRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		width := 1 + rng.Intn(100)
		w := NewWord(width)
		for b := 0; b < width; b++ {
			w.Set(b, rng.Intn(2) == 1)
		}
		back := MustParseWord(w.String())
		if !w.Equal(back) {
			t.Fatalf("round trip failed for %s", w)
		}
	}
}

func TestSetAndBit(t *testing.T) {
	w := NewWord(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		w.Set(i, true)
		if !w.Bit(i) {
			t.Errorf("bit %d not set", i)
		}
		w.Set(i, false)
		if w.Bit(i) {
			t.Errorf("bit %d not cleared", i)
		}
	}
}

func TestBitOutOfRangePanics(t *testing.T) {
	w := NewWord(8)
	for _, i := range []int{-1, 8, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d) did not panic", i)
				}
			}()
			w.Bit(i)
		}()
	}
}

func TestHdKnown(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"0000", "0000", 0},
		{"0000", "1111", 4},
		{"1010", "0101", 4},
		{"1010", "1011", 1},
		{"11110000", "00001111", 8},
	}
	for _, c := range cases {
		got := Hd(MustParseWord(c.a), MustParseWord(c.b))
		if got != c.want {
			t.Errorf("Hd(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestHdWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Hd width mismatch did not panic")
		}
	}()
	Hd(NewWord(4), NewWord(5))
}

func TestStableZerosOnes(t *testing.T) {
	u := MustParseWord("1100")
	v := MustParseWord("1010")
	// bit3: 1,1 stable one; bit2: 1,0; bit1: 0,1; bit0: 0,0 stable zero.
	if got := StableZeros(u, v); got != 1 {
		t.Errorf("StableZeros = %d, want 1", got)
	}
	if got := StableOnes(u, v); got != 1 {
		t.Errorf("StableOnes = %d, want 1", got)
	}
}

func TestConcatSlice(t *testing.T) {
	lo := MustParseWord("1010") // value 10
	hi := MustParseWord("11")   // value 3
	w := lo.Concat(hi)
	if w.Width() != 6 {
		t.Fatalf("Concat width = %d", w.Width())
	}
	if w.Uint() != 3<<4|10 {
		t.Errorf("Concat value = %#x", w.Uint())
	}
	if got := w.Slice(0, 4); !got.Equal(lo) {
		t.Errorf("Slice low = %s", got)
	}
	if got := w.Slice(4, 6); !got.Equal(hi) {
		t.Errorf("Slice high = %s", got)
	}
}

func TestSliceBadRangePanics(t *testing.T) {
	w := NewWord(8)
	for _, r := range [][2]int{{-1, 4}, {0, 9}, {5, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d,%d) did not panic", r[0], r[1])
				}
			}()
			w.Slice(r[0], r[1])
		}()
	}
}

func TestCloneIndependence(t *testing.T) {
	w := FromUint(0xff, 8)
	c := w.Clone()
	c.Set(0, false)
	if !w.Bit(0) {
		t.Error("Clone shares storage with original")
	}
}

func TestFromBits(t *testing.T) {
	w := FromBits([]bool{true, false, true}) // LSB-first: value 5
	if w.Uint() != 5 || w.Width() != 3 {
		t.Errorf("FromBits = %d width %d", w.Uint(), w.Width())
	}
	bits := w.Bits()
	if len(bits) != 3 || !bits[0] || bits[1] || !bits[2] {
		t.Errorf("Bits() = %v", bits)
	}
}

// Property: Hd is a metric on equal-width words.
func TestHdMetricProperties(t *testing.T) {
	const width = 48
	mk := func(v uint64) Word { return FromUint(v, width) }

	identity := func(a uint64) bool { return Hd(mk(a), mk(a)) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Error("identity:", err)
	}
	symmetry := func(a, b uint64) bool { return Hd(mk(a), mk(b)) == Hd(mk(b), mk(a)) }
	if err := quick.Check(symmetry, nil); err != nil {
		t.Error("symmetry:", err)
	}
	triangle := func(a, b, c uint64) bool {
		return Hd(mk(a), mk(c)) <= Hd(mk(a), mk(b))+Hd(mk(b), mk(c))
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Error("triangle:", err)
	}
}

// Property: Hd + StableZeros + StableOnes + (bit positions where exactly
// one word is 1 but which do not differ) — in fact every non-differing bit
// is either a stable zero or a stable one, so the three quantities
// partition the word.
func TestHdStablePartition(t *testing.T) {
	const width = 64
	f := func(a, b uint64) bool {
		u, v := FromUint(a, width), FromUint(b, width)
		return Hd(u, v)+StableZeros(u, v)+StableOnes(u, v) == width
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: two's-complement round trip for arbitrary ints in range.
func TestIntRoundTripProperty(t *testing.T) {
	f := func(v int16) bool {
		return FromInt(int64(v), 16).Int() == int64(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: PopCount(u XOR-free) — Hd(u, 0) equals PopCount(u).
func TestHdAgainstZeroIsPopCount(t *testing.T) {
	f := func(a uint64) bool {
		u := FromUint(a, 64)
		return Hd(u, NewWord(64)) == u.PopCount()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqualDifferentWidth(t *testing.T) {
	if FromUint(1, 4).Equal(FromUint(1, 5)) {
		t.Error("words of different widths compare equal")
	}
}

func TestWideWordHd(t *testing.T) {
	u := NewWord(128)
	v := NewWord(128)
	for i := 0; i < 128; i += 3 {
		v.Set(i, true)
	}
	if got, want := Hd(u, v), 43; got != want {
		t.Errorf("wide Hd = %d, want %d", got, want)
	}
	if got := StableZeros(u, v); got != 128-43 {
		t.Errorf("wide StableZeros = %d, want %d", got, 128-43)
	}
}

func BenchmarkHd64(b *testing.B) {
	u := FromUint(0xdeadbeefcafef00d, 64)
	v := FromUint(0x123456789abcdef0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Hd(u, v)
	}
}
