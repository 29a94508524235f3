// Package logic provides fixed-width binary words, two's-complement
// encoding, and the Hamming-distance machinery the Hd power macro-model is
// built on.
//
// A Word is a little-endian bit vector: bit 0 is the LSB. Words are value
// types backed by uint64 limbs so that modules with more than 64 inputs
// (e.g. two 16-bit multiplier ports plus carry inputs) stay cheap to copy
// and compare.
package logic

import (
	"fmt"
	"math/bits"
	"strings"
)

// WordLimbBits is the number of bits stored per limb.
const WordLimbBits = 64

// Word is a fixed-width bit vector. The zero value is a zero-width word.
type Word struct {
	width int
	limbs []uint64
}

// NewWord returns an all-zero word of the given width.
// It panics if width is negative.
func NewWord(width int) Word {
	if width < 0 {
		panic(fmt.Sprintf("logic: negative word width %d", width))
	}
	n := (width + WordLimbBits - 1) / WordLimbBits
	return Word{width: width, limbs: make([]uint64, n)}
}

// NewWords returns n all-zero words of the given width that share one
// backing array, so a batch of vectors costs two allocations instead of
// one per word. Each word's limbs are capped at its own width, so Set on
// one word never reaches its neighbours.
func NewWords(n, width int) []Word {
	if width < 0 {
		panic(fmt.Sprintf("logic: negative word width %d", width))
	}
	per := (width + WordLimbBits - 1) / WordLimbBits
	limbs := make([]uint64, n*per)
	out := make([]Word, n)
	for i := range out {
		out[i] = Word{width: width, limbs: limbs[i*per : (i+1)*per : (i+1)*per]}
	}
	return out
}

// FromUint returns a word of the given width holding the low `width` bits
// of v.
func FromUint(v uint64, width int) Word {
	w := NewWord(width)
	if width == 0 {
		return w
	}
	if width < WordLimbBits {
		v &= (1 << uint(width)) - 1
	}
	if len(w.limbs) > 0 {
		w.limbs[0] = v
	}
	return w
}

// FromInt encodes v as a two's-complement word of the given width.
// Values outside the representable range wrap modulo 2^width.
func FromInt(v int64, width int) Word {
	return FromUint(uint64(v), width)
}

// FromBits builds a word from a little-endian bit slice (b[0] is the LSB).
func FromBits(b []bool) Word {
	w := NewWord(len(b))
	for i, bit := range b {
		if bit {
			w.Set(i, true)
		}
	}
	return w
}

// ParseWord parses a binary string written MSB-first, e.g. "1010" is the
// value 10 with width 4. Underscores are ignored as digit separators.
func ParseWord(s string) (Word, error) {
	s = strings.ReplaceAll(s, "_", "")
	w := NewWord(len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			w.Set(len(s)-1-i, true)
		default:
			return Word{}, fmt.Errorf("logic: invalid binary digit %q in %q", c, s)
		}
	}
	return w, nil
}

// MustParseWord is ParseWord that panics on error; for tests and constants.
func MustParseWord(s string) Word {
	w, err := ParseWord(s)
	if err != nil {
		panic(err)
	}
	return w
}

// Width returns the number of bits in the word.
func (w Word) Width() int { return w.width }

// Bit reports whether bit i is set. It panics if i is out of range.
func (w Word) Bit(i int) bool {
	w.check(i)
	return w.limbs[i/WordLimbBits]>>(uint(i)%WordLimbBits)&1 == 1
}

// Set sets bit i to v. It panics if i is out of range.
func (w *Word) Set(i int, v bool) {
	w.check(i)
	mask := uint64(1) << (uint(i) % WordLimbBits)
	if v {
		w.limbs[i/WordLimbBits] |= mask
	} else {
		w.limbs[i/WordLimbBits] &^= mask
	}
}

func (w Word) check(i int) {
	if i < 0 || i >= w.width {
		panic(fmt.Sprintf("logic: bit index %d out of range for width %d", i, w.width))
	}
}

// Clone returns an independent copy of w.
func (w Word) Clone() Word {
	c := Word{width: w.width, limbs: make([]uint64, len(w.limbs))}
	copy(c.limbs, w.limbs)
	return c
}

// CopyFrom overwrites w with the bits of src without allocating. It
// panics if the widths differ.
func (w *Word) CopyFrom(src Word) {
	if w.width != src.width {
		panic(fmt.Sprintf("logic: copy of %d-bit word into %d-bit word", src.width, w.width))
	}
	copy(w.limbs, src.limbs)
}

// Uint returns the word interpreted as an unsigned integer.
// It panics if the width exceeds 64 bits.
func (w Word) Uint() uint64 {
	if w.width > WordLimbBits {
		panic(fmt.Sprintf("logic: Uint on %d-bit word", w.width))
	}
	if len(w.limbs) == 0 {
		return 0
	}
	return w.limbs[0] & w.topMask()
}

// Int returns the word interpreted as a two's-complement signed integer.
// It panics if the width exceeds 64 bits or is zero.
func (w Word) Int() int64 {
	if w.width == 0 {
		panic("logic: Int on zero-width word")
	}
	v := w.Uint()
	if w.Bit(w.width - 1) { // sign extend
		if w.width < WordLimbBits {
			v |= ^uint64(0) << uint(w.width)
		}
	}
	return int64(v)
}

func (w Word) topMask() uint64 {
	if w.width == 0 {
		return 0
	}
	r := w.width % WordLimbBits
	if r == 0 {
		return ^uint64(0)
	}
	return (1 << uint(r)) - 1
}

// Equal reports whether two words have identical width and bits.
func (w Word) Equal(o Word) bool {
	if w.width != o.width {
		return false
	}
	for i := range w.limbs {
		if w.masked(i) != o.masked(i) {
			return false
		}
	}
	return true
}

func (w Word) masked(limb int) uint64 {
	v := w.limbs[limb]
	if limb == len(w.limbs)-1 {
		v &= w.topMask()
	}
	return v
}

// PopCount returns the number of set bits.
func (w Word) PopCount() int {
	n := 0
	for i := range w.limbs {
		n += bits.OnesCount64(w.masked(i))
	}
	return n
}

// String renders the word MSB-first, the conventional way to read a bus.
func (w Word) String() string {
	var b strings.Builder
	for i := w.width - 1; i >= 0; i-- {
		if w.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Bits returns the word as a little-endian bool slice.
func (w Word) Bits() []bool {
	out := make([]bool, w.width)
	for i := range out {
		out[i] = w.Bit(i)
	}
	return out
}

// Concat returns the concatenation of w (low part) and hi (high part):
// the result has width w.Width()+hi.Width(), with w occupying the LSBs.
func (w Word) Concat(hi Word) Word {
	out := NewWord(w.width + hi.width)
	for i := 0; i < w.width; i++ {
		out.Set(i, w.Bit(i))
	}
	for i := 0; i < hi.width; i++ {
		out.Set(w.width+i, hi.Bit(i))
	}
	return out
}

// Slice returns bits [lo, hi) as a new word of width hi-lo.
func (w Word) Slice(lo, hi int) Word {
	if lo < 0 || hi > w.width || lo > hi {
		panic(fmt.Sprintf("logic: bad slice [%d,%d) of %d-bit word", lo, hi, w.width))
	}
	out := NewWord(hi - lo)
	for i := lo; i < hi; i++ {
		out.Set(i-lo, w.Bit(i))
	}
	return out
}

// Hd returns the Hamming distance between two equal-width words: the
// number of bit positions in which they differ (paper eq. 1).
// It panics on width mismatch.
func Hd(u, v Word) int {
	if u.width != v.width {
		panic(fmt.Sprintf("logic: Hd width mismatch %d vs %d", u.width, v.width))
	}
	d := 0
	for i := range u.limbs {
		d += bits.OnesCount64(u.masked(i) ^ v.masked(i))
	}
	return d
}

// StableZeros returns the number of bit positions that are zero in both u
// and v — the second index of the enhanced model's event classes E_{i,z}.
// It panics on width mismatch.
func StableZeros(u, v Word) int {
	if u.width != v.width {
		panic(fmt.Sprintf("logic: StableZeros width mismatch %d vs %d", u.width, v.width))
	}
	n := 0
	for i := range u.limbs {
		stable0 := ^(u.masked(i) | v.masked(i))
		if i == len(u.limbs)-1 {
			stable0 &= u.topMask()
		}
		n += bits.OnesCount64(stable0)
	}
	return n
}

// StableOnes returns the number of bit positions that are one in both u
// and v.
func StableOnes(u, v Word) int {
	if u.width != v.width {
		panic(fmt.Sprintf("logic: StableOnes width mismatch %d vs %d", u.width, v.width))
	}
	n := 0
	for i := range u.limbs {
		n += bits.OnesCount64(u.masked(i) & v.masked(i))
	}
	return n
}
