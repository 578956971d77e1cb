// Package bitmat provides packed bit vectors and bit matrices tailored to
// bit-level hardware simulation: row/column parallel Boolean operations,
// modular rotations (barrel shifts), diagonal walks, and transposition.
//
// Go has no numeric/matrix ecosystem suited to bit-level crossbar
// simulation, so this package is the substrate everything else builds on.
// Vectors are packed 64 bits per word; all operations are word-parallel
// where possible.
package bitmat

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vec is a fixed-length bit vector packed into uint64 words. The zero value
// is an empty vector; use NewVec to create one with a given length.
type Vec struct {
	n int
	w []uint64
}

// NewVec returns an all-zero bit vector of length n. It panics if n < 0.
func NewVec(n int) *Vec {
	if n < 0 {
		panic("bitmat: negative vector length")
	}
	return &Vec{n: n, w: make([]uint64, (n+63)/64)}
}

// FromBits builds a vector from a slice of booleans.
func FromBits(bits []bool) *Vec {
	v := NewVec(len(bits))
	for i, b := range bits {
		if b {
			v.Set(i, true)
		}
	}
	return v
}

// FromUint64 builds an n-bit vector (n <= 64) from the low n bits of x,
// bit i of x becoming element i.
func FromUint64(x uint64, n int) *Vec {
	if n < 0 || n > 64 {
		panic("bitmat: FromUint64 length out of range")
	}
	v := NewVec(n)
	if n > 0 {
		v.w[0] = x & maskLow(n)
	}
	return v
}

func maskLow(k int) uint64 {
	if k >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(k)) - 1
}

// Len returns the number of bits in the vector.
func (v *Vec) Len() int { return v.n }

// Get returns bit i.
func (v *Vec) Get(i int) bool {
	v.check(i)
	return v.w[i>>6]&(1<<uint(i&63)) != 0
}

// Set writes bit i.
func (v *Vec) Set(i int, b bool) {
	v.check(i)
	if b {
		v.w[i>>6] |= 1 << uint(i&63)
	} else {
		v.w[i>>6] &^= 1 << uint(i&63)
	}
}

// Flip inverts bit i and returns its new value.
func (v *Vec) Flip(i int) bool {
	v.check(i)
	v.w[i>>6] ^= 1 << uint(i&63)
	return v.w[i>>6]>>uint(i&63)&1 != 0
}

func (v *Vec) check(i int) {
	if i < 0 || i >= v.n {
		panic(rangeError{"bitmat: index %d out of range [0,%d)", i, v.n})
	}
}

// rangeError is a failed check's panic value. Formatting it only when read
// keeps the checks and their accessors within the inline budget.
type rangeError struct {
	format string
	a, b   int
}

func (e rangeError) Error() string { return fmt.Sprintf(e.format, e.a, e.b) }

// Clone returns a deep copy of v.
func (v *Vec) Clone() *Vec {
	c := NewVec(v.n)
	copy(c.w, v.w)
	return c
}

// CopyFrom overwrites v with the contents of src. The lengths must match.
func (v *Vec) CopyFrom(src *Vec) {
	v.sameLen(src)
	copy(v.w, src.w)
}

func (v *Vec) sameLen(o *Vec) {
	if v.n != o.n {
		panic(rangeError{"bitmat: length mismatch %d vs %d", v.n, o.n})
	}
}

// Zero clears all bits.
func (v *Vec) Zero() {
	for i := range v.w {
		v.w[i] = 0
	}
}

// Fill sets every bit to b.
func (v *Vec) Fill(b bool) {
	if !b {
		v.Zero()
		return
	}
	for i := range v.w {
		v.w[i] = ^uint64(0)
	}
	v.trim()
}

// trim clears the unused high bits of the last word so that word-level
// comparisons and popcounts stay exact.
func (v *Vec) trim() {
	if r := v.n & 63; r != 0 && len(v.w) > 0 {
		v.w[len(v.w)-1] &= maskLow(r)
	}
}

// Xor sets v = a ^ b. Any of the receivers/operands may alias.
func (v *Vec) Xor(a, b *Vec) {
	v.sameLen(a)
	v.sameLen(b)
	for i := range v.w {
		v.w[i] = a.w[i] ^ b.w[i]
	}
}

// And sets v = a & b.
func (v *Vec) And(a, b *Vec) {
	v.sameLen(a)
	v.sameLen(b)
	for i := range v.w {
		v.w[i] = a.w[i] & b.w[i]
	}
}

// Or sets v = a | b.
func (v *Vec) Or(a, b *Vec) {
	v.sameLen(a)
	v.sameLen(b)
	for i := range v.w {
		v.w[i] = a.w[i] | b.w[i]
	}
}

// Not sets v = ^a.
func (v *Vec) Not(a *Vec) {
	v.sameLen(a)
	for i := range v.w {
		v.w[i] = ^a.w[i]
	}
	v.trim()
}

// Nor sets v = ^(a | b). NOR is the native MAGIC gate, so it gets a
// dedicated word-parallel implementation.
func (v *Vec) Nor(a, b *Vec) {
	v.sameLen(a)
	v.sameLen(b)
	for i := range v.w {
		v.w[i] = ^(a.w[i] | b.w[i])
	}
	v.trim()
}

// AndNot sets v = a &^ b.
func (v *Vec) AndNot(a, b *Vec) {
	v.sameLen(a)
	v.sameLen(b)
	for i := range v.w {
		v.w[i] = a.w[i] &^ b.w[i]
	}
}

// Popcount returns the number of set bits.
func (v *Vec) Popcount() int {
	c := 0
	for _, w := range v.w {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (v *Vec) Any() bool {
	for _, w := range v.w {
		if w != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether v and o hold identical bits.
func (v *Vec) Equal(o *Vec) bool {
	if v.n != o.n {
		return false
	}
	for i := range v.w {
		if v.w[i] != o.w[i] {
			return false
		}
	}
	return true
}

// OnesIndices returns the indices of all set bits in ascending order. It
// allocates the result slice; hot loops should use ForEachOne or NextOne
// instead.
func (v *Vec) OnesIndices() []int {
	var out []int
	for wi, w := range v.w {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*64+b)
			w &= w - 1
		}
	}
	return out
}

// ForEachOne calls fn for each set bit index in ascending order, without
// allocating.
func (v *Vec) ForEachOne(fn func(int)) {
	for wi, w := range v.w {
		for w != 0 {
			fn(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// NextOne returns the smallest set bit index ≥ i, or -1 if there is none.
// Iterate all set bits allocation-free with
//
//	for i := v.NextOne(0); i >= 0; i = v.NextOne(i + 1) { ... }
func (v *Vec) NextOne(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= v.n {
		return -1
	}
	wi := i >> 6
	w := v.w[wi] &^ (1<<uint(i&63) - 1)
	for {
		if w != 0 {
			return wi*64 + bits.TrailingZeros64(w)
		}
		wi++
		if wi >= len(v.w) {
			return -1
		}
		w = v.w[wi]
	}
}

// Words returns a read-only view of v's words (bit i in word i>>6).
func (v *Vec) Words() []uint64 { return v.w }

// Uint64At returns the k (0 ≤ k ≤ 64) bits starting at offset lo, packed
// into the low bits of the result — a window read that never allocates.
func (v *Vec) Uint64At(lo, k int) uint64 {
	if uint(k) > 64 || lo < 0 || lo+k > v.n {
		panic(windowError{lo, k, v.n})
	}
	if k == 0 {
		return 0
	}
	return extractBits(v.w, uint(lo), uint(k))
}

// windowError is a failed Uint64At check's panic value, formatted only
// when read (see rangeError).
type windowError struct{ lo, k, n int }

func (e windowError) Error() string {
	return fmt.Sprintf("bitmat: bad Uint64At(%d,%d) of %d", e.lo, e.k, e.n)
}

// SetUint64At writes the low k (0 ≤ k ≤ 64) bits of x into v starting at
// offset lo — the window-write dual of Uint64At, at most two word updates.
func (v *Vec) SetUint64At(lo, k int, x uint64) {
	if k < 0 || k > 64 || lo < 0 || lo+k > v.n {
		panic(fmt.Sprintf("bitmat: bad SetUint64At(%d,%d) of %d", lo, k, v.n))
	}
	if k == 0 {
		return
	}
	wi, b := lo>>6, uint(lo&63)
	m := maskLow(k)
	x &= m
	v.w[wi] = v.w[wi]&^(m<<b) | x<<b
	if int(b)+k > 64 {
		v.w[wi+1] = v.w[wi+1]&^(m>>(64-b)) | x>>(64-b)
	}
}

// MaskedMerge sets v = (a & mask) | (v &^ mask): bits selected by mask are
// taken from a, the rest keep their current value. This is the single
// primitive behind masked gate execution — a whole-line operation merged
// into the destination under a selection mask. Operands may alias v.
func (v *Vec) MaskedMerge(a, mask *Vec) {
	v.sameLen(a)
	v.sameLen(mask)
	for i := range v.w {
		m := mask.w[i]
		v.w[i] = a.w[i]&m | v.w[i]&^m
	}
}

// extractBits returns the k (1..64) bits of src starting at bit lo, which
// must lie within src, in the low bits of the result. It reads the words
// holding the window's first and last bits; when they are one word, the
// second read only fills bits at or above k (a shift by 64 is zero in Go),
// which the mask clears, so there is no branch.
func extractBits(src []uint64, lo, k uint) uint64 {
	x := src[lo/64]>>(lo%64) | src[(lo+k-1)/64]<<(64-lo%64)
	return x & (1<<k - 1)
}

// copyBits copies n bits from src starting at bit srcLo into dst starting
// at bit dstLo, proceeding one destination word per step (shift-and-stitch
// rather than per-bit Get/Set). dst and src must not be overlapping views
// of the same array unless the offsets are equal; callers resolve aliasing.
func copyBits(dst []uint64, dstLo int, src []uint64, srcLo, n int) {
	for n > 0 {
		dw, db := dstLo>>6, dstLo&63
		chunk := 64 - db
		if chunk > n {
			chunk = n
		}
		b := extractBits(src, uint(srcLo), uint(chunk))
		m := maskLow(chunk) << uint(db)
		dst[dw] = dst[dw]&^m | b<<uint(db)
		dstLo += chunk
		srcLo += chunk
		n -= chunk
	}
}

// RotateLeft returns a copy of v rotated left by k positions (element i of
// the result is element (i+k) mod n of v). k may be negative or exceed n.
func (v *Vec) RotateLeft(k int) *Vec {
	n := v.n
	out := NewVec(n)
	if n == 0 {
		return out
	}
	k = ((k % n) + n) % n
	copyBits(out.w, 0, v.w, k, n-k)
	copyBits(out.w, n-k, v.w, 0, k)
	return out
}

// Slice returns a copy of bits [lo, hi).
func (v *Vec) Slice(lo, hi int) *Vec {
	if lo < 0 || hi > v.n || lo > hi {
		panic(fmt.Sprintf("bitmat: bad slice [%d,%d) of %d", lo, hi, v.n))
	}
	out := NewVec(hi - lo)
	copyBits(out.w, 0, v.w, lo, hi-lo)
	return out
}

// SetSlice writes src into v starting at offset lo. If src is v itself the
// result is as if src had been copied first.
func (v *Vec) SetSlice(lo int, src *Vec) {
	if lo < 0 || lo+src.n > v.n {
		panic(fmt.Sprintf("bitmat: bad SetSlice at %d len %d into %d", lo, src.n, v.n))
	}
	v.CopyRange(lo, src, 0, src.n)
}

// CopyRange copies n bits from src starting at srcLo into v starting at
// dstLo. If src is v itself the result is as if src had been copied first.
func (v *Vec) CopyRange(dstLo int, src *Vec, srcLo, n int) {
	if n < 0 || srcLo < 0 || srcLo+n > src.n || dstLo < 0 || dstLo+n > v.n {
		panic(fmt.Sprintf("bitmat: bad CopyRange(%d, src[%d:%d+%d]) into %d", dstLo, srcLo, srcLo, n, v.n))
	}
	if v == src && dstLo != srcLo {
		src = src.Clone()
	}
	copyBits(v.w, dstLo, src.w, srcLo, n)
}

// Uint64 returns the low 64 bits of the vector as an integer (bit i of the
// vector becomes bit i of the result). Vectors longer than 64 bits are
// truncated.
func (v *Vec) Uint64() uint64 {
	if len(v.w) == 0 {
		return 0
	}
	return v.w[0]
}

// String renders the vector as a bit string, element 0 first.
func (v *Vec) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}
