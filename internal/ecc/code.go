package ecc

import (
	"fmt"
	mathbits "math/bits"
	"slices"
	"sync"

	"repro/internal/bitmat"
)

// CheckBits holds the diagonal parity state for an N×N crossbar: for each
// of the (N/M)² blocks, one M-bit mask per diagonal family (leading,
// counter), bit d holding the parity of diagonal d of that block — the
// logical content of the paper's m check-bit crossbars (Section IV-A1),
// kept here as a pure data structure so both the analytic models and the
// cycle-accurate CMEM can share it. A block row's masks of one family are
// stored as one check line, block bc's at bits [bc·M, bc·M+M) and the
// counter masks reversed (bit M−1−d = diagonal d), so a block-row check
// compares whole lines and a row delta XORs into them rotated, the word
// form of the paper's line-parallel update and check (Fig. 2(c), Fig. 5).
// A line is nw+2 words, the row at [1:nw+1] between two pad words that
// stay zero, so a segment read or XOR at either end never branches; the
// fold's scratch lines share that layout.
type CheckBits struct {
	p     Params
	side  int      // N/M, blocks per side
	nw    int      // words per row
	lines []uint64 // per block row, its leading then its counter check line
	hi    []uint64 // the geometry's shared segMasks
	acc   []uint64 // fold scratch: two accumulator lines and a delta row
}

// validateDiagonalGeometry checks the plain diagonal code's geometry: the
// paper's constraints, and m ≤ 63 so each block's parity family fits in
// the one machine word CheckBits stores and folds.
func validateDiagonalGeometry(p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if p.M > 63 {
		return fmt.Errorf("ecc: block size m=%d too large for word-packed diagonal check bits (need m ≤ 63)", p.M)
	}
	return nil
}

// NewCheckBits returns all-zero check bits for geometry p (the correct
// state for an all-zero crossbar).
func NewCheckBits(p Params) *CheckBits {
	if err := validateDiagonalGeometry(p); err != nil {
		panic(err)
	}
	s, nw := p.BlocksPerSide(), (p.N+63)/64
	n := 2 * s * (nw + 2)
	buf := make([]uint64, n+3*nw+4) // one allocation for state and scratch
	return &CheckBits{p: p, side: s, nw: nw, lines: buf[:n:n], hi: segMasks(p, nw), acc: buf[n:]}
}

var segMaskTables sync.Map // Params → []uint64, immutable once stored

// segMasks returns the line-parallel fold's masks for p, built once per
// geometry and shared: for each shift s in [0,m), one row's nw words
// selecting every m-bit segment's offsets ≥ m−s, the bits rot_s wraps.
func segMasks(p Params, nw int) []uint64 {
	if t, ok := segMaskTables.Load(p); ok {
		return t.([]uint64)
	}
	t := make([]uint64, p.M*nw)
	for c := 0; c < p.N; c++ {
		for s := p.M - c%p.M; s < p.M; s++ {
			t[s*nw+c>>6] |= 1 << uint(c&63)
		}
	}
	stored, _ := segMaskTables.LoadOrStore(p, t)
	return stored.([]uint64)
}

// Build computes the check bits for an existing memory image — the state a
// controller would establish when data is first written into a protected
// crossbar.
func Build(p Params, mem *bitmat.Mat) *CheckBits {
	cb := NewCheckBits(p)
	if mem.Rows() != p.N || mem.Cols() != p.N {
		panic(fmt.Sprintf("ecc: memory is %dx%d, geometry wants %dx%d", mem.Rows(), mem.Cols(), p.N, p.N))
	}
	for br := 0; br < cb.side; br++ {
		l, c := cb.checkLines(br)
		cb.foldBlockRow(mem, br, l, c)
	}
	return cb
}

// checkLines returns block row br's stored leading and counter lines.
func (cb *CheckBits) checkLines(br int) (lead, ctrRev []uint64) {
	k := cb.nw + 2
	o := 2 * br * k
	return cb.lines[o : o+k : o+k], cb.lines[o+k : o+2*k : o+2*k]
}

// Params returns the geometry this check-bit state is built for.
func (cb *CheckBits) Params() Params { return cb.p }

// Lead returns the parity bit of leading diagonal d of block (br,bc).
func (cb *CheckBits) Lead(d, br, bc int) bool {
	l, _ := cb.checkLines(br)
	return segment(l, bc*cb.p.M, cb.p.M)>>uint(d)&1 != 0
}

// Counter returns the parity bit of counter diagonal d of block (br,bc).
func (cb *CheckBits) Counter(d, br, bc int) bool {
	_, c := cb.checkLines(br)
	return segment(c, bc*cb.p.M, cb.p.M)>>uint(cb.p.M-1-d)&1 != 0
}

// SetLead writes the parity bit of leading diagonal d of block (br,bc).
func (cb *CheckBits) SetLead(d, br, bc int, v bool) {
	if cb.Lead(d, br, bc) != v {
		cb.FlipLead(d, br, bc)
	}
}

// SetCounter writes the parity bit of counter diagonal d of block (br,bc).
func (cb *CheckBits) SetCounter(d, br, bc int, v bool) {
	if cb.Counter(d, br, bc) != v {
		cb.FlipCounter(d, br, bc)
	}
}

// FlipLead injects a soft error into a leading check bit.
func (cb *CheckBits) FlipLead(d, br, bc int) {
	l, _ := cb.checkLines(br)
	xorSegment(l, bc*cb.p.M, 1<<uint(d))
}

// FlipCounter injects a soft error into a counter check bit.
func (cb *CheckBits) FlipCounter(d, br, bc int) {
	_, c := cb.checkLines(br)
	xorSegment(c, bc*cb.p.M, 1<<uint(cb.p.M-1-d))
}

// rotl rotates the m-bit word w left by s (0 ≤ s < m): bit i moves to bit
// (i+s) mod m — the barrel shift that aligns a line with its diagonals.
func rotl(w uint64, s, m int) uint64 {
	return (w<<uint(s) | w>>uint(m-s)) & (1<<uint(m) - 1)
}

// rev reverses the low m bits of w: bit i moves to bit m−1−i.
func rev(w uint64, m int) uint64 { return mathbits.Reverse64(w) >> uint(64-m) }

// rowFold returns the leading and the reversed counter parity
// contributions of the m-bit segment w of local block row lr (bit lc =
// cell (lr,lc)). Cell (lr,lc) lies on leading diagonal (lr+lc) mod m, so
// the leading mask is w rotated by lr. It lies on counter diagonal
// (lr−lc) mod m, bit m−1−lc of rev(w) rotated by lr+1; that mask equals
// rev of w rotated by m−1−lr, so callers folding many rows XOR the
// reversed contributions and reverse once.
func rowFold(w uint64, lr, m int) (lead, counterRev uint64) {
	return rotl(w, lr, m), rotl(w, m-1-lr, m)
}

// blockParity recomputes the leading and reversed counter parities of
// block (br,bc) from the memory image by folding its m row segments: the
// block's two check-line segments as they should be stored.
func (cb *CheckBits) blockParity(mem *bitmat.Mat, br, bc int) (lead, ctrRev uint64) {
	m := cb.p.M
	for lr := 0; lr < m; lr++ {
		l, c := rowFold(mem.Row(br*m+lr).Uint64At(bc*m, m), lr, m)
		lead ^= l
		ctrRev ^= c
	}
	return lead, ctrRev
}

// rotXor XORs rot_s(d) into line l, rot_s rotating every m-bit segment of
// a row left by s in place: bits segMasks selects shift down by m−s, the
// rest up by s, carries passing between words, with no branch. Shift
// counts are masked to [0,63] to spare Go's ≥ 64 check.
func (cb *CheckBits) rotXor(l, d []uint64, s int) {
	m, nw := cb.p.M, cb.nw
	hi := cb.hi[s*nw : (s+1)*nw]
	d, l = d[:nw], l[:nw+1]
	up, down := uint(s)&63, uint(m-s)&63
	upc, downc := uint(63-s)&63, uint(64-m+s)&63
	var k uint64
	for w, h := range hi {
		y, z := d[w]&^h, d[w]&h
		l[w+1] ^= y<<up | k | z>>down
		l[w] ^= z << downc
		k = y >> 1 >> upc
	}
}

// rot1Xor sets row x to rot₁(x) ⊕ y, rot₁ rotating every m-bit segment
// left by one: the top bit of each segment (h, segMasks at s=1) moves
// down by m−1, into the word below when its segment straddles a word
// boundary, and every other bit up by one, carrying between words.
func rot1Xor(x, y, h []uint64, down, wrap uint) {
	n := len(x) - 1
	y, h = y[:n+1], h[:n+1]
	var carry uint64
	for w := 0; w < n; w++ {
		lo := x[w] &^ h[w]
		x[w] = (lo<<1 | carry | (x[w]&h[w])>>down | (x[w+1]&h[w+1])<<wrap) ^ y[w]
		carry = lo >> 63
	}
	lo := x[n] &^ h[n]
	x[n] = (lo<<1 | carry | (x[n]&h[n])>>down) ^ y[n]
}

// rot1x2 is rot₁ of a row of two words, as rot1Xor computes it.
func rot1x2(x0, x1, h0, h1 uint64, down, wrap uint) (uint64, uint64) {
	lo0, lo1 := x0&^h0, x1&^h1
	return lo0<<1 | (x0&h0)>>down | (x1&h1)<<wrap, lo1<<1 | lo0>>63 | (x1&h1)>>down
}

// segment returns the m-bit segment at bit lo of a line's row.
func segment(line []uint64, lo, m int) uint64 {
	wi, b := lo>>6+1, uint(lo&63)
	return (line[wi]>>b | line[wi+1]<<(63-b)<<1) & (1<<uint(m) - 1)
}

// xorSegment XORs the mask x, at most one segment wide, into the segment
// at bit lo of a line's row.
func xorSegment(line []uint64, lo int, x uint64) {
	wi, b := lo>>6+1, uint(lo&63)
	line[wi] ^= x << b
	line[wi+1] ^= x >> (63 - b) >> 1
}

// foldBlockRow folds block row br line-parallel (Fig. 4's CheckLine with
// Fig. 5's shifters) into the rows of lines l and c: its leading
// parities ⊕_k rot_k(row k) and its reversed counter parities
// ⊕_k rot_k(row m−1−k) (rowFold). It runs by Horner's rule, for k = 0…m−1
// l ← rot₁(l) ⊕ row m−1−k and c ← rot₁(c) ⊕ row k, so every step rotates
// by one and rot₁'s masks and shifts are loop constants.
func (cb *CheckBits) foldBlockRow(mem *bitmat.Mat, br int, l, c []uint64) {
	m, nw := cb.p.M, cb.nw
	rows, h := mem.RowWords(br*m, br*m+m), cb.hi[nw:2*nw]
	down, wrap := uint(m-1)&63, uint(65-m)&63
	if nw > 2 {
		lrow, crow := l[1:nw+1], c[1:nw+1]
		clear(lrow)
		clear(crow)
		for i, j := 0, (m-1)*nw; j >= 0; i, j = i+nw, j-nw { // rows k and m−1−k
			rot1Xor(lrow, rows[j:], h, down, wrap)
			rot1Xor(crow, rows[i:], h, down, wrap)
		}
		return
	}
	// Rows of one or two words (a zero second word): the fold unrolled,
	// its accumulators in registers.
	two := -uint64(nw - 1)
	h0, h1 := h[0], h[nw-1]&two
	var l0, l1, c0, c1 uint64
	for i, j := 0, (m-1)*nw; j >= 0; i, j = i+nw, j-nw { // rows k and m−1−k
		l0, l1 = rot1x2(l0, l1, h0, h1, down, wrap)
		c0, c1 = rot1x2(c0, c1, h0, h1, down, wrap)
		l0, l1, c0, c1 = l0^rows[j], l1^rows[j+nw-1]&two, c0^rows[i], c1^rows[i+nw-1]&two
	}
	l[1], l[2], c[1], c[2] = l0, l1, c0, c1
}

// delta returns the masked delta row (a ⊕ b) & sel in the fold scratch.
func (cb *CheckBits) delta(a, b, sel *bitmat.Vec) []uint64 {
	nw := cb.nw
	d := cb.acc[2*nw+4 : 3*nw+4]
	aw, bw, sw := a.Words()[:nw], b.Words()[:nw], sel.Words()[:nw]
	for i := range d {
		d[i] = (aw[i] ^ bw[i]) & sw[i]
	}
	return d
}

// setBlock overwrites block (br,bc)'s segments of its two check lines.
func (cb *CheckBits) setBlock(br, bc int, lead, ctrRev uint64) {
	m := cb.p.M
	l, c := cb.checkLines(br)
	xorSegment(l, bc*m, segment(l, bc*m, m)^lead)
	xorSegment(c, bc*m, segment(c, bc*m, m)^ctrRev)
}

// rebuildBlock re-establishes the check bits of block (br,bc) from the
// memory image.
func (cb *CheckBits) rebuildBlock(mem *bitmat.Mat, br, bc int) {
	lead, ctrRev := cb.blockParity(mem, br, bc)
	cb.setBlock(br, bc, lead, ctrRev)
}

// UpdateWrite performs the paper's continuous-parity update for a single
// data cell transitioning old→new: the delta old⊕new is XORed into the
// covering leading and counter check bits. This is the "cancel the old
// effect, add the new effect" protocol collapsed to its logical essence.
func (cb *CheckBits) UpdateWrite(r, c int, oldVal, newVal bool) {
	if oldVal != newVal {
		br, bc, lr, lc := cb.p.BlockOf(r, c)
		cb.FlipLead(cb.p.LeadIdx(lr, lc), br, bc)
		cb.FlipCounter(cb.p.CounterIdx(lr, lc), br, bc)
	}
}

// UpdateColumnWrite updates check bits after a column-parallel MAGIC
// operation wrote column c in every row selected by rows, with the given
// old and new column contents (length N each). Because the write touches
// one cell per row, it touches at most one cell per diagonal — the Θ(1)
// per-check-bit property the diagonal placement guarantees — so one fold
// of the masked delta line per family serves every crossed block. Block
// row br's segment of that fold is block (br,bc)'s mask, XORed into its
// check lines one block row at a time.
func (cb *CheckBits) UpdateColumnWrite(c int, oldCol, newCol, rows *bitmat.Vec) {
	m, nw := cb.p.M, cb.nw
	bc, lc := c/m, c%m // cell (lr,lc) is on diagonals (lr±lc) mod m
	l, ctr := cb.acc[:nw+2], cb.acc[nw+2:2*nw+4]
	clear(cb.acc[:2*nw+4])
	d := cb.delta(oldCol, newCol, rows)
	cb.rotXor(l, d, lc)
	cb.rotXor(ctr, d, (m-lc)%m)
	for br := 0; br < cb.side; br++ {
		sl, sc := cb.checkLines(br)
		xorSegment(sl, bc*m, segment(l, br*m, m))
		xorSegment(sc, bc*m, rev(segment(ctr, br*m, m), m))
	}
}

// UpdateRowWrite is the row-parallel dual of UpdateColumnWrite: row r was
// written in every column selected by cols, so its masked delta, as line
// lr of block row br (rowFold), XORs rot_lr into the block row's leading
// line and rot_{m−1−lr} into its counter line.
func (cb *CheckBits) UpdateRowWrite(r int, oldRow, newRow, cols *bitmat.Vec) {
	m := cb.p.M
	br, lr := r/m, r%m
	d := cb.delta(oldRow, newRow, cols)
	l, c := cb.checkLines(br)
	cb.rotXor(l, d, lr)
	cb.rotXor(c, d, m-1-lr)
}

// ResetBlock zeroes the check bits of block (br,bc) — the corner-case
// optimization the paper notes for whole-block resets (footnote 3).
func (cb *CheckBits) ResetBlock(br, bc int) { cb.setBlock(br, bc, 0, 0) }

// Clone deep-copies the check-bit state; the clone has its own scratch.
func (cb *CheckBits) Clone() *CheckBits {
	out := NewCheckBits(cb.p)
	copy(out.lines, cb.lines)
	return out
}

// Equal reports whether two check-bit states are identical.
func (cb *CheckBits) Equal(o *CheckBits) bool {
	return cb.p == o.p && slices.Equal(cb.lines, o.lines)
}

// Syndrome computes the 2m-bit syndrome of block (br,bc) as two packed
// m-bit masks (bit d = diagonal d): the XOR of the stored check bits with
// parities recomputed from the current memory image. A zero syndrome
// means the block is consistent.
func (cb *CheckBits) Syndrome(mem *bitmat.Mat, br, bc int) (lead, counter uint64) {
	m := cb.p.M
	l, c := cb.checkLines(br)
	pl, pc := cb.blockParity(mem, br, bc)
	return segment(l, bc*m, m) ^ pl, rev(segment(c, bc*m, m)^pc, m)
}
