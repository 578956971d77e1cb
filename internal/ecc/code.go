package ecc

import (
	"fmt"
	mathbits "math/bits"
	"sync"

	"repro/internal/bitmat"
)

// CheckBits holds the diagonal parity state for an N×N crossbar: for each
// of the (N/M)² blocks, one M-bit mask per diagonal family (leading,
// counter), bit d holding the parity of diagonal d of that block — the
// logical content of the paper's m check-bit crossbars (Section IV-A1),
// kept here as a pure data structure so both the analytic models and the
// cycle-accurate CMEM can share it. Block-row checks, Build and line
// deltas rotate every segment of a row at once (rotFold), the word form
// of the paper's line-parallel update and check (Fig. 2(c), Fig. 5).
type CheckBits struct {
	p       Params
	side    int      // N/M, blocks per side
	lead    []uint64 // [side*side] block-row-major, bit d = leading diagonal d
	counter []uint64 // counter-diagonal masks, same layout
	nw      int      // words per row
	hi      []uint64 // the geometry's shared segMasks
	acc     []uint64 // fold scratch: two accumulator lines, a delta and a zero line
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
	buf := make([]uint64, 2*s*s+4*nw+4) // one allocation for state and scratch
	return &CheckBits{p: p, side: s, lead: buf[: s*s : s*s], counter: buf[s*s : 2*s*s : 2*s*s],
		nw: nw, hi: segMasks(p, nw), acc: buf[2*s*s:]}
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
		l, c := cb.foldBlockRow(mem, br)
		for bc := 0; bc < cb.side; bc++ {
			cb.lead[br*cb.side+bc], cb.counter[br*cb.side+bc] = cb.lineParity(l, c, bc)
		}
	}
	return cb
}

// Params returns the geometry this check-bit state is built for.
func (cb *CheckBits) Params() Params { return cb.p }

// Lead returns the parity bit of leading diagonal d of block (br,bc).
func (cb *CheckBits) Lead(d, br, bc int) bool { return cb.lead[br*cb.side+bc]>>uint(d)&1 != 0 }

// Counter returns the parity bit of counter diagonal d of block (br,bc).
func (cb *CheckBits) Counter(d, br, bc int) bool { return cb.counter[br*cb.side+bc]>>uint(d)&1 != 0 }

// SetLead writes the parity bit of leading diagonal d of block (br,bc).
func (cb *CheckBits) SetLead(d, br, bc int, v bool) { setBit(&cb.lead[br*cb.side+bc], d, v) }

// SetCounter writes the parity bit of counter diagonal d of block (br,bc).
func (cb *CheckBits) SetCounter(d, br, bc int, v bool) { setBit(&cb.counter[br*cb.side+bc], d, v) }

// FlipLead injects a soft error into a leading check bit.
func (cb *CheckBits) FlipLead(d, br, bc int) { cb.lead[br*cb.side+bc] ^= 1 << uint(d) }

// FlipCounter injects a soft error into a counter check bit.
func (cb *CheckBits) FlipCounter(d, br, bc int) { cb.counter[br*cb.side+bc] ^= 1 << uint(d) }

func setBit(w *uint64, d int, v bool) {
	if v {
		*w |= 1 << uint(d)
	} else {
		*w &^= 1 << uint(d)
	}
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

// blockParity recomputes the diagonal parities of block (br,bc) from the
// memory image by folding its m row segments.
func (cb *CheckBits) blockParity(mem *bitmat.Mat, br, bc int) (lead, counter uint64) {
	m := cb.p.M
	var ctrRev uint64
	for lr := 0; lr < m; lr++ {
		l, c := rowFold(mem.Row(br*m+lr).Uint64At(bc*m, m), lr, m)
		lead ^= l
		ctrRev ^= c
	}
	return lead, rev(ctrRev, m)
}

// rotFold XORs rot_s(a) into accumulator line l and rot_s(b) into c,
// rot_s rotating every m-bit segment of a row left by s in place: bits
// segMasks selects shift down by m−s, the rest up by s, carries passing
// between words, with no branch. Shift counts are masked to [0,63] to
// spare Go's ≥ 64 check. A line of nw+2 words holds the row at [1:].
func (cb *CheckBits) rotFold(l, c, a, b []uint64, s int) {
	m, nw := cb.p.M, cb.nw
	hi := cb.hi[s*nw : (s+1)*nw]
	a, b, l, c = a[:nw], b[:nw], l[:nw+1], c[:nw+1]
	up, down := uint(s)&63, uint(m-s)&63
	upc, downc := uint(63-s)&63, uint(64-m+s)&63
	var ka, kb uint64
	for w, h := range hi {
		ya, za, yb, zb := a[w]&^h, a[w]&h, b[w]&^h, b[w]&h
		l[w+1] ^= ya<<up | ka | za>>down
		l[w] ^= za << downc
		c[w+1] ^= yb<<up | kb | zb>>down
		c[w] ^= zb << downc
		ka, kb = ya>>1>>upc, yb>>1>>upc
	}
}

// segment returns the m-bit segment at bit lo of an accumulator line.
func segment(acc []uint64, lo, m int) uint64 {
	wi, b := lo>>6+1, uint(lo&63)
	return (acc[wi]>>b | acc[wi+1]<<(63-b)<<1) & (1<<uint(m) - 1)
}

// foldBlockRow folds block row br line-parallel (Fig. 4's CheckLine with
// Fig. 5's shifters): its leading parities are ⊕_s rot_s(line s), its
// reversed counter parities ⊕_s rot_s(line m−1−s) (rowFold), so one mask
// serves both families. Block bc's parities are lineParity(l, c, bc).
func (cb *CheckBits) foldBlockRow(mem *bitmat.Mat, br int) (l, c []uint64) {
	m, nw := cb.p.M, cb.nw
	l, c = cb.acc[:nw+2], cb.acc[nw+2:2*nw+4]
	clear(cb.acc[:2*nw+4])
	if nw > 2 {
		for s := 0; s < m; s++ {
			cb.rotFold(l, c, mem.Row(br*m+s).Words(), mem.Row(br*m+m-1-s).Words(), s)
		}
		return l, c
	}
	// Rows of one or two words (a zero second word): rotFold unrolled.
	two := -uint64(nw - 1)
	var l0, l1, c0, c1 uint64
	for s := 0; s < m; s++ {
		a, b, h := mem.Row(br*m+s).Words(), mem.Row(br*m+m-1-s).Words(), cb.hi[s*nw:]
		a0, a1, b0, b1, h0, h1 := a[0], a[nw-1]&two, b[0], b[nw-1]&two, h[0], h[nw-1]&two
		up, down := uint(s)&63, uint(m-s)&63
		upc, downc := uint(63-s)&63, uint(64-m+s)&63
		l0 ^= (a0&^h0)<<up | (a0&h0)>>down | (a1&h1)<<downc
		l1 ^= (a1&^h1)<<up | (a0&^h0)>>1>>upc | (a1&h1)>>down
		c0 ^= (b0&^h0)<<up | (b0&h0)>>down | (b1&h1)<<downc
		c1 ^= (b1&^h1)<<up | (b0&^h0)>>1>>upc | (b1&h1)>>down
	}
	l[1], l[2], c[1], c[2] = l0, l1, c0, c1
	return l, c
}

// lineParity extracts block column bc's leading and counter masks from
// a leading and a reversed-counter accumulator line.
func (cb *CheckBits) lineParity(l, c []uint64, bc int) (lead, counter uint64) {
	m := cb.p.M
	return segment(l, bc*m, m), rev(segment(c, bc*m, m), m)
}

// foldDelta folds the masked delta line (a ⊕ b) & sel rotated by sl into
// the first accumulator line and rotated by sc into the second.
func (cb *CheckBits) foldDelta(a, b, sel *bitmat.Vec, sl, sc int) (l, c []uint64) {
	nw := cb.nw
	l, c = cb.acc[:nw+2], cb.acc[nw+2:2*nw+4]
	clear(cb.acc[:2*nw+4])
	d, zero := cb.acc[2*nw+4:3*nw+4], cb.acc[3*nw+4:] // zero stays zero
	aw, bw, sw := a.Words()[:nw], b.Words()[:nw], sel.Words()[:nw]
	for i := range d {
		d[i] = (aw[i] ^ bw[i]) & sw[i]
	}
	cb.rotFold(l, c, d, zero, sl)
	cb.rotFold(l, c, zero, d, sc)
	return l, c
}

// rebuildBlock re-establishes the check bits of block (br,bc) from the
// memory image.
func (cb *CheckBits) rebuildBlock(mem *bitmat.Mat, br, bc int) {
	u := br*cb.side + bc
	cb.lead[u], cb.counter[u] = cb.blockParity(mem, br, bc)
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
// of the masked delta line serves every crossed block.
func (cb *CheckBits) UpdateColumnWrite(c int, oldCol, newCol, rows *bitmat.Vec) {
	m := cb.p.M
	bc, lc := c/m, c%m // cell (lr,lc) is on diagonals (lr±lc) mod m
	l, ctr := cb.foldDelta(oldCol, newCol, rows, lc, (m-lc)%m)
	for br := 0; br < cb.side; br++ {
		cb.lead[br*cb.side+bc] ^= segment(l, br*m, m)
		cb.counter[br*cb.side+bc] ^= segment(ctr, br*m, m)
	}
}

// UpdateRowWrite is the row-parallel dual of UpdateColumnWrite: row r was
// written in every column selected by cols, its delta folded as rowFold.
func (cb *CheckBits) UpdateRowWrite(r int, oldRow, newRow, cols *bitmat.Vec) {
	m := cb.p.M
	br, lr := r/m, r%m
	l, c := cb.foldDelta(oldRow, newRow, cols, lr, m-1-lr)
	for bc := 0; bc < cb.side; bc++ {
		lead, counter := cb.lineParity(l, c, bc)
		cb.lead[br*cb.side+bc] ^= lead
		cb.counter[br*cb.side+bc] ^= counter
	}
}

// ResetBlock zeroes the check bits of block (br,bc) — the corner-case
// optimization the paper notes for whole-block resets (footnote 3).
func (cb *CheckBits) ResetBlock(br, bc int) {
	cb.lead[br*cb.side+bc], cb.counter[br*cb.side+bc] = 0, 0
}

// Clone deep-copies the check-bit state; the clone has its own scratch.
func (cb *CheckBits) Clone() *CheckBits {
	out := NewCheckBits(cb.p)
	copy(out.lead, cb.lead)
	copy(out.counter, cb.counter)
	return out
}

// Equal reports whether two check-bit states are identical.
func (cb *CheckBits) Equal(o *CheckBits) bool {
	if cb.p != o.p {
		return false
	}
	for u := range cb.lead {
		if cb.lead[u] != o.lead[u] || cb.counter[u] != o.counter[u] {
			return false
		}
	}
	return true
}

// Syndrome computes the 2m-bit syndrome of block (br,bc) as two packed
// m-bit masks (bit d = diagonal d): the XOR of the stored check bits with
// parities recomputed from the current memory image. A zero syndrome
// means the block is consistent.
func (cb *CheckBits) Syndrome(mem *bitmat.Mat, br, bc int) (lead, counter uint64) {
	l, c := cb.blockParity(mem, br, bc)
	u := br*cb.side + bc
	return cb.lead[u] ^ l, cb.counter[u] ^ c
}
