package ecc

import (
	"fmt"
	mathbits "math/bits"

	"repro/internal/bitmat"
)

// CheckBits holds the diagonal parity state for an N×N crossbar: for each
// of the (N/M)² blocks, one M-bit mask per diagonal family (leading,
// counter), bit d holding the parity of diagonal d of that block — the
// logical content of the paper's m check-bit crossbars (Section IV-A1),
// kept here as a pure data structure so both the analytic models and the
// cycle-accurate CMEM can share it. Every line operation folds an m-bit
// segment into a mask with one barrel shift, the word form of the paper's
// line-parallel update and check (Fig. 2(c)).
type CheckBits struct {
	p       Params
	side    int      // N/M, blocks per side
	lead    []uint64 // [side*side] block-row-major, bit d = leading diagonal d
	counter []uint64 // counter-diagonal masks, same layout
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
	s := p.BlocksPerSide()
	return &CheckBits{p: p, side: s, lead: make([]uint64, s*s), counter: make([]uint64, s*s)}
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
		for bc := 0; bc < cb.side; bc++ {
			cb.rebuildBlock(mem, br, bc)
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

// rebuildBlock re-establishes the check bits of block (br,bc) from the
// memory image.
func (cb *CheckBits) rebuildBlock(mem *bitmat.Mat, br, bc int) {
	u := br*cb.side + bc
	cb.lead[u], cb.counter[u] = cb.blockParity(mem, br, bc)
}

// flipFor toggles the two check bits covering global data cell (r,c).
func (cb *CheckBits) flipFor(r, c int) {
	br, bc, lr, lc := cb.p.BlockOf(r, c)
	cb.FlipLead(cb.p.LeadIdx(lr, lc), br, bc)
	cb.FlipCounter(cb.p.CounterIdx(lr, lc), br, bc)
}

// UpdateWrite performs the paper's continuous-parity update for a single
// data cell transitioning old→new: the delta old⊕new is XORed into the
// covering leading and counter check bits. This is the "cancel the old
// effect, add the new effect" protocol collapsed to its logical essence.
func (cb *CheckBits) UpdateWrite(r, c int, oldVal, newVal bool) {
	if oldVal != newVal {
		cb.flipFor(r, c)
	}
}

// UpdateColumnWrite updates check bits after a column-parallel MAGIC
// operation wrote column c in every row selected by rows, with the given
// old and new column contents (length N each). Because the write touches
// one cell per row, it touches at most one cell per diagonal — the Θ(1)
// per-check-bit property the diagonal placement guarantees — so each
// crossed block folds one masked delta word.
func (cb *CheckBits) UpdateColumnWrite(c int, oldCol, newCol, rows *bitmat.Vec) {
	m := cb.p.M
	bc, lc := c/m, c%m
	for br := 0; br < cb.side; br++ {
		lo := br * m
		if w := (oldCol.Uint64At(lo, m) ^ newCol.Uint64At(lo, m)) & rows.Uint64At(lo, m); w != 0 {
			// Bit lr of the column segment is cell (lr,lc), on leading
			// diagonal (lr+lc) mod m and counter diagonal (lr−lc) mod m.
			cb.lead[br*cb.side+bc] ^= rotl(w, lc, m)
			cb.counter[br*cb.side+bc] ^= rotl(w, (m-lc)%m, m)
		}
	}
}

// UpdateRowWrite is the row-parallel dual of UpdateColumnWrite: row r was
// written in every column selected by cols.
func (cb *CheckBits) UpdateRowWrite(r int, oldRow, newRow, cols *bitmat.Vec) {
	m := cb.p.M
	br, lr := r/m, r%m
	for bc := 0; bc < cb.side; bc++ {
		lo := bc * m
		if w := (oldRow.Uint64At(lo, m) ^ newRow.Uint64At(lo, m)) & cols.Uint64At(lo, m); w != 0 {
			l, c := rowFold(w, lr, m)
			cb.lead[br*cb.side+bc] ^= l
			cb.counter[br*cb.side+bc] ^= rev(c, m)
		}
	}
}

// ResetBlock zeroes the check bits of block (br,bc) — the corner-case
// optimization the paper notes for whole-block resets (footnote 3).
func (cb *CheckBits) ResetBlock(br, bc int) {
	cb.lead[br*cb.side+bc], cb.counter[br*cb.side+bc] = 0, 0
}

// Clone deep-copies the check-bit state.
func (cb *CheckBits) Clone() *CheckBits {
	return &CheckBits{
		p: cb.p, side: cb.side,
		lead:    append([]uint64(nil), cb.lead...),
		counter: append([]uint64(nil), cb.counter...),
	}
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
