package ecc

// The parity backend of the scheme layer: one parity bit per M-bit
// horizontal word — the cheapest protection the comparison table admits.
// It detects every odd-weight error in a word and corrects nothing; an
// even-weight error (a double hit in one word) passes silently. Its value
// is as a baseline: half the diagonal code's overhead per word, but no
// correction and no double-error guarantee, which the fault campaign
// quantifies head-to-head.

import (
	"fmt"
	mathbits "math/bits"

	"repro/internal/bitmat"
)

// validateParityGeometry: parity shares the word tiling but has no
// machine-word width limit (words are folded in ≤64-bit windows).
func validateParityGeometry(p Params) error {
	if p.M < 1 {
		return fmt.Errorf("ecc: word width m=%d too small (need m ≥ 1)", p.M)
	}
	if p.N <= 0 || p.N%p.M != 0 {
		return fmt.Errorf("ecc: crossbar size n=%d must be a positive multiple of m=%d", p.N, p.M)
	}
	return nil
}

// parityScheme stores one parity bit per word: par[r][g] is the XOR of the
// data bits of word g in row r.
type parityScheme struct {
	p     Params
	par   *bitmat.Mat // rows × words
	delta *bitmat.Vec // scratch for the line-delta updates
}

// newParityScheme implements SchemeSpec.New.
func newParityScheme(p Params, mem *bitmat.Mat) Scheme {
	if err := validateParityGeometry(p); err != nil {
		panic(err)
	}
	s := &parityScheme{p: p, par: bitmat.NewMat(p.N, p.N/p.M), delta: bitmat.NewVec(p.N)}
	if mem != nil {
		for r := 0; r < p.N; r++ {
			for g := 0; g < p.N/p.M; g++ {
				s.par.Set(r, g, s.wordParity(mem, r, g))
			}
		}
	}
	return s
}

func (s *parityScheme) Name() string   { return SchemeParity }
func (s *parityScheme) Params() Params { return s.p }

func (s *parityScheme) Clone() Scheme {
	return &parityScheme{p: s.p, par: s.par.Clone(), delta: bitmat.NewVec(s.p.N)}
}

func (s *parityScheme) Equal(o Scheme) bool {
	op, ok := o.(*parityScheme)
	return ok && s.p == op.p && s.par.Equal(op.par)
}

// wordParity folds word g of row r in ≤64-bit windows.
func (s *parityScheme) wordParity(mem *bitmat.Mat, r, g int) bool {
	row := mem.Row(r)
	ones := 0
	for base := 0; base < s.p.M; base += 64 {
		k := s.p.M - base
		if k > 64 {
			k = 64
		}
		ones += mathbits.OnesCount64(row.Uint64At(g*s.p.M+base, k))
	}
	return ones&1 != 0
}

func (s *parityScheme) UpdateWrite(r, c int, oldVal, newVal bool) {
	if oldVal != newVal {
		s.par.Flip(r, c/s.p.M)
	}
}

func (s *parityScheme) UpdateRowWrite(r int, oldRow, newRow, cols *bitmat.Vec) {
	s.delta.Xor(oldRow, newRow)
	s.delta.And(s.delta, cols)
	s.delta.ForEachOne(func(c int) { s.par.Flip(r, c/s.p.M) })
}

func (s *parityScheme) UpdateColumnWrite(c int, oldCol, newCol, rows *bitmat.Vec) {
	s.delta.Xor(oldCol, newCol)
	s.delta.And(s.delta, rows)
	g := c / s.p.M
	s.delta.ForEachOne(func(r int) { s.par.Flip(r, g) })
}

func (s *parityScheme) CheckBlock(mem *bitmat.Mat, br, bc int) []Diagnosis {
	var out []Diagnosis
	for lr := 0; lr < s.p.M; lr++ {
		r := br*s.p.M + lr
		if s.wordParity(mem, r, bc) != s.par.Get(r, bc) {
			// Detected, never located: parity cannot tell which bit (or
			// whether the check bit itself) erred.
			out = append(out, Diagnosis{Kind: Uncorrectable, LR: lr})
		}
	}
	return out
}

// CorrectBlock is CheckBlock: a detect-only code repairs nothing.
func (s *parityScheme) CorrectBlock(mem *bitmat.Mat, br, bc int) []Diagnosis {
	return s.CheckBlock(mem, br, bc)
}

// RebuildRowWords: the parity unit is one horizontal word, fully
// contained in its row — recompute the single crossed parity bit.
func (s *parityScheme) RebuildRowWords(mem *bitmat.Mat, r, bc int) bool {
	s.par.Set(r, bc, s.wordParity(mem, r, bc))
	return true
}

func (s *parityScheme) CorrectLine(mem *bitmat.Mat, blockRow bool, idx int, out []Finding) []Finding {
	return correctLineByBlock(s, mem, blockRow, idx, out)
}

func (s *parityScheme) RebuildBlock(mem *bitmat.Mat, br, bc int) {
	for lr := 0; lr < s.p.M; lr++ {
		r := br*s.p.M + lr
		s.par.Set(r, bc, s.wordParity(mem, r, bc))
	}
}

// ReferenceCheck recomputes each word's parity one cell at a time.
func (s *parityScheme) ReferenceCheck(mem *bitmat.Mat, br, bc int) []Diagnosis {
	var out []Diagnosis
	for lr := 0; lr < s.p.M; lr++ {
		r := br*s.p.M + lr
		parity := false
		for i := 0; i < s.p.M; i++ {
			if mem.Get(r, bc*s.p.M+i) {
				parity = !parity
			}
		}
		if parity != s.par.Get(r, bc) {
			out = append(out, Diagnosis{Kind: Uncorrectable, LR: lr})
		}
	}
	return out
}

// CoversCell: like Hamming, the code unit is one word row.
func (s *parityScheme) CoversCell(d Diagnosis, lr, _ int) bool { return d.LR == lr }

// UnitOf: the parity word lives in the cell's own block, word row sub.
func (s *parityScheme) UnitOf(r, c int) (ubr, ubc, sub int) {
	return r / s.p.M, c / s.p.M, r % s.p.M
}

// HomeColumns: words are block-column-local.
func (s *parityScheme) HomeColumns(firstBC, lastBC int) (int, int) { return firstBC, lastBC }

// OverheadBits: one bit per M-bit word.
func (s *parityScheme) OverheadBits() int { return s.p.N * (s.p.N / s.p.M) }

// LineUpdateReads: parity is a per-bit delta code like the diagonal
// placement — the old and new value of each written cell suffice.
func (s *parityScheme) LineUpdateReads(lines int) int { return 2 * lines }
