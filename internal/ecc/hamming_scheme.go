package ecc

// The Hamming backend of the scheme layer: the conventional horizontal
// code promoted from the bench-only strawman (hamming.go) to a full
// scrubbing and correcting Scheme, so the paper's comparison runs through
// the whole pipeline instead of isolated unit benchmarks.
//
// Layout: each M-bit horizontal word of a row is one SEC-DED codeword —
// word g of row r covers columns [g·M, (g+1)·M), so block (br,bc) contains
// exactly the M words {row br·M+lr, word bc}. Per word the state stores
// ⌈log2⌉-style SEC check bits plus one overall parity bit covering the
// data AND the stored check bits (the DED extension): a single flipped
// data bit, check bit, or parity bit is located and repaired; any double
// is detected and flagged uncorrectable; nothing in a clean double is ever
// "corrected" into silent corruption.
//
// The delta-update methods are functionally Θ(changed bits) — Hamming is
// a linear code too — but LineUpdateReads reports the honest hardware
// cost: a column-parallel MAGIC operation changes one bit of *every* word
// it crosses, and with in-place overwrites the old value is gone, so each
// crossed word must be re-encoded from all M data bits.

import (
	"fmt"
	mathbits "math/bits"

	"repro/internal/bitmat"
)

// validateWordGeometry checks the geometry shared by the horizontal word
// schemes: M-bit words must tile the row and fit one machine word.
func validateWordGeometry(p Params) error {
	if p.M < 2 {
		return fmt.Errorf("ecc: word width m=%d too small (need m ≥ 2)", p.M)
	}
	if p.M > 64 {
		return fmt.Errorf("ecc: word width m=%d too wide (need m ≤ 64)", p.M)
	}
	if p.N <= 0 || p.N%p.M != 0 {
		return fmt.Errorf("ecc: crossbar size n=%d must be a positive multiple of m=%d", p.N, p.M)
	}
	return nil
}

// hammingScheme is the SEC-DED state: check[r][g] holds word g's SEC check
// bits, par holds its overall parity bit.
type hammingScheme struct {
	p       Params
	nCheck  int      // SEC check bits per word
	pattern []uint32 // pattern[i] = Hamming index of data bit i
	check   [][]uint32
	par     *bitmat.Mat // rows × words overall-parity plane

	delta *bitmat.Vec // scratch for the line-delta updates
}

// newHammingScheme implements SchemeSpec.New.
func newHammingScheme(p Params, mem *bitmat.Mat) Scheme {
	if err := validateWordGeometry(p); err != nil {
		panic(err)
	}
	words := p.N / p.M
	h := &hammingScheme{
		p:       p,
		nCheck:  hammingCheckBits(p.M),
		pattern: make([]uint32, p.M),
		check:   make([][]uint32, p.N),
		par:     bitmat.NewMat(p.N, words),
		delta:   bitmat.NewVec(p.N),
	}
	for i := 0; i < p.M; i++ {
		h.pattern[i] = uint32(hammingIndex(i))
	}
	for r := range h.check {
		h.check[r] = make([]uint32, words)
	}
	if mem != nil {
		for r := 0; r < p.N; r++ {
			for g := 0; g < words; g++ {
				h.rebuildWord(mem, r, g)
			}
		}
	}
	return h
}

func (h *hammingScheme) Name() string   { return SchemeHamming }
func (h *hammingScheme) Params() Params { return h.p }

func (h *hammingScheme) Clone() Scheme {
	out := &hammingScheme{
		p:       h.p,
		nCheck:  h.nCheck,
		pattern: h.pattern, // immutable after construction
		check:   make([][]uint32, len(h.check)),
		par:     h.par.Clone(),
		delta:   bitmat.NewVec(h.p.N),
	}
	for r := range h.check {
		out.check[r] = append([]uint32(nil), h.check[r]...)
	}
	return out
}

func (h *hammingScheme) Equal(o Scheme) bool {
	oh, ok := o.(*hammingScheme)
	if !ok || h.p != oh.p {
		return false
	}
	for r := range h.check {
		for g := range h.check[r] {
			if h.check[r][g] != oh.check[r][g] {
				return false
			}
		}
	}
	return h.par.Equal(oh.par)
}

// dataWord reads the M data bits of word g in row r, LSB = lowest column.
func (h *hammingScheme) dataWord(mem *bitmat.Mat, r, g int) uint64 {
	return mem.Row(r).Uint64At(g*h.p.M, h.p.M)
}

// encodeWord computes the SEC check bits of a data word.
func (h *hammingScheme) encodeWord(w uint64) uint32 {
	var c uint32
	for w != 0 {
		i := mathbits.TrailingZeros64(w)
		w &= w - 1
		c ^= h.pattern[i]
	}
	return c
}

// rebuildWord recomputes word g of row r's stored state from mem.
func (h *hammingScheme) rebuildWord(mem *bitmat.Mat, r, g int) {
	w := h.dataWord(mem, r, g)
	c := h.encodeWord(w)
	h.check[r][g] = c
	h.par.Set(r, g, (mathbits.OnesCount64(w)+mathbits.OnesCount32(c))&1 != 0)
}

// flipBit applies the Θ(1) delta update for one changed data bit: XOR the
// bit's column pattern into the SEC check bits and re-balance the overall
// parity (which covers data and check bits alike).
func (h *hammingScheme) flipBit(r, c int) {
	g, i := c/h.p.M, c%h.p.M
	pat := h.pattern[i]
	h.check[r][g] ^= pat
	if (1+mathbits.OnesCount32(pat))&1 != 0 {
		h.par.Flip(r, g)
	}
}

func (h *hammingScheme) UpdateWrite(r, c int, oldVal, newVal bool) {
	if oldVal != newVal {
		h.flipBit(r, c)
	}
}

func (h *hammingScheme) UpdateRowWrite(r int, oldRow, newRow, cols *bitmat.Vec) {
	h.delta.Xor(oldRow, newRow)
	h.delta.And(h.delta, cols)
	h.delta.ForEachOne(func(c int) { h.flipBit(r, c) })
}

func (h *hammingScheme) UpdateColumnWrite(c int, oldCol, newCol, rows *bitmat.Vec) {
	h.delta.Xor(oldCol, newCol)
	h.delta.And(h.delta, rows)
	h.delta.ForEachOne(func(r int) { h.flipBit(r, c) })
}

// diagnoseWord decodes word g of row r. lr is the in-block row used in the
// reported Diagnosis.
func (h *hammingScheme) diagnoseWord(mem *bitmat.Mat, r, g, lr int) (Diagnosis, bool) {
	w := h.dataWord(mem, r, g)
	stored := h.check[r][g]
	syn := stored ^ h.encodeWord(w)
	parMismatch := ((mathbits.OnesCount64(w)+mathbits.OnesCount32(stored))&1 != 0) != h.par.Get(r, g)
	switch {
	case syn == 0 && !parMismatch:
		return Diagnosis{}, false
	case syn == 0: // the overall parity bit itself erred
		return Diagnosis{Kind: CheckError, LR: lr, Diag: h.checkBitID(lr, h.nCheck)}, true
	case !parMismatch: // non-zero syndrome, even parity: a double — detected
		return Diagnosis{Kind: Uncorrectable, LR: lr}, true
	}
	if pos := dataPosOf(int(syn)); pos >= 0 && pos < h.p.M {
		return Diagnosis{Kind: DataError, LR: lr, LC: pos}, true
	}
	if syn&(syn-1) == 0 { // syndrome names a check position: stored bit j erred
		if j := mathbits.TrailingZeros32(syn); j < h.nCheck {
			return Diagnosis{Kind: CheckError, LR: lr, Diag: h.checkBitID(lr, j)}, true
		}
	}
	// Odd parity but the syndrome points nowhere valid: ≥3 errors.
	return Diagnosis{Kind: Uncorrectable, LR: lr}, true
}

// checkBitID packs (word row, check bit) into the Diagnosis.Diag field:
// j in [0,nCheck) is a SEC check bit, j == nCheck the overall parity bit.
func (h *hammingScheme) checkBitID(lr, j int) int { return lr*(h.nCheck+1) + j }

func (h *hammingScheme) CheckBlock(mem *bitmat.Mat, br, bc int) []Diagnosis {
	var out []Diagnosis
	for lr := 0; lr < h.p.M; lr++ {
		if d, bad := h.diagnoseWord(mem, br*h.p.M+lr, bc, lr); bad {
			out = append(out, d)
		}
	}
	return out
}

func (h *hammingScheme) CorrectBlock(mem *bitmat.Mat, br, bc int) []Diagnosis {
	var out []Diagnosis
	for lr := 0; lr < h.p.M; lr++ {
		r := br*h.p.M + lr
		d, bad := h.diagnoseWord(mem, r, bc, lr)
		if !bad {
			continue
		}
		switch d.Kind {
		case DataError:
			mem.Flip(r, bc*h.p.M+d.LC)
		case CheckError:
			// Flipping the erred stored bit restores consistency on its
			// own: the overall parity already covers the corrected value.
			if j := d.Diag - h.checkBitID(lr, 0); j == h.nCheck {
				h.par.Flip(r, bc)
			} else {
				h.check[r][bc] ^= 1 << uint(j)
			}
		}
		out = append(out, d)
	}
	return out
}

func (h *hammingScheme) CorrectLine(mem *bitmat.Mat, blockRow bool, idx int, out []Finding) []Finding {
	return correctLineByBlock(h, mem, blockRow, idx, out)
}

func (h *hammingScheme) RebuildBlock(mem *bitmat.Mat, br, bc int) {
	for lr := 0; lr < h.p.M; lr++ {
		h.rebuildWord(mem, br*h.p.M+lr, bc)
	}
}

// RebuildRowWords: the Hamming unit is one horizontal word, fully
// contained in its row — re-encode the single crossed word.
func (h *hammingScheme) RebuildRowWords(mem *bitmat.Mat, r, bc int) bool {
	h.rebuildWord(mem, r, bc)
	return true
}

// ReferenceCheck re-derives each word's diagnosis bit-serially: every SEC
// check bit's parity is recomputed by looping over its covered data
// positions one at a time (no packed XOR of precomputed patterns), and the
// classification logic is written out independently of diagnoseWord.
func (h *hammingScheme) ReferenceCheck(mem *bitmat.Mat, br, bc int) []Diagnosis {
	var out []Diagnosis
	for lr := 0; lr < h.p.M; lr++ {
		r := br*h.p.M + lr
		// Recompute each check bit j as the parity of the data positions
		// whose Hamming index has bit j set.
		var syn uint32
		ones := 0
		for j := 0; j < h.nCheck; j++ {
			parity := false
			for i := 0; i < h.p.M; i++ {
				if hammingIndex(i)&(1<<uint(j)) != 0 && mem.Get(r, bc*h.p.M+i) {
					parity = !parity
				}
			}
			if parity != (h.check[r][bc]&(1<<uint(j)) != 0) {
				syn |= 1 << uint(j)
			}
		}
		for i := 0; i < h.p.M; i++ {
			if mem.Get(r, bc*h.p.M+i) {
				ones++
			}
		}
		for j := 0; j < h.nCheck; j++ {
			if h.check[r][bc]&(1<<uint(j)) != 0 {
				ones++
			}
		}
		parMismatch := (ones&1 != 0) != h.par.Get(r, bc)
		switch {
		case syn == 0 && !parMismatch:
			continue
		case syn == 0:
			out = append(out, Diagnosis{Kind: CheckError, LR: lr, Diag: h.checkBitID(lr, h.nCheck)})
		case !parMismatch:
			out = append(out, Diagnosis{Kind: Uncorrectable, LR: lr})
		default:
			if pos := dataPosOf(int(syn)); pos >= 0 && pos < h.p.M {
				out = append(out, Diagnosis{Kind: DataError, LR: lr, LC: pos})
			} else if syn&(syn-1) == 0 && int(syn) < 1<<uint(h.nCheck) {
				out = append(out, Diagnosis{Kind: CheckError, LR: lr,
					Diag: h.checkBitID(lr, mathbits.TrailingZeros32(syn))})
			} else {
				out = append(out, Diagnosis{Kind: Uncorrectable, LR: lr})
			}
		}
	}
	return out
}

// CoversCell: the codeword is one M-bit word — a diagnosis pertains only
// to cells of its own word row (every Diagnosis this scheme emits sets
// LR to the in-block word row).
func (h *hammingScheme) CoversCell(d Diagnosis, lr, _ int) bool { return d.LR == lr }

// UnitOf: the codeword is word bc of row r — reported under the cell's
// own block with the word row as the sub-unit index.
func (h *hammingScheme) UnitOf(r, c int) (ubr, ubc, sub int) {
	return r / h.p.M, c / h.p.M, r % h.p.M
}

// HomeColumns: words are block-column-local.
func (h *hammingScheme) HomeColumns(firstBC, lastBC int) (int, int) { return firstBC, lastBC }

// OverheadBits: (nCheck+1) bits per M-bit word, N/M words per row, N rows.
func (h *hammingScheme) OverheadBits() int {
	return h.p.N * (h.p.N / h.p.M) * (h.nCheck + 1)
}

// LineUpdateReads: every crossed word re-encodes from all M data bits.
func (h *hammingScheme) LineUpdateReads(lines int) int { return lines * h.p.M }
