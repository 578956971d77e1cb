package ecc

// The DEC backend: a true double-error-correcting, triple-error-detecting
// horizontal code over M-bit words, the "what if one correction per word
// is not enough" comparison point the PRM-style lightweight multi-error
// decoders motivate. Each M-bit word of a row is one codeword of a
// shortened extended BCH(31,21) code over GF(2⁵): the parity-check matrix
// stacks [α^j ; α^{3j} ; 1] for the BCH positions plus the overall-parity
// extension column, giving minimum distance ≥ 6 — any double error is
// corrected, any triple is detected, and no ≤3-bit error is ever
// miscorrected (a triple aliasing a ≤2-bit pattern would need five
// linearly dependent H columns, which d ≥ 6 forbids).
//
// The matrix is brought to systematic form at construction by
// Gauss-Jordan elimination, pivoting from the highest position down: the
// 11 pivot positions become the stored check bits (pure unit columns),
// the remaining M positions carry the data in order, and each data bit's
// 11-bit column pattern drives Θ(changed-bits) delta updates exactly like
// the Hamming backend. Decoding is a syndrome lookup over all ≤2-position
// error patterns, verified collision-free when the table is built.
//
// Like every horizontal word code, a line-parallel MAGIC operation
// changes one bit of each crossed word, and with in-place overwrites the
// word must be re-encoded from all M data bits — LineUpdateReads is
// lines·M, the update asymmetry the diagonal placement avoids.

import (
	"fmt"
	mathbits "math/bits"
	"sort"
	"sync"

	"repro/internal/bitmat"
)

// decCheckBits is the fixed redundancy of the shortened extended
// BCH(31,21): 10 BCH syndrome bits plus the overall parity.
const decCheckBits = 11

// validateDECGeometry: the word tiling of the horizontal schemes, with
// the word width capped by the mother code length (m + 11 positions must
// fit the 31 BCH columns plus the extension column).
func validateDECGeometry(p Params) error {
	if p.M < 2 {
		return fmt.Errorf("ecc: word width m=%d too small (need m ≥ 2)", p.M)
	}
	if p.M > 21 {
		return fmt.Errorf("ecc: word width m=%d too wide for shortened BCH(31,21) (need m ≤ 21)", p.M)
	}
	if p.N <= 0 || p.N%p.M != 0 {
		return fmt.Errorf("ecc: crossbar size n=%d must be a positive multiple of m=%d", p.N, p.M)
	}
	return nil
}

// gf32Pow returns α^e in GF(32) with primitive polynomial x⁵+x²+1.
func gf32Pow(e int) uint16 {
	v := uint16(1)
	for i := 0; i < e%31; i++ {
		v <<= 1
		if v&0x20 != 0 {
			v ^= 0x25
		}
	}
	return v
}

// decCode is the geometry-independent code table for one word width:
// per-data-bit column patterns and the syndrome → error-pattern map.
type decCode struct {
	m       int
	pattern []uint16           // pattern[i] = data bit i's 11-bit H column
	decode  map[uint16][]uint8 // syndrome → sorted logical positions (<m data, ≥m check)
}

// buildDECCode constructs the systematic shortened code for data width m.
func buildDECCode(m int) *decCode {
	n := m + decCheckBits
	cols := make([]uint16, n)
	for j := 0; j < n-1; j++ {
		cols[j] = gf32Pow(j) | gf32Pow(3*j)<<5 | 1<<10
	}
	cols[n-1] = 1 << 10 // the extension (overall-parity) column

	// Transpose to row vectors over the n positions and Gauss-Jordan with
	// row operations only (row ops change the syndrome basis, never the
	// code), pivoting from the highest position down: the 11 pivot
	// positions become the stored check bits.
	rows := make([]uint32, decCheckBits)
	for b := range rows {
		for pos, col := range cols {
			if col&(1<<uint(b)) != 0 {
				rows[b] |= 1 << uint(pos)
			}
		}
	}
	isPivot := make([]bool, n)
	var pivots []int  // pivot positions, in pick order
	var pivRows []int // the row reduced at each pivot
	usedRow := make([]bool, decCheckBits)
	for pos := n - 1; pos >= 0 && len(pivots) < decCheckBits; pos-- {
		pr := -1
		for ri := range rows {
			if !usedRow[ri] && rows[ri]&(1<<uint(pos)) != 0 {
				pr = ri
				break
			}
		}
		if pr < 0 {
			continue
		}
		usedRow[pr], isPivot[pos] = true, true
		pivots, pivRows = append(pivots, pos), append(pivRows, pr)
		for ri := range rows {
			if ri != pr && rows[ri]&(1<<uint(pos)) != 0 {
				rows[ri] ^= rows[pr]
			}
		}
	}
	if len(pivots) != decCheckBits {
		panic(fmt.Sprintf("ecc: dec code rank %d < %d at m=%d", len(pivots), decCheckBits, m))
	}

	// Stored check bit j = the j-th pivot; syndrome bit j is its reduced
	// row. A data position's 11-bit pattern reads those rows column-wise.
	c := &decCode{m: m, pattern: make([]uint16, 0, m), decode: make(map[uint16][]uint8)}
	for pos := 0; pos < n; pos++ {
		if isPivot[pos] {
			continue
		}
		var pat uint16
		for j := 0; j < decCheckBits; j++ {
			if rows[pivRows[j]]&(1<<uint(pos)) != 0 {
				pat |= 1 << uint(j)
			}
		}
		c.pattern = append(c.pattern, pat)
	}
	if len(c.pattern) != m {
		panic(fmt.Sprintf("ecc: dec code has %d data positions at m=%d", len(c.pattern), m))
	}

	// Error-pattern table over logical positions: i < m flips data bit i
	// (syndrome delta pattern[i]), i ≥ m flips stored check bit i−m
	// (syndrome delta e_{i−m}). Distance ≥ 6 makes every ≤2-position
	// syndrome unique and nonzero; the build verifies that.
	synOf := func(pos int) uint16 {
		if pos < m {
			return c.pattern[pos]
		}
		return 1 << uint(pos-m)
	}
	add := func(syn uint16, positions ...uint8) {
		if syn == 0 {
			panic(fmt.Sprintf("ecc: dec error pattern %v has zero syndrome at m=%d", positions, m))
		}
		if prev, dup := c.decode[syn]; dup {
			panic(fmt.Sprintf("ecc: dec syndrome collision %v vs %v at m=%d", prev, positions, m))
		}
		c.decode[syn] = positions
	}
	for i := 0; i < n; i++ {
		add(synOf(i), uint8(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			add(synOf(i)^synOf(j), uint8(i), uint8(j))
		}
	}
	return c
}

// decCodes caches the code tables per word width; schemes of the same
// width share one immutable table. Fleet workers construct machines
// concurrently, so the cache is mutex-guarded.
var decCodes = struct {
	sync.Mutex
	byWidth map[int]*decCode
}{byWidth: map[int]*decCode{}}

func decCodeFor(m int) *decCode {
	decCodes.Lock()
	defer decCodes.Unlock()
	if c, ok := decCodes.byWidth[m]; ok {
		return c
	}
	c := buildDECCode(m)
	decCodes.byWidth[m] = c
	return c
}

// decScheme is the stored state: 11 check bits per M-bit word.
type decScheme struct {
	p     Params
	code  *decCode
	check [][]uint16 // [row][word]

	delta *bitmat.Vec // scratch for the line-delta updates
}

// newDECScheme implements SchemeSpec.New.
func newDECScheme(p Params, mem *bitmat.Mat) Scheme {
	if err := validateDECGeometry(p); err != nil {
		panic(err)
	}
	words := p.N / p.M
	s := &decScheme{
		p:     p,
		code:  decCodeFor(p.M),
		check: make([][]uint16, p.N),
		delta: bitmat.NewVec(p.N),
	}
	for r := range s.check {
		s.check[r] = make([]uint16, words)
	}
	if mem != nil {
		for r := 0; r < p.N; r++ {
			for g := 0; g < words; g++ {
				s.check[r][g] = s.encodeWord(s.dataWord(mem, r, g))
			}
		}
	}
	return s
}

func (s *decScheme) Name() string   { return SchemeDEC }
func (s *decScheme) Params() Params { return s.p }

func (s *decScheme) Clone() Scheme {
	out := &decScheme{
		p:     s.p,
		code:  s.code, // immutable, shared
		check: make([][]uint16, len(s.check)),
		delta: bitmat.NewVec(s.p.N),
	}
	for r := range s.check {
		out.check[r] = append([]uint16(nil), s.check[r]...)
	}
	return out
}

func (s *decScheme) Equal(o Scheme) bool {
	od, ok := o.(*decScheme)
	if !ok || s.p != od.p {
		return false
	}
	for r := range s.check {
		for g := range s.check[r] {
			if s.check[r][g] != od.check[r][g] {
				return false
			}
		}
	}
	return true
}

// dataWord reads the M data bits of word g in row r, LSB = lowest column.
func (s *decScheme) dataWord(mem *bitmat.Mat, r, g int) uint64 {
	return mem.Row(r).Uint64At(g*s.p.M, s.p.M)
}

// encodeWord computes the 11 check bits of a data word.
func (s *decScheme) encodeWord(w uint64) uint16 {
	var c uint16
	for w != 0 {
		i := mathbits.TrailingZeros64(w)
		w &= w - 1
		c ^= s.code.pattern[i]
	}
	return c
}

// flipBit applies the Θ(1) delta update for one changed data bit.
func (s *decScheme) flipBit(r, c int) {
	s.check[r][c/s.p.M] ^= s.code.pattern[c%s.p.M]
}

func (s *decScheme) UpdateWrite(r, c int, oldVal, newVal bool) {
	if oldVal != newVal {
		s.flipBit(r, c)
	}
}

func (s *decScheme) UpdateRowWrite(r int, oldRow, newRow, cols *bitmat.Vec) {
	s.delta.Xor(oldRow, newRow)
	s.delta.And(s.delta, cols)
	s.delta.ForEachOne(func(c int) { s.flipBit(r, c) })
}

func (s *decScheme) UpdateColumnWrite(c int, oldCol, newCol, rows *bitmat.Vec) {
	s.delta.Xor(oldCol, newCol)
	s.delta.And(s.delta, rows)
	s.delta.ForEachOne(func(r int) { s.flipBit(r, c) })
}

// checkBitID packs (word row, check bit) into Diagnosis.Diag.
func (s *decScheme) checkBitID(lr, j int) int { return lr*decCheckBits + j }

// diagnoseWord decodes word g of row r into zero, one, or two diagnoses
// (a corrected double names both positions), sorted data-before-check by
// ascending position.
func (s *decScheme) diagnoseWord(mem *bitmat.Mat, r, g, lr int) []Diagnosis {
	syn := s.check[r][g] ^ s.encodeWord(s.dataWord(mem, r, g))
	if syn == 0 {
		return nil
	}
	positions, ok := s.code.decode[syn]
	if !ok {
		// ≥3 errors: a nonzero syndrome matching no ≤2-position pattern.
		return []Diagnosis{{Kind: Uncorrectable, LR: lr}}
	}
	out := make([]Diagnosis, 0, len(positions))
	for _, pos := range positions {
		if int(pos) < s.p.M {
			out = append(out, Diagnosis{Kind: DataError, LR: lr, LC: int(pos)})
		} else {
			out = append(out, Diagnosis{Kind: CheckError, LR: lr, Diag: s.checkBitID(lr, int(pos)-s.p.M)})
		}
	}
	return out
}

func (s *decScheme) CheckBlock(mem *bitmat.Mat, br, bc int) []Diagnosis {
	var out []Diagnosis
	for lr := 0; lr < s.p.M; lr++ {
		out = append(out, s.diagnoseWord(mem, br*s.p.M+lr, bc, lr)...)
	}
	return out
}

func (s *decScheme) CorrectBlock(mem *bitmat.Mat, br, bc int) []Diagnosis {
	var out []Diagnosis
	for lr := 0; lr < s.p.M; lr++ {
		r := br*s.p.M + lr
		ds := s.diagnoseWord(mem, r, bc, lr)
		for _, d := range ds {
			switch d.Kind {
			case DataError:
				mem.Flip(r, bc*s.p.M+d.LC)
			case CheckError:
				s.check[r][bc] ^= 1 << uint(d.Diag-s.checkBitID(lr, 0))
			}
		}
		out = append(out, ds...)
	}
	return out
}

func (s *decScheme) CorrectLine(mem *bitmat.Mat, blockRow bool, idx int, out []Finding) []Finding {
	return correctLineByBlock(s, mem, blockRow, idx, out)
}

func (s *decScheme) RebuildBlock(mem *bitmat.Mat, br, bc int) {
	for lr := 0; lr < s.p.M; lr++ {
		r := br*s.p.M + lr
		s.check[r][bc] = s.encodeWord(s.dataWord(mem, r, bc))
	}
}

// RebuildRowWords: the codeword is one horizontal word, fully contained
// in its row — re-encode the single crossed word.
func (s *decScheme) RebuildRowWords(mem *bitmat.Mat, r, bc int) bool {
	s.check[r][bc] = s.encodeWord(s.dataWord(mem, r, bc))
	return true
}

// ReferenceCheck re-derives each word's diagnosis bit-serially: every
// syndrome bit is recomputed by looping the data positions one at a time,
// and decoding is a brute-force search over all ≤2-position error
// patterns instead of the production lookup table.
func (s *decScheme) ReferenceCheck(mem *bitmat.Mat, br, bc int) []Diagnosis {
	m := s.p.M
	n := m + decCheckBits
	synOf := func(pos int) uint16 {
		if pos < m {
			return s.code.pattern[pos]
		}
		return 1 << uint(pos-m)
	}
	var out []Diagnosis
	for lr := 0; lr < m; lr++ {
		r := br*m + lr
		var syn uint16
		for b := 0; b < decCheckBits; b++ {
			parity := s.check[r][bc]&(1<<uint(b)) != 0
			for i := 0; i < m; i++ {
				if s.code.pattern[i]&(1<<uint(b)) != 0 && mem.Get(r, bc*m+i) {
					parity = !parity
				}
			}
			if parity {
				syn |= 1 << uint(b)
			}
		}
		if syn == 0 {
			continue
		}
		var positions []int
		found := false
		for i := 0; i < n && !found; i++ {
			if synOf(i) == syn {
				positions, found = []int{i}, true
			}
		}
		for i := 0; i < n && !found; i++ {
			for j := i + 1; j < n && !found; j++ {
				if synOf(i)^synOf(j) == syn {
					positions, found = []int{i, j}, true
				}
			}
		}
		if !found {
			out = append(out, Diagnosis{Kind: Uncorrectable, LR: lr})
			continue
		}
		sort.Ints(positions)
		for _, pos := range positions {
			if pos < m {
				out = append(out, Diagnosis{Kind: DataError, LR: lr, LC: pos})
			} else {
				out = append(out, Diagnosis{Kind: CheckError, LR: lr, Diag: s.checkBitID(lr, pos-m)})
			}
		}
	}
	return out
}

// CoversCell: the code unit is one word row.
func (s *decScheme) CoversCell(d Diagnosis, lr, _ int) bool { return d.LR == lr }

// UnitOf: the codeword lives in the cell's own block, word row sub.
func (s *decScheme) UnitOf(r, c int) (ubr, ubc, sub int) {
	return r / s.p.M, c / s.p.M, r % s.p.M
}

// HomeColumns: words are block-column-local.
func (s *decScheme) HomeColumns(firstBC, lastBC int) (int, int) { return firstBC, lastBC }

// OverheadBits: 11 bits per M-bit word, N/M words per row, N rows.
func (s *decScheme) OverheadBits() int {
	return s.p.N * (s.p.N / s.p.M) * decCheckBits
}

// LineUpdateReads: every crossed word re-encodes from all M data bits.
func (s *decScheme) LineUpdateReads(lines int) int { return lines * s.p.M }
