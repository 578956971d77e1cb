package ecc

// The DEC word code: a true double-error-correcting, triple-error-detecting
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
// 11-bit column drives the shared word-code machinery (word.go), whose
// syndrome table over all ≤2-position errors is verified collision-free
// when it is built.

import "fmt"

// decCheckBits is the fixed redundancy of the shortened extended
// BCH(31,21): 10 BCH syndrome bits plus the overall parity.
const decCheckBits = 11

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

// decCode constructs the systematic shortened code for data width m.
func decCode(m int) *wordCode {
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
	// row. A data position's 11-bit column reads those rows column-wise.
	c := &wordCode{checks: decCheckBits, reads: m, ref: decRef}
	for pos := 0; pos < n; pos++ {
		if isPivot[pos] {
			continue
		}
		var col uint16
		for j := 0; j < decCheckBits; j++ {
			if rows[pivRows[j]]&(1<<uint(pos)) != 0 {
				col |= 1 << uint(j)
			}
		}
		c.cols = append(c.cols, col)
	}
	if len(c.cols) != m {
		panic(fmt.Sprintf("ecc: dec code has %d data positions at m=%d", len(c.cols), m))
	}
	return c
}

// decRef re-derives the word's diagnosis bit-serially: every syndrome bit
// is recomputed by looping the data positions one at a time, and decoding
// is a brute-force search over all ≤2-position error patterns instead of
// the production lookup table.
func decRef(c *wordCode, bit func(int) bool, stored uint16, lr int) []Diagnosis {
	m, n := c.m, c.m+decCheckBits
	var syn uint16
	for b := 0; b < decCheckBits; b++ {
		parity := stored&(1<<uint(b)) != 0
		for i := 0; i < m; i++ {
			if c.cols[i]&(1<<uint(b)) != 0 && bit(i) {
				parity = !parity
			}
		}
		if parity {
			syn |= 1 << uint(b)
		}
	}
	if syn == 0 {
		return nil
	}
	var positions []int
	for i := 0; i < n && positions == nil; i++ {
		if c.syndromeOf(i) == syn {
			positions = []int{i}
		}
	}
	for i := 0; i < n && positions == nil; i++ {
		for j := i + 1; j < n && positions == nil; j++ {
			if c.syndromeOf(i)^c.syndromeOf(j) == syn {
				positions = []int{i, j}
			}
		}
	}
	if positions == nil {
		return []Diagnosis{{Kind: Uncorrectable, LR: lr}}
	}
	var out []Diagnosis
	for _, pos := range positions {
		if pos < m {
			out = append(out, Diagnosis{Kind: DataError, LR: lr, LC: pos})
		} else {
			out = append(out, Diagnosis{Kind: CheckError, LR: lr, Diag: lr*decCheckBits + pos - m})
		}
	}
	return out
}
