package ecc

import mathbits "math/bits"

// The Hamming SEC-DED word code: the conventional horizontal code the
// paper's introduction dismisses for PIM, the scheme used when "ECC can be
// implemented along data transfer" in ordinary memories. Its correction
// power per word (one error) matches the diagonal code's per block; its
// update cost under stateful-logic parallelism does not (see word.go).
//
// Data bit i sits at the i-th non-power-of-two Hamming index and flips the
// SEC check bits named by that index; check bit nCheck is the overall
// parity over the data AND the stored SEC bits (the DED extension). Folded
// into the linear code, that parity is ⊕ᵢ dᵢ·(1 ⊕ |idxᵢ| mod 2), so data
// bit i's column is idxᵢ plus parity bit nCheck when |idxᵢ| is even. A
// single flipped data, SEC or parity bit is located and repaired; any
// double is detected, and never "corrected" into silent corruption.

// hammingCheckBits returns the number of SEC check bits for w data bits:
// smallest r with 2^r ≥ w + r + 1.
func hammingCheckBits(w int) int {
	r := 1
	for (1 << uint(r)) < w+r+1 {
		r++
	}
	return r
}

// hammingIndex maps data-bit position i (0-based) to its codeword index:
// the (i+1)-th positive integer that is not a power of two.
func hammingIndex(i int) int {
	idx := 0
	seen := -1
	for seen < i {
		idx++
		if idx&(idx-1) != 0 { // not a power of two
			seen++
		}
	}
	return idx
}

// dataPosOf inverts hammingIndex, returning −1 for check positions.
func dataPosOf(idx int) int {
	if idx&(idx-1) == 0 {
		return -1
	}
	pos := -1
	for k := 1; k <= idx; k++ {
		if k&(k-1) != 0 {
			pos++
		}
	}
	return pos
}

// hammingCode builds the SEC-DED columns for data width m.
func hammingCode(m int) *wordCode {
	n := hammingCheckBits(m)
	c := &wordCode{checks: n + 1, reads: m, ref: hammingRef}
	for i := 0; i < m; i++ {
		idx := uint16(hammingIndex(i))
		c.cols = append(c.cols, idx|(1^uint16(mathbits.OnesCount16(idx))&1)<<uint(n))
	}
	return c
}

// hammingRef re-derives the word's diagnosis bit-serially: each SEC check
// bit j is recomputed as the parity of the data positions whose Hamming
// index has bit j set, the overall parity counts data and stored SEC bits
// one at a time, and the classification is written out from the SEC-DED
// definition rather than looked up.
func hammingRef(c *wordCode, bit func(int) bool, stored uint16, lr int) []Diagnosis {
	n := c.checks - 1
	syn := stored &^ (1 << uint(n))
	ones := mathbits.OnesCount16(syn)
	for i := 0; i < c.m; i++ {
		if bit(i) {
			syn ^= uint16(hammingIndex(i))
			ones++
		}
	}
	parMismatch := (ones&1 != 0) != (stored>>uint(n)&1 != 0)
	checkErr := func(j int) []Diagnosis {
		return []Diagnosis{{Kind: CheckError, LR: lr, Diag: lr*c.checks + j}}
	}
	switch {
	case syn == 0 && !parMismatch:
		return nil
	case syn == 0: // the overall parity bit itself erred
		return checkErr(n)
	case !parMismatch: // non-zero syndrome, even parity: a double
		return []Diagnosis{{Kind: Uncorrectable, LR: lr}}
	}
	if pos := dataPosOf(int(syn)); pos >= 0 && pos < c.m {
		return []Diagnosis{{Kind: DataError, LR: lr, LC: pos}}
	}
	if syn&(syn-1) == 0 && int(syn) < 1<<uint(n) { // a stored SEC bit erred
		return checkErr(mathbits.TrailingZeros16(syn))
	}
	// Odd parity but the syndrome points nowhere valid: ≥3 errors.
	return []Diagnosis{{Kind: Uncorrectable, LR: lr}}
}
