package ecc

// The word codes of the scheme layer. Parity, Hamming SEC-DED and DEC are
// one idea: a systematic linear code over each M-bit horizontal word of a
// row — word g of row r covers columns [g·M, (g+1)·M), so block (br,bc)
// holds exactly the M words {row br·M+lr, word bc}. A code is fully given
// by the check bits each data bit flips (its column of the parity-check
// matrix; a stored check bit j flips only itself), so one backend,
// wordScheme, implements every Scheme operation for all three from a
// wordCode that supplies those columns, the correction budget t, the
// line-update cost and a bit-serial reference decoder:
//
//   - encoding is one 256-entry table lookup per data byte;
//   - a delta update XORs the changed bits' columns into their words'
//     stored check bits (a row delta encodes each word's changed bits at
//     once), the code being linear;
//   - decoding is one lookup of the syndrome in a table of every error
//     of ≤t positions among the word's data and stored check bits, built
//     once per (code, width) and verified collision-free: a syndrome
//     outside it is flagged uncorrectable and nothing is touched.
//
// The cheap deltas are functional only. LineUpdateReads reports
// the hardware cost: a column-parallel MAGIC operation changes one bit of
// every word it crosses, and with in-place overwrites the old value is
// gone, so each crossed Hamming or DEC word is re-encoded from all M data
// bits (Fig 2(a)); parity, a per-bit delta code, needs only the old and
// new value of each written cell.

import (
	"fmt"
	mathbits "math/bits"
	"slices"
	"sync"

	"repro/internal/bitmat"
)

// wordCode is the immutable, geometry-independent table of one code at
// one word width, shared by every crossbar that uses it.
type wordCode struct {
	name   string
	m      int           // data bits per word
	checks int           // stored check bits per word
	cols   []uint16      // cols[i] = the check bits data bit i flips
	reads  int           // data-bit reads per crossed word after a line write
	enc    [][256]uint16 // enc[k][b] = ⊕ cols[8k+j] over the set bits j of b
	// fix[syn] lists the positions of the ≤t-position error with
	// syndrome syn, ascending (i < m: data bit i; i ≥ m: check bit i−m),
	// or is nil when no such error exists.
	fix [][]int
	// ref decodes one word bit-serially from the code's definition,
	// independently of cols, enc and fix: bit(i) reads data bit i, and
	// stored holds the word's check bits.
	ref func(c *wordCode, bit func(i int) bool, stored uint16, lr int) []Diagnosis
}

// wordCodes caches the codes by (name, width). Fleet workers build
// machines concurrently, so the cache is mutex-guarded.
var wordCodes = struct {
	sync.Mutex
	byKey map[string]*wordCode
}{byKey: map[string]*wordCode{}}

// wordCodeFor returns the cached code name at width m, building it from
// build(m) (which sets checks ≤ 16, cols, reads and ref) on first use.
func wordCodeFor(name string, m, corrects int, build func(m int) *wordCode) *wordCode {
	key := fmt.Sprintf("%s/%d", name, m)
	wordCodes.Lock()
	defer wordCodes.Unlock()
	if c, ok := wordCodes.byKey[key]; ok {
		return c
	}
	c := build(m)
	c.name, c.m = name, m
	c.enc = make([][256]uint16, (m+7)/8)
	for k := range c.enc {
		for b := 1; b < 256; b++ {
			c.enc[k][b] = c.enc[k][b&(b-1)]
			if i := 8*k + mathbits.TrailingZeros8(uint8(b)); i < m {
				c.enc[k][b] ^= c.cols[i]
			}
		}
	}
	c.fix = make([][]int, 1<<uint(c.checks))
	c.addErrors(corrects, 0, 0, nil)
	wordCodes.byKey[key] = c
	return c
}

// syndromeOf is the syndrome of a flip at position i.
func (c *wordCode) syndromeOf(i int) uint16 {
	if i < c.m {
		return c.cols[i]
	}
	return 1 << uint(i-c.m)
}

// addErrors enters every error of up to t more positions ≥ first, on top
// of the positions in pos (syndrome syn), into the decode table. A zero or
// repeated syndrome would make some ≤t-bit error undecodable, so the code
// does not correct t errors: panic.
func (c *wordCode) addErrors(t, first int, syn uint16, pos []int) {
	if len(pos) > 0 {
		if syn == 0 || c.fix[syn] != nil {
			panic(fmt.Sprintf("ecc: %s at m=%d: errors %v and %v share syndrome %#x",
				c.name, c.m, c.fix[syn], pos, syn))
		}
		c.fix[syn] = slices.Clone(pos)
	}
	if t == 0 {
		return
	}
	for i := first; i < c.m+c.checks; i++ {
		c.addErrors(t-1, i+1, syn^c.syndromeOf(i), append(pos, i))
	}
}

// encode returns the check bits of the data word at bits [at, at+m) of
// v, read in ≤64-bit windows (one for every word but a wide parity word)
// with one table lookup per byte.
func (c *wordCode) encode(v *bitmat.Vec, at int) uint16 {
	var chk uint16
	var x uint64
	for k := range c.enc {
		if k&7 == 0 {
			x = v.Uint64At(at+8*k, min(64, c.m-8*k))
		}
		chk ^= c.enc[k][uint8(x)]
		x >>= 8
	}
	return chk
}

// validateWords checks the word tiling: M-bit words tile the row, with
// lo ≤ M and, when hi > 0, M ≤ hi (wide names the reason for the cap).
func validateWords(p Params, lo, hi int, wide string) error {
	if p.M < lo {
		return fmt.Errorf("ecc: word width m=%d too small (need m ≥ %d)", p.M, lo)
	}
	if hi > 0 && p.M > hi {
		return fmt.Errorf("ecc: word width m=%d too wide%s (need m ≤ %d)", p.M, wide, hi)
	}
	if p.N <= 0 || p.N%p.M != 0 {
		return fmt.Errorf("ecc: crossbar size n=%d must be a positive multiple of m=%d", p.N, p.M)
	}
	return nil
}

// wordSpec is the registry entry of a word code that corrects every
// error of ≤corrects positions per word.
func wordSpec(name string, corrects, detects int, validate func(Params) error, build func(m int) *wordCode) SchemeSpec {
	return SchemeSpec{
		Name:     name,
		Validate: validate,
		New: func(p Params, mem *bitmat.Mat) Scheme {
			if err := validate(p); err != nil {
				panic(err)
			}
			s := &wordScheme{
				p:     p,
				code:  wordCodeFor(name, p.M, corrects, build),
				words: p.N / p.M,
				check: make([]uint16, p.N*(p.N/p.M)),
				delta: bitmat.NewVec(p.N),
			}
			for r := 0; mem != nil && r < p.N; r++ {
				for g := 0; g < s.words; g++ {
					s.RebuildRowWords(mem, r, g)
				}
			}
			return s
		},
		Corrects: corrects,
		Detects:  detects,
	}
}

// parityCode is one parity bit per word: every data bit flips check bit
// 0. It detects every odd-weight word error and corrects nothing (t = 0);
// an even-weight error passes silently. Words are read in ≤64-bit
// windows, so its width is unbounded.
func parityCode(m int) *wordCode {
	c := &wordCode{checks: 1, cols: make([]uint16, m), reads: 2, ref: parityRef}
	for i := range c.cols {
		c.cols[i] = 1
	}
	return c
}

// parityRef recomputes the word's parity one cell at a time: a mismatch
// is detected, never located.
func parityRef(c *wordCode, bit func(int) bool, stored uint16, lr int) []Diagnosis {
	parity := stored&1 != 0
	for i := 0; i < c.m; i++ {
		if bit(i) {
			parity = !parity
		}
	}
	if parity {
		return []Diagnosis{{Kind: Uncorrectable, LR: lr}}
	}
	return nil
}

// wordScheme is the stored state of a word code: one packed check word
// per data word.
type wordScheme struct {
	p     Params
	code  *wordCode
	words int         // data words per row, N/M
	check []uint16    // check[r·words+g] = stored check bits of word g of row r
	delta *bitmat.Vec // scratch for the line-delta updates
}

func (s *wordScheme) Name() string   { return s.code.name }
func (s *wordScheme) Params() Params { return s.p }

func (s *wordScheme) Clone() Scheme {
	out := *s
	out.check = slices.Clone(s.check)
	out.delta = bitmat.NewVec(s.p.N)
	return &out
}

func (s *wordScheme) Equal(o Scheme) bool {
	ow, ok := o.(*wordScheme)
	return ok && s.p == ow.p && s.code.name == ow.code.name && slices.Equal(s.check, ow.check)
}

func (s *wordScheme) UpdateWrite(r, c int, oldVal, newVal bool) {
	if oldVal != newVal {
		s.check[r*s.words+c/s.p.M] ^= s.code.cols[c%s.p.M]
	}
}

// UpdateRowWrite XORs each word's encoded delta, the XOR of its changed
// bits' columns, into the word's check bits.
func (s *wordScheme) UpdateRowWrite(r int, oldRow, newRow, cols *bitmat.Vec) {
	s.delta.Xor(oldRow, newRow)
	s.delta.And(s.delta, cols)
	for g, at := r*s.words, 0; at < s.p.N; g, at = g+1, at+s.p.M {
		s.check[g] ^= s.code.encode(s.delta, at)
	}
}

func (s *wordScheme) UpdateColumnWrite(c int, oldCol, newCol, rows *bitmat.Vec) {
	s.delta.Xor(oldCol, newCol)
	s.delta.And(s.delta, rows)
	g, col := c/s.p.M, s.code.cols[c%s.p.M]
	s.delta.ForEachOne(func(r int) { s.check[r*s.words+g] ^= col })
}

// block decodes the M words of block (br,bc), appending the diagnoses in
// word-row order (a corrected multi-bit error lists its positions
// ascending, data before check bits); with fix it also repairs them.
func (s *wordScheme) block(mem *bitmat.Mat, br, bc int, fix bool) []Diagnosis {
	var out []Diagnosis
	m := s.p.M
	for lr := 0; lr < m; lr++ {
		r := br*m + lr
		stored := &s.check[r*s.words+bc]
		syn := *stored ^ s.code.encode(mem.Row(r), bc*m)
		if syn == 0 {
			continue
		}
		pos := s.code.fix[syn]
		if pos == nil {
			out = append(out, Diagnosis{Kind: Uncorrectable, LR: lr})
			continue
		}
		for _, i := range pos {
			if i < m {
				if fix {
					mem.Flip(r, bc*m+i)
				}
				out = append(out, Diagnosis{Kind: DataError, LR: lr, LC: i})
				continue
			}
			if fix {
				*stored ^= 1 << uint(i-m)
			}
			out = append(out, Diagnosis{Kind: CheckError, LR: lr, Diag: lr*s.code.checks + i - m})
		}
	}
	return out
}

// CheckBlock diagnoses each word of the block. A CheckError's Diag packs
// (word row, check bit) as lr·checks + j.
func (s *wordScheme) CheckBlock(mem *bitmat.Mat, br, bc int) []Diagnosis {
	return s.block(mem, br, bc, false)
}

func (s *wordScheme) CorrectBlock(mem *bitmat.Mat, br, bc int) []Diagnosis {
	return s.block(mem, br, bc, true)
}

func (s *wordScheme) CorrectLine(mem *bitmat.Mat, blockRow bool, idx int, out []Finding) []Finding {
	return correctLineByBlock(s, mem, blockRow, idx, out)
}

func (s *wordScheme) RebuildBlock(mem *bitmat.Mat, br, bc int) {
	for r := br * s.p.M; r < (br+1)*s.p.M; r++ {
		s.RebuildRowWords(mem, r, bc)
	}
}

// RebuildRowWords: the code unit is one horizontal word, fully contained
// in its row — re-encode the single crossed word.
func (s *wordScheme) RebuildRowWords(mem *bitmat.Mat, r, bc int) bool {
	s.check[r*s.words+bc] = s.code.encode(mem.Row(r), bc*s.p.M)
	return true
}

// ReferenceCheck runs the code's bit-serial reference decoder on every
// word of the block.
func (s *wordScheme) ReferenceCheck(mem *bitmat.Mat, br, bc int) []Diagnosis {
	var out []Diagnosis
	for lr := 0; lr < s.p.M; lr++ {
		r := br*s.p.M + lr
		bit := func(i int) bool { return mem.Get(r, bc*s.p.M+i) }
		out = append(out, s.code.ref(s.code, bit, s.check[r*s.words+bc], lr)...)
	}
	return out
}

// CoversCell: the code unit is one word row — a diagnosis pertains only
// to cells of its own word row (every diagnosis sets LR to it).
func (s *wordScheme) CoversCell(d Diagnosis, lr, _ int) bool { return d.LR == lr }

// UnitOf: the word lives in the cell's own block, word row sub.
func (s *wordScheme) UnitOf(r, c int) (ubr, ubc, sub int) {
	return r / s.p.M, c / s.p.M, r % s.p.M
}

// HomeColumns: words are block-column-local.
func (s *wordScheme) HomeColumns(firstBC, lastBC int) (int, int) { return firstBC, lastBC }

// OverheadBits: the code's check bits per M-bit word, N/M words per
// row, N rows.
func (s *wordScheme) OverheadBits() int { return s.p.N * s.words * s.code.checks }

func (s *wordScheme) LineUpdateReads(lines int) int { return lines * s.code.reads }
