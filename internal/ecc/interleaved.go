package ecc

// The interleaved-diagonal backend: k independent diagonal codes striped
// across the crossbar columns, so a clustered line fault — the plain
// diagonal code's detected-uncorrectable worst case — decomposes into at
// most one error per sub-code and becomes k correctable singles.
//
// Striping: global cell (r,c) belongs to sub-code s = (r+c) mod k. Along
// any row the sub-code index cycles with the column, and along any column
// it cycles with the row, so a contiguous burst of span ≤ k on either a
// wordline or a bitline touches k *distinct* sub-codes — each sees a
// single error and corrects it independently.
//
// Each sub-code is a plain diagonal code over its own logical array: for
// fixed s the cells of row r with (r+c) mod k == s are c = k·j + ((s−r)
// mod k) for j = 0..N/k−1, giving a logical N×(N/k) array addressed by
// (r, j=c/k). That logical array tiles into M×M logical blocks exactly as
// the paper's code does, with the same per-diagonal parity bits and the
// same decode rule; M must divide N/k.
//
// The Θ(1) update property survives interleaving: a line-parallel MAGIC
// operation writes one cell per crossed line, and within one logical
// block the changed cells of a single physical row (or column) have
// distinct logical columns (rows) — hence distinct diagonals. So each
// check bit still sees at most one changed bit per operation and
// LineUpdateReads stays 2·lines, while total check-bit storage equals the
// plain diagonal code's 2·m·(n/m)².
//
// Home blocks: the physical block grid is (N/M)×(N/M); the code has
// k · (N/M) · (N/(k·M)) = (N/M)² logical units. Unit (s, lbr, lbc) is
// homed at physical block (br=lbr, bc=lbc·k+s) — a bijection, so every
// physical block is home to exactly one unit and per-block scrub loops
// visit each unit exactly once. A unit's diagnoses use the home block's
// frame: LR is the physical row offset within the home block row, LC the
// physical column minus bc·M (which may fall outside [0,M) — the unit
// spans the whole column group — but BR·m+LR / BC·m+LC still name the
// exact physical cell).
import (
	"fmt"

	"repro/internal/bitmat"
)

// validateInterleavedGeometry checks the striped-diagonal constraints:
// the plain diagonal geometry (M ≤ 63 keeps each diagonal-parity family
// of a unit in one machine word), k column groups tiling the row, and M
// logical blocks tiling each sub-code's N/k logical columns.
func validateInterleavedGeometry(p Params, k int) error {
	if err := validateDiagonalGeometry(p); err != nil {
		return err
	}
	if k < 2 {
		return fmt.Errorf("ecc: interleave width k=%d too small (need k ≥ 2)", k)
	}
	if p.N%k != 0 {
		return fmt.Errorf("ecc: crossbar size n=%d must be a multiple of the interleave width k=%d", p.N, k)
	}
	if (p.N/k)%p.M != 0 {
		return fmt.Errorf("ecc: logical width n/k=%d must be a multiple of m=%d", p.N/k, p.M)
	}
	return nil
}

// interleavedScheme stores, per logical unit, one M-bit parity mask per
// diagonal family. Units are indexed by home block (br,bc) in row-major
// order over the physical block grid.
type interleavedScheme struct {
	p    Params
	k    int
	side int      // N/M, physical blocks per side
	lead []uint64 // [side*side] leading-diagonal parity masks, bit d = diagonal d
	ctr  []uint64 // counter-diagonal parity masks

	delta *bitmat.Vec // scratch for the line-delta updates
}

// newInterleavedScheme implements SchemeSpec.New for width k.
func newInterleavedScheme(p Params, mem *bitmat.Mat, k int) Scheme {
	if err := validateInterleavedGeometry(p, k); err != nil {
		panic(err)
	}
	side := p.N / p.M
	s := &interleavedScheme{
		p: p, k: k, side: side,
		lead:  make([]uint64, side*side),
		ctr:   make([]uint64, side*side),
		delta: bitmat.NewVec(p.N),
	}
	if mem != nil {
		for br := 0; br < side; br++ {
			for bc := 0; bc < side; bc++ {
				s.RebuildBlock(mem, br, bc)
			}
		}
	}
	return s
}

func (s *interleavedScheme) Name() string   { return fmt.Sprintf("%s%d", interleavedPrefix, s.k) }
func (s *interleavedScheme) Params() Params { return s.p }

func (s *interleavedScheme) Clone() Scheme {
	out := &interleavedScheme{
		p: s.p, k: s.k, side: s.side,
		lead:  append([]uint64(nil), s.lead...),
		ctr:   append([]uint64(nil), s.ctr...),
		delta: bitmat.NewVec(s.p.N),
	}
	return out
}

func (s *interleavedScheme) Equal(o Scheme) bool {
	oi, ok := o.(*interleavedScheme)
	if !ok || s.p != oi.p || s.k != oi.k {
		return false
	}
	for i := range s.lead {
		if s.lead[i] != oi.lead[i] || s.ctr[i] != oi.ctr[i] {
			return false
		}
	}
	return true
}

// unitAt maps physical cell (r,c) to the index of its covering unit (its
// home block, row-major) and the cell's logical in-block coordinates.
func (s *interleavedScheme) unitAt(r, c int) (u, lr, lj int) {
	j := c / s.k // logical column within sub-code (r+c) mod k
	br, bc := r/s.p.M, (j/s.p.M)*s.k+(r+c)%s.k
	return br*s.side + bc, r % s.p.M, j % s.p.M
}

func (s *interleavedScheme) UpdateWrite(r, c int, oldVal, newVal bool) {
	if oldVal != newVal {
		u, lr, lj := s.unitAt(r, c)
		s.lead[u] ^= 1 << uint(s.p.LeadIdx(lr, lj))
		s.ctr[u] ^= 1 << uint(s.p.CounterIdx(lr, lj))
	}
}

// UpdateRowWrite folds the masked delta's stripe of each unit crossed.
func (s *interleavedScheme) UpdateRowWrite(r int, oldRow, newRow, cols *bitmat.Vec) {
	s.delta.Xor(oldRow, newRow)
	s.delta.And(s.delta, cols)
	m := s.p.M
	br, lr := r/m, r%m
	for bc := 0; bc < s.side; bc++ {
		sub, _, lbc := s.unitHome(br, bc)
		l, c := rowFold(s.stripe(s.delta, s.physCol(sub, r, lbc*m)), lr, m)
		s.lead[br*s.side+bc] ^= l
		s.ctr[br*s.side+bc] ^= rev(c, m)
	}
}

// UpdateColumnWrite folds one delta word per unit crossed: column c's
// cell in row r is logical column c/k of sub-code (r+c) mod k.
func (s *interleavedScheme) UpdateColumnWrite(c int, oldCol, newCol, rows *bitmat.Vec) {
	s.delta.Xor(oldCol, newCol)
	s.delta.And(s.delta, rows)
	m, k := s.p.M, s.k
	lbc, lj := c/k/m, c/k%m
	for br := 0; br < s.side; br++ {
		seg := s.delta.Uint64At(br*m, m)
		for sub := 0; seg != 0 && sub < k; sub++ {
			var w uint64 // the segment's rows lr with (br·m+lr+c) mod k = sub
			for lr := ((sub-br*m-c)%k + k) % k; lr < m; lr += k {
				w |= seg & (1 << uint(lr))
			}
			s.lead[br*s.side+lbc*k+sub] ^= rotl(w, lj, m)
			s.ctr[br*s.side+lbc*k+sub] ^= rotl(w, (m-lj)%m, m)
		}
	}
}

// unitHome decodes home block (br,bc) into the unit's sub-code and
// logical block coordinates.
func (s *interleavedScheme) unitHome(br, bc int) (sub, lbr, lbc int) {
	return bc % s.k, br, bc / s.k
}

// physCol returns the physical column of logical cell (r, j) within
// sub-code sub: the unique column of group j whose stripe index matches.
func (s *interleavedScheme) physCol(sub, r, j int) int {
	return s.k*j + ((sub-r)%s.k+s.k)%s.k
}

// stripe gathers the unit's m cells of physical row r — k columns apart
// from column c0 — into bits 0..m−1 of one word, reading the row in
// 64-bit windows.
func (s *interleavedScheme) stripe(row *bitmat.Vec, c0 int) uint64 {
	var w uint64
	for lj := 0; lj < s.p.M; {
		lo := c0 + lj*s.k
		x := row.Uint64At(lo, min(64, row.Len()-lo))
		for off := 0; off < 64 && lj < s.p.M; off += s.k {
			w |= (x >> uint(off) & 1) << uint(lj)
			lj++
		}
	}
	return w
}

// parity recomputes the diagonal parities of the unit homed at block
// (br,bc) from the memory image, folding each row's stripe as the plain
// diagonal code folds a block row segment.
func (s *interleavedScheme) parity(mem *bitmat.Mat, br, bc int) (lead, ctr uint64) {
	sub, lbr, lbc := s.unitHome(br, bc)
	m := s.p.M
	for lr := 0; lr < m; lr++ {
		r := lbr*m + lr
		l, c := rowFold(s.stripe(mem.Row(r), s.physCol(sub, r, lbc*m)), lr, m)
		lead ^= l
		ctr ^= c
	}
	return lead, rev(ctr, m)
}

// diagnose decodes the unit's syndrome into home-block-frame diagnoses.
func (s *interleavedScheme) diagnose(mem *bitmat.Mat, br, bc int) []Diagnosis {
	u := br*s.side + bc
	lead, ctr := s.parity(mem, br, bc)
	return s.homeFrame(Decode(s.p, s.lead[u]^lead, s.ctr[u]^ctr), br, bc)
}

// homeFrame wraps a unit's decoded diagnosis for the Scheme interface,
// translating Decode's logical data cell into the home block's frame.
func (s *interleavedScheme) homeFrame(d Diagnosis, br, bc int) []Diagnosis {
	if d.Kind == NoError {
		return nil
	}
	if d.Kind == DataError {
		sub, lbr, lbc := s.unitHome(br, bc)
		m := s.p.M
		r := lbr*m + d.LR
		d.LC = s.physCol(sub, r, lbc*m+d.LC) - bc*m
	}
	return []Diagnosis{d}
}

func (s *interleavedScheme) CheckBlock(mem *bitmat.Mat, br, bc int) []Diagnosis {
	return s.diagnose(mem, br, bc)
}

func (s *interleavedScheme) CorrectBlock(mem *bitmat.Mat, br, bc int) []Diagnosis {
	ds := s.diagnose(mem, br, bc)
	for _, d := range ds {
		u := br*s.side + bc
		switch d.Kind {
		case DataError:
			mem.Flip(br*s.p.M+d.LR, bc*s.p.M+d.LC)
		case LeadCheckError:
			s.lead[u] ^= 1 << uint(d.Diag)
		case CounterCheckError:
			s.ctr[u] ^= 1 << uint(d.Diag)
		}
	}
	return ds
}

func (s *interleavedScheme) CorrectLine(mem *bitmat.Mat, blockRow bool, idx int, out []Finding) []Finding {
	return correctLineByBlock(s, mem, blockRow, idx, out)
}

func (s *interleavedScheme) RebuildBlock(mem *bitmat.Mat, br, bc int) {
	u := br*s.side + bc
	s.lead[u], s.ctr[u] = s.parity(mem, br, bc)
}

// RebuildRowWords: like the plain diagonal code, no unit fits inside one
// row — there is nothing row-scoped to re-encode.
func (s *interleavedScheme) RebuildRowWords(*bitmat.Mat, int, int) bool { return false }

// ReferenceCheck re-derives the unit's diagnosis bit-serially from the
// striping definition: every physical cell of the home block's column
// group is tested for membership ((r+c) mod k) and folded into vector
// syndromes one at a time, then decoded by the shared Decode rule.
func (s *interleavedScheme) ReferenceCheck(mem *bitmat.Mat, br, bc int) []Diagnosis {
	sub, lbr, lbc := s.unitHome(br, bc)
	m := s.p.M
	u := br*s.side + bc
	lead := bitmat.NewVec(m)
	ctr := bitmat.NewVec(m)
	for d := 0; d < m; d++ {
		lead.Set(d, s.lead[u]&(1<<uint(d)) != 0)
		ctr.Set(d, s.ctr[u]&(1<<uint(d)) != 0)
	}
	for r := lbr * m; r < (lbr+1)*m; r++ {
		for c := lbc * m * s.k; c < (lbc+1)*m*s.k; c++ {
			if (r+c)%s.k != sub || !mem.Get(r, c) {
				continue
			}
			lr, lj := r%m, (c/s.k)%m
			lead.Flip(s.p.LeadIdx(lr, lj))
			ctr.Flip(s.p.CounterIdx(lr, lj))
		}
	}
	return s.homeFrame(Decode(s.p, lead.Uint64(), ctr.Uint64()), br, bc)
}

// CoversCell: the unit spans its whole column group, and consumers reach
// it through UnitOf — every diagnosis pertains to every covered cell.
func (s *interleavedScheme) CoversCell(Diagnosis, int, int) bool { return true }

// UnitOf: the covering unit is homed at block (r/M, (c/k/M)·k + (r+c)%k).
func (s *interleavedScheme) UnitOf(r, c int) (ubr, ubc, sub int) {
	u, _, _ := s.unitAt(r, c)
	return u / s.side, u % s.side, 0
}

// HomeColumns: a unit covers k·M contiguous physical columns, so the
// covering units of any block-column range are homed across its enclosing
// column groups.
func (s *interleavedScheme) HomeColumns(firstBC, lastBC int) (int, int) {
	return (firstBC / s.k) * s.k, (lastBC/s.k)*s.k + s.k - 1
}

// OverheadBits: identical storage to the plain diagonal code — the same
// 2·m parity bits per unit, (n/m)² units.
func (s *interleavedScheme) OverheadBits() int { return s.p.TotalCheckBits() }

// LineUpdateReads: striping preserves the one-changed-cell-per-diagonal
// property, so only the old/new copy of each written cell is read.
func (s *interleavedScheme) LineUpdateReads(lines int) int { return 2 * lines }
