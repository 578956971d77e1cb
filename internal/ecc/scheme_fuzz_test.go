package ecc

import (
	"fmt"
	"testing"

	"repro/internal/bitmat"
)

// FuzzSchemeContract drives every registered scheme through the budget
// contract its SchemeSpec declares, on geometries that exercise striped
// stripes and word-unaligned rows alike: any ≤Corrects-bit error within
// one code unit is repaired exactly; any error beyond Corrects but within
// Detects is flagged uncorrectable and nothing — data or stored check
// bits — is mutated (never miscorrect, no check-bit laundering); and the
// delta-update paths stay equivalent to a from-scratch rebuild. The unit
// membership itself comes from UnitOf, so the harness needs no per-scheme
// knowledge and automatically covers future registry entries.
func FuzzSchemeContract(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x01, 0x02})
	f.Add(int64(2), []byte{0x10, 0x20, 0x01, 0x33, 0x05, 0x02})
	f.Add(int64(3), []byte{0x3B, 0x3B, 0x00, 0x07, 0x2C, 0x01, 0x15, 0x16, 0x02})
	f.Add(int64(7), []byte{0xFF, 0xFE, 0xFD, 0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		// All geometries keep n % m == 0; beyond that they stress
		// different corners: 45 rejects the even interleave widths, 66
		// has words straddling uint64 boundaries (m=11), 30/3 is the
		// minimal odd block.
		geoms := []Params{{N: 60, M: 15}, {N: 45, M: 15}, {N: 66, M: 11}, {N: 30, M: 3}}
		p := geoms[int(uint64(seed)%uint64(len(geoms)))]
		for _, name := range SchemeNames() {
			spec, err := SchemeByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if spec.Validate(p) != nil {
				continue // geometry gates are their own tests
			}
			mem := randomMemory(seed, p)
			s := spec.New(p, mem)
			want := mem.Clone()
			for i := 0; i+2 < len(script) && i < 30; i += 3 {
				r0, c0 := int(script[i])%p.N, int(script[i+1])%p.N
				ubr, ubc, usub := s.UnitOf(r0, c0)
				var cells [][2]int
				for r := 0; r < p.N; r++ {
					for c := 0; c < p.N; c++ {
						if br, bc, sub := s.UnitOf(r, c); br == ubr && bc == ubc && sub == usub {
							cells = append(cells, [2]int{r, c})
						}
					}
				}
				budget := spec.Detects
				if budget < 1 {
					budget = 1
				}
				if budget > len(cells) {
					budget = len(cells)
				}
				nf := 1 + int(script[i+2])%budget
				// Deterministically pick nf distinct cells of the unit.
				picked := make(map[int]bool, nf)
				var flips [][2]int
				h := uint64(seed) ^ uint64(script[i+2])<<8 ^ uint64(i)<<17
				for len(flips) < nf {
					h = h*6364136223846793005 + 1442695040888963407
					idx := int((h >> 33) % uint64(len(cells)))
					if picked[idx] {
						continue
					}
					picked[idx] = true
					flips = append(flips, cells[idx])
				}
				for _, fc := range flips {
					mem.Flip(fc[0], fc[1])
				}
				if nf <= spec.Corrects {
					ds := s.CorrectBlock(mem, ubr, ubc)
					if len(ds) != nf {
						t.Fatalf("%s %v: %d diagnoses for %d in-budget flips: %v", name, p, len(ds), nf, ds)
					}
					for _, d := range ds {
						if d.Kind != DataError {
							t.Fatalf("%s %v: in-budget flip diagnosed %v", name, p, d.Kind)
						}
					}
					if !mem.Equal(want) {
						t.Fatalf("%s %v: %d-bit unit error not repaired exactly", name, p, nf)
					}
					if ds := s.CheckBlock(mem, ubr, ubc); len(ds) != 0 {
						t.Fatalf("%s %v: unit dirty after repair: %v", name, p, ds)
					}
				} else {
					dirty := mem.Clone()
					ds := s.CorrectBlock(mem, ubr, ubc)
					unc := false
					for _, d := range ds {
						if d.Kind == Uncorrectable {
							unc = true
						}
					}
					if !unc {
						t.Fatalf("%s %v: %d flips (budget %d) not flagged uncorrectable: %v",
							name, p, nf, spec.Corrects, ds)
					}
					if !mem.Equal(dirty) {
						t.Fatalf("%s %v: uncorrectable unit was mutated — miscorrection", name, p)
					}
					for _, fc := range flips {
						mem.Flip(fc[0], fc[1])
					}
					if !mem.Equal(want) {
						t.Fatalf("%s %v: undo bookkeeping bug", name, p)
					}
					if ds := s.CheckBlock(mem, ubr, ubc); len(ds) != 0 {
						t.Fatalf("%s %v: stored bits laundered on uncorrectable unit: %v", name, p, ds)
					}
				}
			}
			// The block-line method is a per-block CorrectBlock sweep: on a
			// copy with errors scattered along one block line, the two must
			// agree on findings, repaired memory and stored state.
			if len(script) > 0 {
				blockRow, idx := script[0]&1 != 0, int(script[0]>>1)%p.BlocksPerSide()
				lineMem, lineS := mem.Clone(), s.Clone()
				for i, b := range script {
					at := idx*p.M + int(b)%p.M
					r, c := at, (int(b)*7+i*13)%p.N
					if !blockRow {
						r, c = c, at
					}
					lineMem.Flip(r, c)
				}
				sweepMem, sweepS := lineMem.Clone(), lineS.Clone()
				got := lineS.CorrectLine(lineMem, blockRow, idx, nil)
				var want []Finding
				for b := 0; b < p.BlocksPerSide(); b++ {
					br, bc := idx, b
					if !blockRow {
						br, bc = b, idx
					}
					for _, d := range sweepS.CorrectBlock(sweepMem, br, bc) {
						want = append(want, Finding{BR: br, BC: bc, Diag: d})
					}
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s %v: CorrectLine(blockRow=%v, %d) = %+v, per-block sweep %+v", name, p, blockRow, idx, got, want)
				}
				if !lineMem.Equal(sweepMem) || !lineS.Equal(sweepS) {
					t.Fatalf("%s %v: CorrectLine(blockRow=%v, %d) repaired differently from the per-block sweep", name, p, blockRow, idx)
				}
			}
			// Closing invariant: a delta row write leaves the stored state
			// identical to a from-scratch rebuild.
			r := int(uint64(seed)>>8) % p.N
			old := mem.Row(r).Clone()
			cur := old.Clone()
			cols := bitmat.NewVec(p.N)
			for j := 0; j < p.N; j += 3 {
				cols.Set(j, true)
				cur.Set(j, (uint32(j)*2654435761)>>16&1 != 0)
			}
			s.UpdateRowWrite(r, old, cur, cols)
			mem.SetRow(r, cur)
			if !s.Equal(spec.New(p, mem)) {
				t.Fatalf("%s %v: delta update diverged from rebuild", name, p)
			}
		}
	})
}

// FuzzSchemeEquivalence is the scheme layer's anchor: the diagonal code
// driven through the generic Scheme interface must match the legacy
// CheckBits delta-update and syndrome paths bit for bit under arbitrary
// interleavings of single-cell writes, row-/column-parallel writes,
// fault flips, and scrubs. The script bytes are decoded three at a time
// into (op, line, payload); both worlds execute the identical sequence on
// their own memory image and are compared block by block after every
// scrub and in full at the end.
func FuzzSchemeEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x01, 0x02})
	f.Add(int64(2), []byte{0x03, 0x10, 0xFF, 0x01, 0x2C, 0x80})
	f.Add(int64(3), []byte{0x02, 0x07, 0x55, 0x04, 0x00, 0x00, 0x01, 0x08, 0x18})
	f.Add(int64(9), []byte{4, 4, 4, 4, 4, 4, 0, 0, 0, 3, 3, 3})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		p := Params{N: 45, M: 15}
		memA := randomMemory(seed, p)
		memB := memA.Clone()
		legacy := Build(p, memA)
		spec, err := SchemeByName(SchemeDiagonal)
		if err != nil {
			t.Fatal(err)
		}
		sch := spec.New(p, memB)

		compareBlocks := func(stage string) {
			t.Helper()
			if !memA.Equal(memB) {
				t.Fatalf("%s: memories diverged", stage)
			}
			for br := 0; br < p.BlocksPerSide(); br++ {
				for bc := 0; bc < p.BlocksPerSide(); bc++ {
					want := legacy.CheckBlock(memA, br, bc)
					got := sch.CheckBlock(memB, br, bc)
					if want.Kind == NoError {
						if len(got) != 0 {
							t.Fatalf("%s: block (%d,%d): scheme %v, legacy clean", stage, br, bc, got)
						}
						continue
					}
					if len(got) != 1 || got[0] != want {
						t.Fatalf("%s: block (%d,%d): scheme %v, legacy %+v", stage, br, bc, got, want)
					}
				}
			}
			if !sch.Equal(&diagonalScheme{legacy}) {
				t.Fatalf("%s: check-bit states diverged", stage)
			}
		}

		for i := 0; i+2 < len(script) && i < 60; i += 3 {
			op, line, payload := script[i]%5, int(script[i+1])%p.N, script[i+2]
			switch op {
			case 0: // single-cell write
				r, c := line, int(payload)%p.N
				oldA := memA.Get(r, c)
				v := payload&0x80 != 0
				legacy.UpdateWrite(r, c, oldA, v)
				memA.Set(r, c, v)
				sch.UpdateWrite(r, c, memB.Get(r, c), v)
				memB.Set(r, c, v)
			case 1: // row-parallel write: payload seeds mask and values
				oldA := memA.Row(line).Clone()
				cur := oldA.Clone()
				cols := bitmat.NewVec(p.N)
				for j := 0; j < p.N; j++ {
					h := uint32(j)*2654435761 + uint32(payload)
					if h>>13&3 == 0 {
						cols.Set(j, true)
						cur.Set(j, h>>17&1 != 0)
					}
				}
				legacy.UpdateRowWrite(line, oldA, cur, cols)
				memA.SetRow(line, cur)
				oldB := memB.Row(line).Clone()
				sch.UpdateRowWrite(line, oldB, cur, cols)
				memB.SetRow(line, cur)
			case 2: // column-parallel write
				oldA := memA.Col(line)
				cur := oldA.Clone()
				rows := bitmat.NewVec(p.N)
				for j := 0; j < p.N; j++ {
					h := uint32(j)*40503 + uint32(payload)*97
					if h>>11&3 == 0 {
						rows.Set(j, true)
						cur.Set(j, h>>15&1 != 0)
					}
				}
				legacy.UpdateColumnWrite(line, oldA, cur, rows)
				memA.SetCol(line, cur)
				oldB := memB.Col(line)
				sch.UpdateColumnWrite(line, oldB, cur, rows)
				memB.SetCol(line, cur)
			case 3: // soft-error flip (no delta update — the codes must see it)
				r, c := line, int(payload)%p.N
				memA.Flip(r, c)
				memB.Flip(r, c)
			default: // scrub both worlds and compare every diagnosis
				repA := legacy.Scrub(memA)
				for br := 0; br < p.BlocksPerSide(); br++ {
					for bc := 0; bc < p.BlocksPerSide(); bc++ {
						sch.CorrectBlock(memB, br, bc)
					}
				}
				_ = repA
				compareBlocks("post-scrub")
			}
		}
		compareBlocks("final")
	})
}
