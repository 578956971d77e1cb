package ecc

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitmat"
)

// refCheckBits is the bit-serial spec of CheckBits: one bool per (block,
// family, diagonal), changed one data cell at a time straight from the
// code's definition — cell (lr,lc) lies on leading diagonal LeadIdx and
// counter diagonal CounterIdx. The word-parallel folds of CheckBits are
// pinned to it by FuzzCheckBitsMatchBitSerial.
type refCheckBits struct {
	p             Params
	lead, counter [][]bool // [block, row-major][diagonal]
}

func newRefCheckBits(p Params) *refCheckBits {
	s := p.BlocksPerSide()
	ref := &refCheckBits{p: p, lead: make([][]bool, s*s), counter: make([][]bool, s*s)}
	for u := range ref.lead {
		ref.lead[u] = make([]bool, p.M)
		ref.counter[u] = make([]bool, p.M)
	}
	return ref
}

// refBuild is the bit-serial Build: one flip pair per set data cell.
func refBuild(p Params, mem *bitmat.Mat) *refCheckBits {
	ref := newRefCheckBits(p)
	for r := 0; r < p.N; r++ {
		for c := 0; c < p.N; c++ {
			if mem.Get(r, c) {
				ref.flipFor(r, c)
			}
		}
	}
	return ref
}

func (ref *refCheckBits) unit(br, bc int) int { return br*ref.p.BlocksPerSide() + bc }

func (ref *refCheckBits) flipFor(r, c int) {
	br, bc, lr, lc := ref.p.BlockOf(r, c)
	u := ref.unit(br, bc)
	ref.lead[u][ref.p.LeadIdx(lr, lc)] = !ref.lead[u][ref.p.LeadIdx(lr, lc)]
	ref.counter[u][ref.p.CounterIdx(lr, lc)] = !ref.counter[u][ref.p.CounterIdx(lr, lc)]
}

func (ref *refCheckBits) rebuildBlock(mem *bitmat.Mat, br, bc int) {
	u := ref.unit(br, bc)
	for d := 0; d < ref.p.M; d++ {
		ref.lead[u][d], ref.counter[u][d] = false, false
	}
	for r := br * ref.p.M; r < (br+1)*ref.p.M; r++ {
		for c := bc * ref.p.M; c < (bc+1)*ref.p.M; c++ {
			if mem.Get(r, c) {
				ref.flipFor(r, c)
			}
		}
	}
}

func (ref *refCheckBits) updateRowWrite(r int, oldRow, newRow, cols *bitmat.Vec) {
	for c := 0; c < ref.p.N; c++ {
		if cols.Get(c) && oldRow.Get(c) != newRow.Get(c) {
			ref.flipFor(r, c)
		}
	}
}

func (ref *refCheckBits) updateColumnWrite(c int, oldCol, newCol, rows *bitmat.Vec) {
	for r := 0; r < ref.p.N; r++ {
		if rows.Get(r) && oldCol.Get(r) != newCol.Get(r) {
			ref.flipFor(r, c)
		}
	}
}

// syndrome packs the stored bits, then folds the block in cell by cell.
func (ref *refCheckBits) syndrome(mem *bitmat.Mat, br, bc int) (lead, counter uint64) {
	u := ref.unit(br, bc)
	for d := 0; d < ref.p.M; d++ {
		if ref.lead[u][d] {
			lead ^= 1 << uint(d)
		}
		if ref.counter[u][d] {
			counter ^= 1 << uint(d)
		}
	}
	for lr := 0; lr < ref.p.M; lr++ {
		for lc := 0; lc < ref.p.M; lc++ {
			if mem.Get(br*ref.p.M+lr, bc*ref.p.M+lc) {
				lead ^= 1 << uint(ref.p.LeadIdx(lr, lc))
				counter ^= 1 << uint(ref.p.CounterIdx(lr, lc))
			}
		}
	}
	return lead, counter
}

// correctBlock decodes with the shared Decode rule and repairs in place.
func (ref *refCheckBits) correctBlock(mem *bitmat.Mat, br, bc int) Diagnosis {
	lead, counter := ref.syndrome(mem, br, bc)
	d := Decode(ref.p, lead, counter)
	u := ref.unit(br, bc)
	switch d.Kind {
	case DataError:
		mem.Flip(br*ref.p.M+d.LR, bc*ref.p.M+d.LC)
	case LeadCheckError:
		ref.lead[u][d.Diag] = !ref.lead[u][d.Diag]
	case CounterCheckError:
		ref.counter[u][d.Diag] = !ref.counter[u][d.Diag]
	}
	return d
}

// mismatch names the first check bit where cb differs from the spec, read
// through the accessors, or returns "".
func (ref *refCheckBits) mismatch(cb *CheckBits) string {
	s := ref.p.BlocksPerSide()
	for br := 0; br < s; br++ {
		for bc := 0; bc < s; bc++ {
			u := ref.unit(br, bc)
			for d := 0; d < ref.p.M; d++ {
				if cb.Lead(d, br, bc) != ref.lead[u][d] || cb.Counter(d, br, bc) != ref.counter[u][d] {
					return fmt.Sprintf("block (%d,%d) diagonal %d", br, bc, d)
				}
			}
		}
	}
	return ""
}

// layoutFault names the first stored check-line word holding a set bit
// outside the line's row — a pad word, or a row bit at or above N — or
// returns "". The accessors never read those bits, but Equal compares raw
// words, so a stray bit there would make two equal states unequal.
func layoutFault(cb *CheckBits) string {
	for br := 0; br < cb.side; br++ {
		l, c := cb.checkLines(br)
		for f, line := range [][]uint64{l, c} {
			for i, w := range line {
				valid := 0 // row bits in word i: none in either pad
				if i > 0 {
					valid = min(max(cb.p.N-(i-1)*64, 0), 64)
				}
				if valid < 64 && w>>uint(valid) != 0 {
					return fmt.Sprintf("block row %d, %s line, word %d = %#x",
						br, [...]string{"leading", "counter"}[f], i, w)
				}
			}
		}
	}
	return ""
}

// randomWrite returns a random selection mask over n lanes and a random
// new line, which also differs from the old one outside the mask, so a
// dropped mask shows.
func randomWrite(rng *rand.Rand, n int) (mask, cur *bitmat.Vec) {
	mask, cur = bitmat.NewVec(n), bitmat.NewVec(n)
	for j := 0; j < n; j++ {
		mask.Set(j, rng.Intn(3) == 0)
		cur.Set(j, rng.Intn(2) == 0)
	}
	return mask, cur
}

// FuzzCheckBitsMatchBitSerial pins every word-parallel fold of CheckBits
// to the bit-serial spec: the line-parallel Build, RebuildBlock, row- and
// column-parallel updates under random masks (whose new lines also
// differ outside the mask, so a dropped mask shows), Syndrome,
// CorrectBlock's diagnoses, and the line-parallel block-row check and
// Scrub, compared block by block after every step, with every stored
// line's pad words and bits at or above N still zero. The geometries cover
// the smallest odd block, the paper's m=15 with rows of one (60), two
// (45, 90) and more words, word-straddling m=11 segments, and m=63,
// whose second block straddles bit 64 of every row, at two and three
// words per row.
func FuzzCheckBitsMatchBitSerial(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x01, 0x02})
	f.Add(int64(2), []byte{0x01, 0x10, 0xFF, 0x02, 0x2C, 0x80, 0x04, 0x00, 0x00})
	f.Add(int64(3), []byte{0x03, 0x07, 0x55, 0x04, 0x00, 0x00, 0x01, 0x08, 0x18, 0x03, 0x40, 0x41, 0x04, 0, 0})
	f.Add(int64(9), []byte{2, 4, 4, 1, 4, 4, 0, 0, 0, 3, 3, 3, 4, 9, 9})
	f.Add(int64(5), []byte{3, 70, 8, 5, 0, 2, 3, 12, 9, 5, 0, 1, 0, 40, 7, 3, 99, 4, 5, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		for _, p := range []Params{{N: 9, M: 3}, {N: 45, M: 15}, {N: 60, M: 15}, {N: 90, M: 15},
			{N: 66, M: 11}, {N: 126, M: 63}, {N: 189, M: 63}} {
			s := p.BlocksPerSide()
			memA := randomMemory(seed, p)
			memB := memA.Clone()
			cb := Build(p, memA)
			ref := refBuild(p, memB)
			compare := func(step string) {
				t.Helper()
				if at := ref.mismatch(cb); at != "" {
					t.Fatalf("%v after %s: check bits differ from the bit-serial spec at %s", p, step, at)
				}
				if at := layoutFault(cb); at != "" {
					t.Fatalf("%v after %s: stray bit outside the check lines' rows at %s", p, step, at)
				}
				if !memA.Equal(memB) {
					t.Fatalf("%v after %s: memories diverged", p, step)
				}
			}
			compare("Build")
			for i := 0; i+2 < len(script) && i < 60; i += 3 {
				op, line, payload := script[i]%6, int(script[i+1])%p.N, script[i+2]
				rng := rand.New(rand.NewSource(seed ^ int64(i)<<20 ^ int64(payload)<<8))
				switch op {
				case 0: // a soft error absorbed by RebuildBlock
					c := int(payload) % p.N
					memA.Flip(line, c)
					memB.Flip(line, c)
					cb.rebuildBlock(memA, line/p.M, c/p.M)
					ref.rebuildBlock(memB, line/p.M, c/p.M)
					compare("RebuildBlock")
				case 1, 2: // a line-parallel write under a random mask
					mask, cur := randomWrite(rng, p.N)
					if op == 1 {
						old := memA.Row(line).Clone()
						cb.UpdateRowWrite(line, old, cur, mask)
						ref.updateRowWrite(line, old, cur, mask)
						memA.Row(line).MaskedMerge(cur, mask)
						memB.Row(line).MaskedMerge(cur, mask)
						compare("UpdateRowWrite")
					} else {
						old := memA.Col(line)
						cb.UpdateColumnWrite(line, old, cur, mask)
						ref.updateColumnWrite(line, old, cur, mask)
						old.MaskedMerge(cur, mask)
						memA.SetCol(line, old)
						memB.SetCol(line, old)
						compare("UpdateColumnWrite")
					}
				case 3: // soft errors in data and check bits, then every syndrome
					c := int(payload) % p.N
					memA.Flip(line, c)
					memB.Flip(line, c)
					d, br, bc := int(payload)%p.M, line/p.M, c/p.M
					cb.FlipLead(d, br, bc)
					ref.lead[ref.unit(br, bc)][d] = !ref.lead[ref.unit(br, bc)][d]
					if payload&1 != 0 {
						cb.FlipCounter(d, br, bc)
						ref.counter[ref.unit(br, bc)][d] = !ref.counter[ref.unit(br, bc)][d]
					}
					for br := 0; br < s; br++ {
						for bc := 0; bc < s; bc++ {
							gl, gc := cb.Syndrome(memA, br, bc)
							wl, wc := ref.syndrome(memB, br, bc)
							if gl != wl || gc != wc {
								t.Fatalf("%v: Syndrome(%d,%d) = (%#x,%#x), spec (%#x,%#x)", p, br, bc, gl, gc, wl, wc)
							}
						}
					}
					compare("Syndrome")
				case 4: // a scrub, block by block
					for br := 0; br < s; br++ {
						for bc := 0; bc < s; bc++ {
							if got, want := cb.CorrectBlock(memA, br, bc), ref.correctBlock(memB, br, bc); got != want {
								t.Fatalf("%v: CorrectBlock(%d,%d) = %+v, spec %+v", p, br, bc, got, want)
							}
							compare("CorrectBlock")
						}
					}
				default: // a scrub, one line-parallel block row at a time
					var want []Finding
					var wantRep ScrubReport
					for br := 0; br < s; br++ {
						for bc := 0; bc < s; bc++ {
							d := ref.correctBlock(memB, br, bc)
							if d.Kind != NoError {
								want = append(want, Finding{BR: br, BC: bc, Diag: d})
							}
							wantRep.BlocksChecked++
							switch d.Kind {
							case DataError:
								wantRep.DataCorrected++
							case LeadCheckError, CounterCheckError:
								wantRep.CheckCorrected++
							case Uncorrectable:
								wantRep.Uncorrectable++
							}
						}
					}
					if payload&1 != 0 {
						if rep := cb.Scrub(memA); rep != wantRep {
							t.Fatalf("%v: Scrub = %+v, spec %+v", p, rep, wantRep)
						}
						compare("Scrub")
						break
					}
					var got []Finding
					for br := 0; br < s; br++ {
						got = cb.CheckBlockRow(memA, br, got)
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("%v: CheckBlockRow findings %+v, spec %+v", p, got, want)
					}
					compare("CheckBlockRow")
				}
			}
		}
	})
}

// TestCheckBitsMatchBitSerialAtPaperSize runs the check lines at the
// paper's geometry, N=1020 and M=15: 16 words per row, the fold's generic
// path, where the fuzz target stops at three. Build, a row and a column
// write under random masks, and a scrub that corrects one injected data
// cell and one check bit of each family, each compared block by block
// with the bit-serial spec. The injected cells sit in blocks that
// straddle a word boundary.
func TestCheckBitsMatchBitSerialAtPaperSize(t *testing.T) {
	p := PaperParams()
	s := p.BlocksPerSide()
	memA := randomMemory(7, p)
	memB := memA.Clone()
	cb, ref := Build(p, memA), refBuild(p, memB)
	compare := func(step string) {
		t.Helper()
		if at := ref.mismatch(cb); at != "" {
			t.Fatalf("after %s: check bits differ from the bit-serial spec at %s", step, at)
		}
		if at := layoutFault(cb); at != "" {
			t.Fatalf("after %s: stray bit outside the check lines' rows at %s", step, at)
		}
		if !memA.Equal(memB) {
			t.Fatalf("after %s: memories diverged", step)
		}
	}
	compare("Build")

	rng := rand.New(rand.NewSource(7))
	const r, c = 509, 1000 // local row 14 of block row 33; local column 10 of block column 66
	mask, cur := randomWrite(rng, p.N)
	old := memA.Row(r).Clone()
	cb.UpdateRowWrite(r, old, cur, mask)
	ref.updateRowWrite(r, old, cur, mask)
	memA.Row(r).MaskedMerge(cur, mask)
	memB.Row(r).MaskedMerge(cur, mask)
	compare("UpdateRowWrite")

	mask, cur = randomWrite(rng, p.N)
	old = memA.Col(c)
	cb.UpdateColumnWrite(c, old, cur, mask)
	ref.updateColumnWrite(c, old, cur, mask)
	old.MaskedMerge(cur, mask)
	memA.SetCol(c, old)
	memB.SetCol(c, old)
	compare("UpdateColumnWrite")

	want := memA.Clone()
	memA.Flip(5*15+2, 4*15+5) // block (5,4), columns 60–74
	memB.Flip(5*15+2, 4*15+5)
	cb.FlipLead(12, 40, 17) // block (40,17), columns 255–269
	ref.lead[ref.unit(40, 17)][12] = !ref.lead[ref.unit(40, 17)][12]
	cb.FlipCounter(3, 67, 38) // block (67,38), columns 570–584
	ref.counter[ref.unit(67, 38)][3] = !ref.counter[ref.unit(67, 38)][3]
	compare("injection")
	var wantRep ScrubReport
	for br := 0; br < s; br++ {
		for bc := 0; bc < s; bc++ {
			wantRep.BlocksChecked++
			switch ref.correctBlock(memB, br, bc).Kind {
			case DataError:
				wantRep.DataCorrected++
			case LeadCheckError, CounterCheckError:
				wantRep.CheckCorrected++
			case Uncorrectable:
				wantRep.Uncorrectable++
			}
		}
	}
	if rep := cb.Scrub(memA); rep != wantRep || rep.DataCorrected != 1 || rep.CheckCorrected != 2 || rep.Uncorrectable != 0 {
		t.Fatalf("Scrub = %+v, spec %+v, want 1 data and 2 check corrections", rep, wantRep)
	}
	compare("Scrub")
	if !memA.Equal(want) || !cb.Equal(Build(p, memA)) {
		t.Fatal("the scrub did not restore the state before the injection")
	}
}

// TestCheckBitsZeroAllocs: the diagonal code's line updates, block
// rebuild, and clean-block and clean-line check and correct run without
// allocating.
func TestCheckBitsZeroAllocs(t *testing.T) {
	p := Params{N: 90, M: 15}
	mem := randomMemory(1, p)
	s := buildScheme(t, SchemeDiagonal, p, mem)
	old := mem.Row(7).Clone()
	cur := old.Clone()
	for i := 0; i < p.N; i += 3 {
		cur.Flip(i)
	}
	mask := bitmat.NewVec(p.N)
	mask.Fill(true)
	ops := map[string]func(){
		// Each update runs twice, returning the state to its start.
		"UpdateRowWrite": func() {
			s.UpdateRowWrite(7, old, cur, mask)
			s.UpdateRowWrite(7, cur, old, mask)
		},
		"UpdateColumnWrite": func() {
			s.UpdateColumnWrite(7, old, cur, mask)
			s.UpdateColumnWrite(7, cur, old, mask)
		},
		"RebuildBlock":        func() { s.RebuildBlock(mem, 2, 3) },
		"CheckBlock":          func() { s.CheckBlock(mem, 2, 3) },
		"CorrectBlock":        func() { s.CorrectBlock(mem, 2, 3) },
		"CorrectLine(row)":    func() { s.CorrectLine(mem, true, 2, nil) },
		"CorrectLine(column)": func() { s.CorrectLine(mem, false, 3, nil) },
	}
	for name, op := range ops {
		if allocs := testing.AllocsPerRun(100, op); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
	if ds := s.CheckBlock(mem, 2, 3); len(ds) != 0 {
		t.Fatalf("block (2,3) not clean after the symmetric updates: %v", ds)
	}
}

// TestDiagonalGeometryBound: each packed parity family must fit in one
// word, so the diagonal code (and the CheckBits it stores) rejects m > 63
// by name, while the analytic geometry fig6's model shares stays open.
func TestDiagonalGeometryBound(t *testing.T) {
	spec, err := SchemeByName(SchemeDiagonal)
	if err != nil {
		t.Fatal(err)
	}
	err = spec.Validate(Params{N: 130, M: 65})
	if err == nil || !strings.Contains(err.Error(), "m ≤ 63") {
		t.Fatalf("diagonal spec on m=65: %v, want an error naming m ≤ 63", err)
	}
	if err := spec.Validate(Params{N: 126, M: 63}); err != nil {
		t.Fatalf("diagonal spec on m=63: %v", err)
	}
	if err := (Params{N: 1020, M: 85}).Validate(); err != nil {
		t.Fatalf("analytic geometry m=85: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewCheckBits with m=65 did not panic")
		}
	}()
	NewCheckBits(Params{N: 130, M: 65})
}
