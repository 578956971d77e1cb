package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDecodeNoError(t *testing.T) {
	mem := randomMemory(10, testParams)
	cb := Build(testParams, mem)
	if d := cb.CheckBlock(mem, 0, 0); d.Kind != NoError {
		t.Fatalf("clean block diagnosed as %v", d.Kind)
	}
}

func TestSingleDataErrorCorrectedExhaustive(t *testing.T) {
	// Every single data-cell flip in one block must be located exactly.
	p := Params{N: 15, M: 15} // one block, all 225 cells
	for lr := 0; lr < p.M; lr++ {
		for lc := 0; lc < p.M; lc++ {
			mem := randomMemory(int64(lr*100+lc), p)
			cb := Build(p, mem)
			want := mem.Clone()
			mem.Flip(lr, lc)
			d := cb.CorrectBlock(mem, 0, 0)
			if d.Kind != DataError || d.LR != lr || d.LC != lc {
				t.Fatalf("flip (%d,%d) diagnosed as %+v", lr, lc, d)
			}
			if !mem.Equal(want) {
				t.Fatalf("flip (%d,%d) not repaired", lr, lc)
			}
			// Post-correction the block must be clean.
			if cb.CheckBlock(mem, 0, 0).Kind != NoError {
				t.Fatalf("block dirty after correcting (%d,%d)", lr, lc)
			}
		}
	}
}

func TestSingleDataErrorCorrectedProperty(t *testing.T) {
	// Random geometry, random block, random cell.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 3 + 2*rng.Intn(7)
		blocks := 1 + rng.Intn(4)
		p := Params{N: m * blocks, M: m}
		mem := randomMemory(seed, p)
		cb := Build(p, mem)
		want := mem.Clone()
		r, c := rng.Intn(p.N), rng.Intn(p.N)
		mem.Flip(r, c)
		br, bc, _, _ := p.BlockOf(r, c)
		d := cb.CorrectBlock(mem, br, bc)
		return d.Kind == DataError && mem.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLeadCheckBitErrorCorrected(t *testing.T) {
	p := testParams
	mem := randomMemory(20, p)
	cb := Build(p, mem)
	ref := cb.Clone()
	cb.FlipLead(7, 2, 1)
	d := cb.CorrectBlock(mem, 2, 1)
	if d.Kind != LeadCheckError || d.Diag != 7 {
		t.Fatalf("diagnosis = %+v, want lead-check-error diag 7", d)
	}
	if !cb.Equal(ref) {
		t.Fatal("check-bit error not repaired")
	}
}

func TestCounterCheckBitErrorCorrected(t *testing.T) {
	p := testParams
	mem := randomMemory(21, p)
	cb := Build(p, mem)
	ref := cb.Clone()
	cb.FlipCounter(3, 0, 2)
	d := cb.CorrectBlock(mem, 0, 2)
	if d.Kind != CounterCheckError || d.Diag != 3 {
		t.Fatalf("diagnosis = %+v, want counter-check-error diag 3", d)
	}
	if !cb.Equal(ref) {
		t.Fatal("check-bit error not repaired")
	}
}

func TestDoubleDataErrorDetectedNotMissed(t *testing.T) {
	// Two distinct data flips in the same block must never decode as
	// NoError — the multi-error detection guarantee.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Params{N: 15, M: 15}
		mem := randomMemory(seed+5000, p)
		cb := Build(p, mem)
		r1, c1 := rng.Intn(15), rng.Intn(15)
		r2, c2 := rng.Intn(15), rng.Intn(15)
		if r1 == r2 && c1 == c2 {
			return true // same cell would cancel; skip
		}
		mem.Flip(r1, c1)
		mem.Flip(r2, c2)
		return cb.CheckBlock(mem, 0, 0).Kind != NoError
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleErrorDistinctDiagonalsUncorrectable(t *testing.T) {
	// When the two errors share neither diagonal the signature is (2,2) —
	// explicitly uncorrectable, no silent miscorrection of a third cell.
	p := Params{N: 15, M: 15}
	mem := randomMemory(33, p)
	cb := Build(p, mem)
	mem.Flip(0, 0) // lead 0, counter 0
	mem.Flip(1, 3) // lead 4, counter 13 (mod 15)
	d := cb.CheckBlock(mem, 0, 0)
	if d.Kind != Uncorrectable {
		t.Fatalf("diagnosis = %v, want uncorrectable", d.Kind)
	}
}

func TestErrorsInDifferentBlocksBothCorrected(t *testing.T) {
	// Per-block independence: one error per block is still fully correctable
	// even with many erroneous blocks (the basis of the reliability model).
	p := testParams
	mem := randomMemory(40, p)
	cb := Build(p, mem)
	want := mem.Clone()
	rng := rand.New(rand.NewSource(41))
	for br := 0; br < p.BlocksPerSide(); br++ {
		for bc := 0; bc < p.BlocksPerSide(); bc++ {
			mem.Flip(br*p.M+rng.Intn(p.M), bc*p.M+rng.Intn(p.M))
		}
	}
	rep := cb.Scrub(mem)
	if rep.DataCorrected != p.NumBlocks() {
		t.Fatalf("corrected %d blocks, want %d", rep.DataCorrected, p.NumBlocks())
	}
	if rep.Uncorrectable != 0 {
		t.Fatalf("%d uncorrectable blocks", rep.Uncorrectable)
	}
	if !mem.Equal(want) {
		t.Fatal("scrub did not restore memory")
	}
}

func TestScrubCleanMemory(t *testing.T) {
	p := testParams
	mem := randomMemory(50, p)
	cb := Build(p, mem)
	rep := cb.Scrub(mem)
	if rep.BlocksChecked != p.NumBlocks() || rep.DataCorrected != 0 ||
		rep.CheckCorrected != 0 || rep.Uncorrectable != 0 {
		t.Fatalf("clean scrub report: %+v", rep)
	}
}

func TestScrubMixedErrors(t *testing.T) {
	p := testParams
	mem := randomMemory(60, p)
	cb := Build(p, mem)
	want := mem.Clone()
	wantCB := cb.Clone()
	mem.Flip(2, 2)          // data error in block (0,0)
	cb.FlipLead(4, 1, 1)    // check error in block (1,1)
	cb.FlipCounter(0, 2, 0) // check error in block (2,0)
	rep := cb.Scrub(mem)
	if rep.DataCorrected != 1 || rep.CheckCorrected != 2 || rep.Uncorrectable != 0 {
		t.Fatalf("report %+v", rep)
	}
	if !mem.Equal(want) || !cb.Equal(wantCB) {
		t.Fatal("scrub did not fully repair state")
	}
}

func TestCheckBlockRow(t *testing.T) {
	p := testParams
	mem := randomMemory(70, p)
	cb := Build(p, mem)
	want := mem.Clone()
	// Inject one error in two different blocks of block-row 1.
	mem.Flip(p.M+3, 4)       // block (1,0)
	mem.Flip(p.M+7, 2*p.M+8) // block (1,2)
	found := cb.CheckBlockRow(mem, 1, nil)
	if len(found) != 2 {
		t.Fatalf("got %d dirty blocks, want 2: %v", len(found), found)
	}
	for i, bc := range []int{0, 2} {
		if f := found[i]; f.BR != 1 || f.BC != bc || f.Diag.Kind != DataError {
			t.Fatalf("finding %d = %+v, want a data error in block (1,%d)", i, f, bc)
		}
	}
	if !mem.Equal(want) {
		t.Fatal("input check did not repair the block row")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		NoError:           "no-error",
		DataError:         "data-error",
		LeadCheckError:    "lead-check-error",
		CounterCheckError: "counter-check-error",
		Uncorrectable:     "uncorrectable",
		Kind(99):          "Kind(99)",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}
