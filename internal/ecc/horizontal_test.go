package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The horizontal-group parity strawman is the parity word code.
func TestHorizontalCodeBuildVerify(t *testing.T) {
	p := Params{N: 32, M: 8}
	mem := randomMemory(1, p)
	h := buildScheme(t, SchemeParity, p, mem)
	if !cleanBlocks(h, mem) {
		t.Fatal("freshly built horizontal code does not verify")
	}
	mem.Flip(3, 17)
	if ds := h.CheckBlock(mem, 0, 2); len(ds) != 1 || ds[0] != (Diagnosis{Kind: Uncorrectable, LR: 3}) {
		t.Fatalf("horizontal code missed a flip: %v", ds)
	}
}

func TestHorizontalCodeBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-dividing width")
		}
	}()
	spec, _ := SchemeByName(SchemeParity)
	spec.New(Params{N: 10, M: 3}, nil)
}

func TestHorizontalVsDiagonalUpdateCost(t *testing.T) {
	// E5 / Fig 2: a column-parallel op across n columns forces a horizontal
	// code to recompute check bits from w changed data bits each, while the
	// diagonal code never sees more than one changed bit per check bit.
	const n, w = 1020, 8
	hRow := HorizontalTouchRowOp(n)
	hCol := HorizontalTouchColOp(n, w)
	if hRow.MaxPerCheck != 1 {
		t.Fatalf("horizontal row-op MaxPerCheck = %d, want 1", hRow.MaxPerCheck)
	}
	if hCol.MaxPerCheck != w {
		t.Fatalf("horizontal col-op MaxPerCheck = %d, want %d (the Θ(n) failure)", hCol.MaxPerCheck, w)
	}
	cells := make([][2]int, n)
	for c := range cells {
		cells[c] = [2]int{9, c}
	}
	if d := MeasureDiagonalTouch(PaperParams(), cells); d.MaxPerCheck != 1 {
		t.Fatalf("diagonal MaxPerCheck = %d, want 1", d.MaxPerCheck)
	}
}

func TestMeasureDiagonalTouchRowParallelOp(t *testing.T) {
	// A row-parallel MAGIC op writes one fixed column in every row:
	// measured per-check-bit touch must be ≤ 1 (the paper's key lemma).
	p := testParams
	c := 7
	cells := make([][2]int, p.N)
	for r := 0; r < p.N; r++ {
		cells[r] = [2]int{r, c}
	}
	prof := MeasureDiagonalTouch(p, cells)
	if prof.MaxPerCheck != 1 {
		t.Fatalf("row-parallel op touches a check bit %d times, want 1", prof.MaxPerCheck)
	}
	// n cells, two families → 2n distinct check bits touched.
	if prof.ChecksTouched != 2*p.N {
		t.Fatalf("ChecksTouched = %d, want %d", prof.ChecksTouched, 2*p.N)
	}
}

func TestMeasureDiagonalTouchColParallelOp(t *testing.T) {
	p := testParams
	r := 31
	cells := make([][2]int, p.N)
	for c := 0; c < p.N; c++ {
		cells[c] = [2]int{r, c}
	}
	prof := MeasureDiagonalTouch(p, cells)
	if prof.MaxPerCheck != 1 {
		t.Fatalf("column-parallel op touches a check bit %d times, want 1", prof.MaxPerCheck)
	}
}

func TestMeasureDiagonalTouchAnyParallelOpProperty(t *testing.T) {
	// A single parallel MAGIC op writes one fixed column across an arbitrary
	// subset of rows, or one fixed row across an arbitrary subset of
	// columns. Either shape touches each check bit at most once. (Note an
	// arbitrary permutation does NOT have this property — two cells in
	// different rows and columns can share a block diagonal — which is why
	// the guarantee is stated per MAGIC operation.)
	f := func(seed int64, colOp bool) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Params{N: 45, M: 15}
		fixed := rng.Intn(p.N)
		var cells [][2]int
		for i := 0; i < p.N; i++ {
			if rng.Intn(2) == 0 {
				continue
			}
			if colOp {
				cells = append(cells, [2]int{i, fixed})
			} else {
				cells = append(cells, [2]int{fixed, i})
			}
		}
		return MeasureDiagonalTouch(p, cells).MaxPerCheck <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureDiagonalTouchDetectsViolation(t *testing.T) {
	// Sanity: two cells on the same diagonal of the same block DO produce
	// MaxPerCheck = 2, proving the measurement isn't vacuous.
	p := Params{N: 15, M: 15}
	cells := [][2]int{{0, 5}, {1, 4}} // both on leading diagonal 5
	if prof := MeasureDiagonalTouch(p, cells); prof.MaxPerCheck != 2 {
		t.Fatalf("MaxPerCheck = %d, want 2", prof.MaxPerCheck)
	}
}
