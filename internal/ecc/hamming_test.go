package ecc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitmat"
)

func TestHammingCheckBitCounts(t *testing.T) {
	// Classic Hamming parameters: 4 data → 3 check, 11 → 4, 26 → 5, 57 → 6.
	for _, tc := range [][2]int{{4, 3}, {8, 4}, {11, 4}, {26, 5}, {57, 6}, {64, 7}} {
		if got := hammingCheckBits(tc[0]); got != tc[1] {
			t.Errorf("hammingCheckBits(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
}

func TestHammingIndexInverse(t *testing.T) {
	for i := 0; i < 64; i++ {
		idx := hammingIndex(i)
		if idx&(idx-1) == 0 {
			t.Fatalf("data bit %d mapped to power-of-two index %d", i, idx)
		}
		if got := dataPosOf(idx); got != i {
			t.Fatalf("dataPosOf(hammingIndex(%d)) = %d", i, got)
		}
	}
}

// cleanBlocks reports whether every block of s checks clean against mem.
func cleanBlocks(s Scheme, mem *bitmat.Mat) bool {
	p := s.Params()
	for br := 0; br < p.BlocksPerSide(); br++ {
		for bc := 0; bc < p.BlocksPerSide(); bc++ {
			if len(s.CheckBlock(mem, br, bc)) != 0 {
				return false
			}
		}
	}
	return true
}

func TestHammingBuildVerify(t *testing.T) {
	p := Params{N: 32, M: 8}
	mem := randomMemory(1, p)
	if !cleanBlocks(buildScheme(t, SchemeHamming, p, mem), mem) {
		t.Fatal("fresh code does not verify")
	}
}

func TestHammingSingleErrorCorrection(t *testing.T) {
	p := Params{N: 48, M: 8}
	spec, err := SchemeByName(SchemeHamming)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mem := randomMemory(seed, p)
		h := spec.New(p, mem)
		want := mem.Clone()
		r, c := rng.Intn(p.N), rng.Intn(p.N)
		mem.Flip(r, c)
		ds := h.CorrectBlock(mem, r/p.M, c/p.M)
		if len(ds) != 1 || ds[0].Kind != DataError {
			return false
		}
		return mem.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHammingUpdateWriteDelta(t *testing.T) {
	p := Params{N: 64, M: 16}
	rng := rand.New(rand.NewSource(2))
	mem := randomMemory(2, p)
	h := buildScheme(t, SchemeHamming, p, mem)
	for i := 0; i < 200; i++ {
		r, c := rng.Intn(p.N), rng.Intn(p.N)
		h.UpdateWrite(r, c, mem.Get(r, c), !mem.Get(r, c))
		mem.Flip(r, c)
	}
	if !cleanBlocks(h, mem) {
		t.Fatal("delta updates diverged from memory")
	}
}

// TestHammingVsDiagonalUpdateCost is the quantitative version of the
// paper's introduction: under a column-parallel MAGIC operation the
// Hamming-per-word scheme needs Θ(n·w) data reads to restore its check
// bits, while the diagonal scheme needs exactly one delta per check bit.
func TestHammingVsDiagonalUpdateCost(t *testing.T) {
	const n, w = 1020, 64
	h := buildScheme(t, SchemeHamming, Params{N: 1024, M: w}, nil)
	hammingCost := h.LineUpdateReads(n)
	if hammingCost != n*w {
		t.Fatalf("hamming col-parallel cost = %d, want %d", hammingCost, n*w)
	}
	p := PaperParams()
	cells := make([][2]int, n)
	for c := range cells {
		cells[c] = [2]int{5, c}
	}
	if d := MeasureDiagonalTouch(p, cells); d.MaxPerCheck != 1 {
		t.Fatal("diagonal cost should be one delta per check bit")
	}
	// The diagonal scheme's total work is one delta per touched check bit
	// (2n deltas); Hamming needs w/2× more than that.
	diagonalCost := buildScheme(t, SchemeDiagonal, p, nil).LineUpdateReads(n)
	if hammingCost <= 10*diagonalCost {
		t.Fatalf("hamming cost %d not clearly worse than 2n=%d diagonal deltas", hammingCost, diagonalCost)
	}
}

func TestHammingStorageOverheadComparable(t *testing.T) {
	// Fairness check for the comparison: at w=64 the Hamming SEC-DED
	// overhead (8/64 = 12.5%) is in the same class as the diagonal code's
	// 2/m (13.3% at m=15) — the difference is update cost, not storage.
	p := Params{N: 1024, M: 64}
	hammingOvh := float64(buildScheme(t, SchemeHamming, p, nil).OverheadBits()) / float64(p.N*p.N)
	diagOvh := PaperParams().Overhead()
	if hammingOvh > 2*diagOvh || diagOvh > 2*hammingOvh {
		t.Fatalf("storage overheads not comparable: hamming %.3f vs diagonal %.3f",
			hammingOvh, diagOvh)
	}
}

func TestHammingCheckBitErrorRepaired(t *testing.T) {
	p := Params{N: 16, M: 16}
	mem := randomMemory(3, p)
	h := buildScheme(t, SchemeHamming, p, mem)
	h.(*wordScheme).check[0] ^= 0b100 // flip a stored check bit (power-of-two index)
	if ds := h.CorrectBlock(mem, 0, 0); len(ds) != 1 || ds[0].Kind != CheckError {
		t.Fatalf("check-bit error diagnosed %v", ds)
	}
	if !h.Equal(buildScheme(t, SchemeHamming, p, mem)) {
		t.Fatal("check-bit error not repaired")
	}
}

func TestHammingBadWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	spec, _ := SchemeByName(SchemeHamming)
	spec.New(Params{N: 10, M: 4}, nil)
}
