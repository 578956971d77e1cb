package bitmat

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMat(rng *rand.Rand, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	m.Randomize(rng)
	return m
}

func TestMatSetGet(t *testing.T) {
	m := NewMat(5, 7)
	m.Set(0, 0, true)
	m.Set(4, 6, true)
	m.Set(2, 3, true)
	if !m.Get(0, 0) || !m.Get(4, 6) || !m.Get(2, 3) {
		t.Fatal("set bits not readable")
	}
	if m.Popcount() != 3 {
		t.Fatalf("Popcount = %d, want 3", m.Popcount())
	}
	m.Flip(2, 3)
	if m.Get(2, 3) {
		t.Fatal("Flip did not clear")
	}
}

func TestRowColRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randMat(rng, 20, 33)
	for c := 0; c < 33; c++ {
		col := m.Col(c)
		for r := 0; r < 20; r++ {
			if col.Get(r) != m.Get(r, c) {
				t.Fatalf("Col(%d)[%d] mismatch", c, r)
			}
		}
	}
	v := NewVec(20)
	v.Fill(true)
	m.SetCol(5, v)
	if m.Col(5).Popcount() != 20 {
		t.Fatal("SetCol failed")
	}
}

func TestRowIsLive(t *testing.T) {
	m := NewMat(3, 4)
	m.Row(1).Set(2, true)
	if !m.Get(1, 2) {
		t.Fatal("Row should return a live view")
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
		m := randMat(rng, rows, cols)
		return m.Transpose().Transpose().Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeElements(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMat(rng, 17, 9)
	tr := m.Transpose()
	if tr.Rows() != 9 || tr.Cols() != 17 {
		t.Fatalf("Transpose dims %dx%d", tr.Rows(), tr.Cols())
	}
	for r := 0; r < 17; r++ {
		for c := 0; c < 9; c++ {
			if m.Get(r, c) != tr.Get(c, r) {
				t.Fatalf("transpose mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randMat(rng, 30, 30)
	b := m.Block(10, 5, 15, 15)
	if b.Rows() != 15 || b.Cols() != 15 {
		t.Fatal("block dims wrong")
	}
	for r := 0; r < 15; r++ {
		for c := 0; c < 15; c++ {
			if b.Get(r, c) != m.Get(10+r, 5+c) {
				t.Fatalf("block mismatch at (%d,%d)", r, c)
			}
		}
	}
	m2 := m.Clone()
	m2.SetBlock(10, 5, b)
	if !m2.Equal(m) {
		t.Fatal("SetBlock of own block changed matrix")
	}
}

func TestLeadingDiagonalIndexing(t *testing.T) {
	// Mark leading diagonal 2 of a 5x5 and verify extraction sees all ones.
	const n = 5
	m := NewMat(n, n)
	for r := 0; r < n; r++ {
		c := ((2-r)%n + n) % n
		m.Set(r, c, true)
	}
	d := m.LeadingDiagonal(2)
	if d.Popcount() != n {
		t.Fatalf("leading diagonal popcount = %d, want %d", d.Popcount(), n)
	}
	// All other leading diagonals must be empty.
	for k := 0; k < n; k++ {
		if k == 2 {
			continue
		}
		if m.LeadingDiagonal(k).Any() {
			t.Fatalf("leading diagonal %d unexpectedly non-empty", k)
		}
	}
}

func TestCounterDiagonalIndexing(t *testing.T) {
	const n = 7
	m := NewMat(n, n)
	for r := 0; r < n; r++ {
		c := ((r-3)%n + n) % n
		m.Set(r, c, true)
	}
	if m.CounterDiagonal(3).Popcount() != n {
		t.Fatal("counter diagonal 3 incomplete")
	}
	for k := 0; k < n; k++ {
		if k == 3 {
			continue
		}
		if m.CounterDiagonal(k).Any() {
			t.Fatalf("counter diagonal %d unexpectedly non-empty", k)
		}
	}
}

func TestDiagonalsPartitionMatrix(t *testing.T) {
	// Every cell lies on exactly one leading and one counter diagonal, so
	// summing popcounts over all diagonals equals the matrix popcount.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + 2*rng.Intn(8) // odd sizes like the paper's blocks
		m := randMat(rng, n, n)
		lead, counter := 0, 0
		for d := 0; d < n; d++ {
			lead += m.LeadingDiagonal(d).Popcount()
			counter += m.CounterDiagonal(d).Popcount()
		}
		return lead == m.Popcount() && counter == m.Popcount()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMatEqualCloneZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := randMat(rng, 10, 10)
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Flip(0, 0)
	if m.Equal(c) {
		t.Fatal("Equal missed a difference")
	}
	c.Zero()
	if c.Popcount() != 0 {
		t.Fatal("Zero failed")
	}
	if m.Equal(NewMat(10, 11)) {
		t.Fatal("Equal ignored dimensions")
	}
}

func TestMatFill(t *testing.T) {
	m := NewMat(6, 70)
	m.Fill(true)
	if m.Popcount() != 6*70 {
		t.Fatalf("Fill popcount = %d", m.Popcount())
	}
}

func TestBlockOutOfRangePanics(t *testing.T) {
	m := NewMat(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Block out of range did not panic")
		}
	}()
	m.Block(2, 2, 3, 3)
}

// TestPanicTextUnchanged: the range and length checks panic with an
// error value that formats lazily (so the accessors inline), and its text
// is the message they always panicked with.
func TestPanicTextUnchanged(t *testing.T) {
	m, v := NewMat(3, 4), NewVec(5)
	for _, tc := range []struct {
		name string
		f    func()
		want string
	}{
		{"Mat.Row", func() { m.Row(3) }, "bitmat: row 3 out of range [0,3)"},
		{"Mat.Get", func() { m.Get(-1, 0) }, "bitmat: row -1 out of range [0,3)"},
		{"Mat.Flip", func() { m.Flip(0, 4) }, "bitmat: index 4 out of range [0,4)"},
		{"Mat.Col", func() { m.Col(4) }, "bitmat: column 4 out of range [0,4)"},
		{"Vec.Set", func() { v.Set(5, true) }, "bitmat: index 5 out of range [0,5)"},
		{"Vec.CopyFrom", func() { v.CopyFrom(NewVec(4)) }, "bitmat: length mismatch 5 vs 4"},
		{"Vec.Uint64At", func() { v.Uint64At(2, 4) }, "bitmat: bad Uint64At(2,4) of 5"},
		{"Vec.Uint64At width", func() { v.Uint64At(0, -1) }, "bitmat: bad Uint64At(0,-1) of 5"},
	} {
		func() {
			defer func() {
				r := recover()
				if _, ok := r.(error); !ok {
					t.Errorf("%s: panic value %#v is not an error", tc.name, r)
				}
				if got := fmt.Sprint(r); got != tc.want {
					t.Errorf("%s: panic text %q, want %q", tc.name, got, tc.want)
				}
			}()
			tc.f()
		}()
	}
}
