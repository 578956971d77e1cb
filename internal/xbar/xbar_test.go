package xbar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitmat"
)

func TestNORRowsParallel(t *testing.T) {
	// Fig 1(a): the same in-row NOR executes across many rows in one cycle.
	x := New(8, 8)
	rng := rand.New(rand.NewSource(1))
	x.Mat().Randomize(rng)
	before := x.Snapshot()

	rows := x.AllRows()
	x.InitColumnsInRows([]int{5}, rows)
	x.NORRows(0, 1, 5, rows)

	st := x.Stats()
	if st.Cycles != 2 { // 1 init + 1 gate
		t.Fatalf("Cycles = %d, want 2", st.Cycles)
	}
	if st.GateCount != 8 {
		t.Fatalf("GateCount = %d, want 8 (one gate per row)", st.GateCount)
	}
	for r := 0; r < 8; r++ {
		want := !(before.Get(r, 0) || before.Get(r, 1))
		if x.Get(r, 5) != want {
			t.Fatalf("row %d: NOR=%v want %v", r, x.Get(r, 5), want)
		}
		// Other columns untouched.
		for c := 0; c < 8; c++ {
			if c == 5 {
				continue
			}
			if x.Get(r, c) != before.Get(r, c) {
				t.Fatalf("cell (%d,%d) changed unexpectedly", r, c)
			}
		}
	}
}

func TestNORColsParallel(t *testing.T) {
	// Fig 1(b): in-column NOR across all columns in one cycle.
	x := New(8, 8)
	rng := rand.New(rand.NewSource(2))
	x.Mat().Randomize(rng)
	before := x.Snapshot()

	cols := x.AllCols()
	x.InitRowsInCols([]int{7}, cols)
	x.NORCols(2, 3, 7, cols)

	for c := 0; c < 8; c++ {
		want := !(before.Get(2, c) || before.Get(3, c))
		if x.Get(7, c) != want {
			t.Fatalf("col %d: NOR=%v want %v", c, x.Get(7, c), want)
		}
	}
}

func TestRowMaskSubset(t *testing.T) {
	x := New(4, 4)
	x.Set(0, 0, true)
	x.Set(1, 0, true)
	rows := x.RowMask()
	rows.Set(1, true) // only row 1 selected
	x.InitColumnsInRows([]int{3}, rows)
	x.NORRows(0, 1, 3, rows)
	if x.Get(1, 3) != false { // NOR(1,0)=0
		t.Fatal("selected row wrong result")
	}
	if x.Get(0, 3) != false { // untouched, still HRS=0
		t.Fatal("unselected row changed")
	}
	if x.Stats().GateCount != 1 {
		t.Fatalf("GateCount = %d, want 1", x.Stats().GateCount)
	}
}

func TestNOTGate(t *testing.T) {
	x := New(2, 3)
	x.Set(0, 0, true)
	x.Set(1, 0, false)
	rows := x.AllRows()
	x.InitColumnsInRows([]int{2}, rows)
	x.NOTRows(0, 2, rows)
	if x.Get(0, 2) != false || x.Get(1, 2) != true {
		t.Fatal("NOT gate incorrect")
	}
}

func TestStrictModeCatchesUninitializedOutput(t *testing.T) {
	x := New(2, 3)
	x.SetStrict(true)
	rows := x.AllRows()
	defer func() {
		if recover() == nil {
			t.Fatal("strict mode did not panic on uninitialized output")
		}
	}()
	x.NORRows(0, 1, 2, rows) // no init first
}

func TestStrictModeCatchesDoubleUse(t *testing.T) {
	x := New(1, 4)
	x.SetStrict(true)
	rows := x.AllRows()
	x.InitColumnsInRows([]int{2}, rows)
	x.NORRows(0, 1, 2, rows) // consumes the init
	defer func() {
		if recover() == nil {
			t.Fatal("strict mode did not panic on reused output without re-init")
		}
	}()
	x.NORRows(0, 1, 2, rows)
}

func TestInitIsSingleCycleForManyCells(t *testing.T) {
	x := New(100, 100)
	rows := x.AllRows()
	x.InitColumnsInRows([]int{0, 1, 2, 3, 4, 5, 6, 7}, rows)
	if x.Stats().Cycles != 1 {
		t.Fatalf("batched init took %d cycles, want 1", x.Stats().Cycles)
	}
	if x.Mat().Popcount() != 8*100 {
		t.Fatal("init did not set cells to LRS")
	}
}

func TestReadWriteRow(t *testing.T) {
	x := New(3, 5)
	v := bitmat.FromBits([]bool{true, false, true, true, false})
	x.WriteRow(1, v)
	got := x.ReadRow(1)
	if !got.Equal(v) {
		t.Fatalf("ReadRow = %s, want %s", got, v)
	}
	if x.Stats().Reads != 1 || x.Stats().Writes != 1 {
		t.Fatal("read/write stats wrong")
	}
}

func TestFlipInjectsError(t *testing.T) {
	x := New(2, 2)
	cyclesBefore := x.Stats().Cycles
	x.Flip(0, 1)
	if !x.Get(0, 1) {
		t.Fatal("flip did not change state")
	}
	if x.Stats().Cycles != cyclesBefore {
		t.Fatal("fault injection consumed a cycle")
	}
}

func TestXOR3ColsTruthTable(t *testing.T) {
	// Exhaustive 3-input truth table, one column per input combination.
	x := New(XOR3WorkRows, 8)
	for c := 0; c < 8; c++ {
		x.Set(XOR3RowA, c, c&1 != 0)
		x.Set(XOR3RowB, c, c&2 != 0)
		x.Set(XOR3RowC, c, c&4 != 0)
	}
	x.SetStrict(true)
	x.XOR3Cols(0, x.AllCols())
	for c := 0; c < 8; c++ {
		a, b, cc := c&1 != 0, c&2 != 0, c&4 != 0
		want := a != b != cc
		if x.Get(XOR3RowOut, c) != want {
			t.Fatalf("XOR3(%v,%v,%v) = %v, want %v", a, b, cc, x.Get(XOR3RowOut, c), want)
		}
	}
	// 1 init + 8 NOR cycles.
	if got := x.Stats().Cycles; got != 1+XOR3CyclesPerBit {
		t.Fatalf("XOR3 cycles = %d, want %d", got, 1+XOR3CyclesPerBit)
	}
	if got := x.Stats().NORs; got != XOR3CyclesPerBit {
		t.Fatalf("XOR3 NOR count = %d, want %d (paper: XOR3 = 8 MAGIC NORs)", got, XOR3CyclesPerBit)
	}
}

func TestXOR3ColsWideProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + rng.Intn(200)
		x := New(XOR3WorkRows, w)
		for c := 0; c < w; c++ {
			x.Set(XOR3RowA, c, rng.Intn(2) == 0)
			x.Set(XOR3RowB, c, rng.Intn(2) == 0)
			x.Set(XOR3RowC, c, rng.Intn(2) == 0)
		}
		a, b, cc := x.Mat().Row(XOR3RowA).Clone(), x.Mat().Row(XOR3RowB).Clone(), x.Mat().Row(XOR3RowC).Clone()
		x.XOR3Cols(0, x.AllCols())
		want := bitmat.NewVec(w)
		want.Xor(a, b)
		want.Xor(want, cc)
		return x.Mat().Row(XOR3RowOut).Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestXOR2ViaXOR3: XOR3 with input c cleared to zero is XOR2.
func TestXOR2ViaXOR3(t *testing.T) {
	x := New(XOR3WorkRows, 4)
	for c := 0; c < 4; c++ {
		x.Set(XOR3RowA, c, c&1 != 0)
		x.Set(XOR3RowB, c, c&2 != 0)
	}
	x.ClearRowInCols(XOR3RowC, x.AllCols())
	x.XOR3Cols(0, x.AllCols())
	for c := 0; c < 4; c++ {
		want := (c&1 != 0) != (c&2 != 0)
		if x.Get(XOR3RowOut, c) != want {
			t.Fatalf("XOR2 col %d = %v, want %v", c, x.Get(XOR3RowOut, c), want)
		}
	}
}

func TestTickAdvancesClockOnly(t *testing.T) {
	x := New(2, 2)
	before := x.Snapshot()
	x.Tick()
	x.Tick()
	if x.Stats().Cycles != 2 {
		t.Fatal("Tick did not advance clock")
	}
	if !x.Snapshot().Equal(before) {
		t.Fatal("Tick changed memory")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	x := New(4, 4)
	cases := []func(){
		func() { x.NORRows(0, 1, 4, x.AllRows()) },
		func() { x.NORCols(0, 1, 9, x.AllCols()) },
		func() { x.ReadRow(-1) },
		func() { x.Write(0, 4, true) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestResetStats(t *testing.T) {
	x := New(2, 2)
	x.Tick()
	x.ResetStats()
	if x.Stats().Cycles != 0 {
		t.Fatal("ResetStats failed")
	}
}
