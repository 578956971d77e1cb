package xbar

import (
	"math/rand"
	"testing"

	"repro/internal/bitmat"
)

// refCrossbar is a bit-serial model of the crossbar's gate semantics,
// mirroring the original per-cell implementation. The word-parallel gate
// paths must leave the memory AND the initialization state bit-identical
// to this model after any operation sequence.
type refCrossbar struct {
	rows, cols int
	mem, init  [][]bool
}

func newRefCrossbar(rows, cols int) *refCrossbar {
	r := &refCrossbar{rows: rows, cols: cols}
	r.mem = make([][]bool, rows)
	r.init = make([][]bool, rows)
	for i := range r.mem {
		r.mem[i] = make([]bool, cols)
		r.init[i] = make([]bool, cols)
	}
	return r
}

func (r *refCrossbar) initColumnsInRows(cols []int, rows *bitmat.Vec) {
	for _, row := range rows.OnesIndices() {
		for _, c := range cols {
			r.mem[row][c] = true
			r.init[row][c] = true
		}
	}
}

func (r *refCrossbar) initRowsInCols(rowIdx []int, cols *bitmat.Vec) {
	for _, c := range cols.OnesIndices() {
		for _, row := range rowIdx {
			r.mem[row][c] = true
			r.init[row][c] = true
		}
	}
}

func (r *refCrossbar) norRows(a, b, out int, rows *bitmat.Vec) {
	for _, row := range rows.OnesIndices() {
		r.mem[row][out] = !(r.mem[row][a] || r.mem[row][b])
		r.init[row][out] = false
	}
}

func (r *refCrossbar) norCols(a, b, out int, cols *bitmat.Vec) {
	for _, c := range cols.OnesIndices() {
		r.mem[out][c] = !(r.mem[a][c] || r.mem[b][c])
		r.init[out][c] = false
	}
}

func (r *refCrossbar) clearRowInCols(row int, cols *bitmat.Vec) {
	for _, c := range cols.OnesIndices() {
		r.mem[row][c] = false
		r.init[row][c] = false
	}
}

func (r *refCrossbar) writeRow(row int, v *bitmat.Vec) {
	for c := 0; c < r.cols; c++ {
		r.mem[row][c] = v.Get(c)
		r.init[row][c] = false
	}
}

// initConsistent compares the crossbar's initialization tracking with the
// reference by probing strict-mode behavior cell by cell.
func checkState(t *testing.T, x *Crossbar, ref *refCrossbar, step int) {
	t.Helper()
	for r := 0; r < ref.rows; r++ {
		for c := 0; c < ref.cols; c++ {
			if x.Get(r, c) != ref.mem[r][c] {
				t.Fatalf("step %d: mem (%d,%d) = %v, ref %v", step, r, c, x.Get(r, c), ref.mem[r][c])
			}
		}
	}
	if got, want := x.init.Popcount(), popcount2d(ref.init); got != want {
		t.Fatalf("step %d: init popcount = %d, ref %d", step, got, want)
	}
	for r := 0; r < ref.rows; r++ {
		for c := 0; c < ref.cols; c++ {
			if x.init.Get(r, c) != ref.init[r][c] {
				t.Fatalf("step %d: init (%d,%d) = %v, ref %v", step, r, c, x.init.Get(r, c), ref.init[r][c])
			}
		}
	}
}

func popcount2d(b [][]bool) int {
	n := 0
	for _, row := range b {
		for _, v := range row {
			if v {
				n++
			}
		}
	}
	return n
}

// TestGatesMatchBitSerialReference runs a randomized operation sequence on
// a word-unaligned crossbar through both implementations and requires
// bit-exact memory and init state after every step. Masks are random
// (including empty and full), and gate operands may alias outputs.
func TestGatesMatchBitSerialReference(t *testing.T) {
	const rows, cols = 67, 131
	rng := rand.New(rand.NewSource(99))
	x := New(rows, cols)
	ref := newRefCrossbar(rows, cols)

	randRowMask := func() *bitmat.Vec {
		v := bitmat.NewVec(rows)
		for i := 0; i < rows; i++ {
			v.Set(i, rng.Intn(4) != 0)
		}
		return v
	}
	randColMask := func() *bitmat.Vec {
		v := bitmat.NewVec(cols)
		for i := 0; i < cols; i++ {
			v.Set(i, rng.Intn(4) != 0)
		}
		return v
	}

	for step := 0; step < 2000; step++ {
		switch rng.Intn(7) {
		case 0:
			idx := []int{rng.Intn(cols), rng.Intn(cols)}
			m := randRowMask()
			x.InitColumnsInRows(idx, m)
			ref.initColumnsInRows(idx, m)
		case 1:
			idx := []int{rng.Intn(rows), rng.Intn(rows)}
			m := randColMask()
			x.InitRowsInCols(idx, m)
			ref.initRowsInCols(idx, m)
		case 2:
			a, b, out := rng.Intn(cols), rng.Intn(cols), rng.Intn(cols)
			m := randRowMask()
			x.NORRows(a, b, out, m)
			ref.norRows(a, b, out, m)
		case 3:
			a, b, out := rng.Intn(rows), rng.Intn(rows), rng.Intn(rows)
			m := randColMask()
			x.NORCols(a, b, out, m)
			ref.norCols(a, b, out, m)
		case 4:
			a, out := rng.Intn(rows), rng.Intn(rows)
			m := randColMask()
			x.NOTCols(a, out, m)
			ref.norCols(a, a, out, m)
		case 5:
			r := rng.Intn(rows)
			m := randColMask()
			x.ClearRowInCols(r, m)
			ref.clearRowInCols(r, m)
		case 6:
			r := rng.Intn(rows)
			v := bitmat.NewVec(cols)
			for i := 0; i < cols; i++ {
				v.Set(i, rng.Intn(2) == 0)
			}
			x.WriteRow(r, v)
			ref.writeRow(r, v)
		}
		if step%97 == 0 || step == 1999 {
			checkState(t, x, ref, step)
		}
	}
	checkState(t, x, ref, 2000)
}

// TestGateExecutionZeroAllocs: every gate, init, write and tick path
// performs zero heap allocations per operation.
func TestGateExecutionZeroAllocs(t *testing.T) {
	const n = 256
	x := New(n, n)
	rows := x.AllRows()
	cols := x.AllCols()
	v := bitmat.NewVec(n)
	v.Fill(true)
	colIdx := []int{3, 4}
	rowIdx := []int{5, 6}

	cases := map[string]func(){
		"InitColumnsInRows": func() { x.InitColumnsInRows(colIdx, rows) },
		"InitRowsInCols":    func() { x.InitRowsInCols(rowIdx, cols) },
		"NORRows":           func() { x.NORRows(1, 2, 3, rows) },
		"NOTRows":           func() { x.NOTRows(1, 3, rows) },
		"NORCols":           func() { x.NORCols(1, 2, 3, cols) },
		"NOTCols":           func() { x.NOTCols(1, 3, cols) },
		"ClearRowInCols":    func() { x.ClearRowInCols(2, cols) },
		"WriteRow":          func() { x.WriteRow(7, v) },
		"Tick":              func() { x.Tick() },
		"TickN":             func() { x.TickN(12) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestTickNMatchesTicks: TickN(n) leaves the same statistics as n Ticks,
// for zero and negative n too.
func TestTickNMatchesTicks(t *testing.T) {
	got, want := New(4, 4), New(4, 4)
	for step, n := range []int{3, 0, 1, -2, 7, 30} {
		got.TickN(n)
		for k := 0; k < n; k++ {
			want.Tick()
		}
		if got.Stats() != want.Stats() {
			t.Fatalf("step %d: TickN(%d) left %+v, %d Ticks %+v", step, n, got.Stats(), n, want.Stats())
		}
	}
}
