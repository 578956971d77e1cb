package machine

import (
	"math/rand"
	"testing"
)

func TestSIMDColsExecution(t *testing.T) {
	// Fig 1b end-to-end: the adder program in a column, SIMD across all
	// 45 columns, with continuous ECC maintenance in the transposed
	// orientation.
	m := MustNew(testCfg)
	mp := adder8(t)

	rng := rand.New(rand.NewSource(21))
	inputs := make(map[int][]bool, testCfg.N)
	for c := 0; c < testCfg.N; c++ {
		in := make([]bool, mp.Netlist.NumInputs())
		for i := range in {
			in[i] = rng.Intn(2) == 0
		}
		inputs[c] = in
	}
	m.LoadInputsCols(mp, inputs)
	if !m.CheckConsistent() {
		t.Fatal("inconsistent after column loads")
	}

	if err := m.ExecuteSIMDCols(mp, m.MEM().AllCols()); err != nil {
		t.Fatal(err)
	}
	for c, in := range inputs {
		want := mp.Netlist.Eval(in)
		got := m.ReadOutputsCol(mp, c)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("column %d output %d: got %v want %v", c, i, got[i], want[i])
			}
		}
	}
	if !m.CheckConsistent() {
		t.Fatal("check bits inconsistent after column execution")
	}
	if m.Stats().CriticalOps == 0 {
		t.Fatal("no critical ops in column orientation")
	}
}

func TestSIMDColsInputFaultCorrected(t *testing.T) {
	m := MustNew(testCfg)
	mp := adder8(t)
	rng := rand.New(rand.NewSource(22))
	inputs := make(map[int][]bool, testCfg.N)
	for c := 0; c < testCfg.N; c++ {
		in := make([]bool, mp.Netlist.NumInputs())
		for i := range in {
			in[i] = rng.Intn(2) == 0
		}
		inputs[c] = in
	}
	m.LoadInputsCols(mp, inputs)

	// Fault in the input region: rows [0,16) hold inputs.
	m.InjectDataFault(5, 30)
	if err := m.ExecuteSIMDCols(mp, m.MEM().AllCols()); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Corrections != 1 {
		t.Fatalf("corrections = %d, want 1", m.Stats().Corrections)
	}
	for c, in := range inputs {
		want := mp.Netlist.Eval(in)
		got := m.ReadOutputsCol(mp, c)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("column %d wrong after corrected fault", c)
			}
		}
	}
}

func TestOrientationSymmetry(t *testing.T) {
	// The same program on the same per-lane operands must produce the
	// same results row-wise and column-wise, and both must leave the
	// check bits equal to a from-scratch rebuild — the architectural
	// symmetry the diagonal placement buys.
	mp := adder8(t)
	rng := rand.New(rand.NewSource(23))
	lane := make(map[int][]bool, testCfg.N)
	for i := 0; i < testCfg.N; i++ {
		in := make([]bool, mp.Netlist.NumInputs())
		for j := range in {
			in[j] = rng.Intn(2) == 0
		}
		lane[i] = in
	}

	mr := MustNew(testCfg)
	mr.LoadInputs(mp, lane)
	if err := mr.ExecuteSIMD(mp, mr.MEM().AllRows()); err != nil {
		t.Fatal(err)
	}
	mc := MustNew(testCfg)
	mc.LoadInputsCols(mp, lane)
	if err := mc.ExecuteSIMDCols(mp, mc.MEM().AllCols()); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < testCfg.N; i++ {
		r := mr.ReadOutputs(mp, i)
		c := mc.ReadOutputsCol(mp, i)
		for j := range r {
			if r[j] != c[j] {
				t.Fatalf("lane %d output %d differs between orientations", i, j)
			}
		}
	}
	for _, m := range []*Machine{mr, mc} {
		if !m.CheckConsistent() {
			t.Fatal("check bits diverged in one orientation")
		}
	}
	// The memory images are transposes of each other.
	if !mr.MEM().Mat().Transpose().Equal(mc.MEM().Mat()) {
		t.Fatal("row and column executions are not transposes")
	}
}

func TestSIMDColsOversizedMapping(t *testing.T) {
	m := MustNew(Config{N: 45, M: 15, K: 2, ECCEnabled: true})
	mp := adder8(t) // rowSize 45 — fine
	_ = mp
	big := *mp
	big.RowSize = 46
	if err := m.ExecuteSIMDCols(&big, m.MEM().AllCols()); err == nil {
		t.Fatal("oversized mapping accepted")
	}
}
