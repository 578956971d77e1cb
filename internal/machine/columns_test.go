package machine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ecc"
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
	// symmetry the diagonal placement buys — under every scheme and the
	// unprotected baseline, at the same MEM, critical-op and input-check
	// cost in both orientations.
	cfgs := []Config{testCfg, {N: 60, M: 15, K: 2}}
	for _, s := range ecc.SchemeNames() {
		cfgs = append(cfgs, Config{N: 60, M: 15, K: 2, ECCEnabled: true, Scheme: s})
	}
	mp := adder8(t)
	for _, cfg := range cfgs {
		name := "none"
		if cfg.ECCEnabled {
			name = cfg.SchemeName()
		}
		t.Run(fmt.Sprintf("%s/%d", name, cfg.N), func(t *testing.T) {
			n := cfg.N
			rng := rand.New(rand.NewSource(23))
			lane := make(map[int][]bool, n)
			for i := 0; i < n; i++ {
				in := make([]bool, mp.Netlist.NumInputs())
				for j := range in {
					in[j] = rng.Intn(2) == 0
				}
				lane[i] = in
			}

			mr := MustNew(cfg)
			mr.LoadInputs(mp, lane)
			r0 := mr.Stats()
			if err := mr.ExecuteSIMD(mp, mr.MEM().AllRows()); err != nil {
				t.Fatal(err)
			}
			mc := MustNew(cfg)
			mc.LoadInputsCols(mp, lane)
			c0 := mc.Stats()
			if err := mc.ExecuteSIMDCols(mp, mc.MEM().AllCols()); err != nil {
				t.Fatal(err)
			}

			for i, in := range lane {
				want := mp.Netlist.Eval(in)
				if r, c := mr.ReadOutputs(mp, i), mc.ReadOutputsCol(mp, i); !slices.Equal(r, want) || !slices.Equal(c, want) {
					t.Fatalf("lane %d: rows %v, columns %v, want %v", i, r, c, want)
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

			dr, dc := spent(mr, r0), spent(mc, c0)
			t.Logf("MEM cycles, critical ops, input checks: rows %v, columns %v", dr, dc)
			if cfg.Scheme == "diagonal-x4" {
				// The row orientation widens the striped code's input
				// checks to its 4-block column group; block rows are
				// never widened.
				dc[2] *= 2
			}
			if dr != dc {
				t.Fatalf("orientation costs differ: rows %v, columns %v", dr, dc)
			}
		})
	}
}

// spent is the MEM cycles, critical ops and input checks m spent since
// its stats read before.
func spent(m *Machine, before Stats) [3]int {
	s := m.Stats()
	return [3]int{s.MEMCycles - before.MEMCycles, s.CriticalOps - before.CriticalOps, s.InputChecks - before.InputChecks}
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
