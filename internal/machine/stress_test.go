package machine

import (
	"math/rand"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/netlist"
	"repro/internal/synth"
)

// TestStressCampaign runs a long random campaign against the protected
// machine — interleaved loads, SIMD executions, single-fault injections
// and scrubs — and asserts the system-level invariant the paper's
// reliability model rests on: as long as at most one soft error lands in
// any block between checks, no data is ever silently lost and the check
// bits return to full consistency after every scrub.
func TestStressCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("long stress campaign")
	}
	const rounds = 40
	rng := rand.New(rand.NewSource(2024))
	m := MustNew(testCfg)
	mp := adder8(t)

	// Track expected input words per row (the protected data).
	inputs := loadRandomInputs(t, m, mp, 999)

	for round := 0; round < rounds; round++ {
		switch rng.Intn(4) {
		case 0: // rewrite some rows with fresh operands
			for i := 0; i < 5; i++ {
				r := rng.Intn(testCfg.N)
				in := make([]bool, mp.Netlist.NumInputs())
				for j := range in {
					in[j] = rng.Intn(2) == 0
				}
				inputs[r] = in
			}
			m.LoadInputs(mp, inputs)
		case 1: // inject exactly one fault into a random block, then scrub
			br, bc := rng.Intn(3), rng.Intn(3)
			m.InjectDataFault(br*15+rng.Intn(15), bc*15+rng.Intn(15))
			corrected, unc := m.Scrub()
			if unc != 0 {
				t.Fatalf("round %d: single fault reported uncorrectable", round)
			}
			if corrected != 1 {
				t.Fatalf("round %d: corrected=%d, want 1", round, corrected)
			}
		case 2: // execute the SIMD function, possibly with one input fault
			faulted := rng.Intn(2) == 0
			if faulted {
				m.InjectDataFault(rng.Intn(testCfg.N), rng.Intn(mp.Netlist.NumInputs()))
			}
			if err := m.ExecuteSIMD(mp, m.MEM().AllRows()); err != nil {
				t.Fatal(err)
			}
			checkAllRows(t, m, mp, inputs)
		case 3: // idle scrub on clean memory must find nothing
			if corrected, unc := m.Scrub(); corrected != 0 || unc != 0 {
				t.Fatalf("round %d: clean scrub found corrected=%d unc=%d", round, corrected, unc)
			}
		}
		if !m.CheckConsistent() {
			t.Fatalf("round %d: check bits inconsistent", round)
		}
		// The stored operands must always be intact after each round.
		for r, in := range inputs {
			for i, v := range in {
				if m.MEM().Get(r, i) != v {
					t.Fatalf("round %d: stored operand (%d,%d) corrupted", round, r, i)
				}
			}
		}
	}
}

// TestBackToBackExecutions runs several different functions on the same
// machine sequentially, confirming the working-region reconciliation
// composes across functions.
func TestBackToBackExecutions(t *testing.T) {
	m := MustNew(testCfg)

	build := func(f func(b *netlist.Builder, in []int) []int, nin int) *synth.Mapping {
		b := netlist.NewBuilder("fn")
		in := b.InputBus(nin)
		b.OutputBus(f(b, in))
		mp, err := synth.Map(b.Build().LowerToNOR(), testCfg.N)
		if err != nil {
			t.Fatal(err)
		}
		return mp
	}

	xorTree := build(func(b *netlist.Builder, in []int) []int {
		acc := in[0]
		for _, x := range in[1:] {
			acc = b.Xor(acc, x)
		}
		return []int{acc}
	}, 10)
	andOr := build(func(b *netlist.Builder, in []int) []int {
		var outs []int
		for i := 0; i+1 < len(in); i += 2 {
			outs = append(outs, b.And(in[i], in[i+1]), b.Or(in[i], in[i+1]))
		}
		return outs
	}, 10)

	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 6; iter++ {
		mp := xorTree
		if iter%2 == 1 {
			mp = andOr
		}
		inputs := make(map[int][]bool)
		for r := 0; r < testCfg.N; r++ {
			in := make([]bool, mp.Netlist.NumInputs())
			for i := range in {
				in[i] = rng.Intn(2) == 0
			}
			inputs[r] = in
		}
		m.LoadInputs(mp, inputs)
		if err := m.ExecuteSIMD(mp, m.MEM().AllRows()); err != nil {
			t.Fatal(err)
		}
		checkAllRows(t, m, mp, inputs)
		if !m.CheckConsistent() {
			t.Fatalf("iteration %d: check bits inconsistent", iter)
		}
	}
}

// TestWiderGeometry runs the integration on a larger crossbar (75×75,
// 5×5 grid of blocks) to catch geometry assumptions hidden by the 45×45
// default.
func TestWiderGeometry(t *testing.T) {
	cfg := Config{N: 75, M: 15, K: 3, ECCEnabled: true}
	m := MustNew(cfg)
	b := netlist.NewBuilder("adder16")
	a := b.InputBus(16)
	x := b.InputBus(16)
	carry := b.Const(false)
	for i := 0; i < 16; i++ {
		axb := b.Xor(a[i], x[i])
		b.Output(b.Xor(axb, carry))
		carry = b.Or(b.And(a[i], x[i]), b.And(axb, carry))
	}
	b.Output(carry)
	mp, err := synth.Map(b.Build().LowerToNOR(), 75)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(55))
	inputs := make(map[int][]bool)
	for r := 0; r < cfg.N; r++ {
		in := make([]bool, 32)
		for i := range in {
			in[i] = rng.Intn(2) == 0
		}
		inputs[r] = in
	}
	m.LoadInputs(mp, inputs)
	m.InjectDataFault(50, 20) // input region, block (3,1)
	if err := m.ExecuteSIMD(mp, m.MEM().AllRows()); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Corrections != 1 {
		t.Fatalf("corrections = %d", m.Stats().Corrections)
	}
	for r, in := range inputs {
		want := mp.Netlist.Eval(in)
		got := m.ReadOutputs(mp, r)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d output %d wrong", r, i)
			}
		}
	}
	if !m.CheckConsistent() {
		t.Fatal("check bits inconsistent on 75×75 geometry")
	}
}

// TestLoadRowUpdatesThroughProtocol ensures LoadRow's check-bit
// maintenance uses the same critical-update path the executor uses
// (catching any asymmetry between orientations).
func TestLoadRowUpdatesThroughProtocol(t *testing.T) {
	m := MustNew(testCfg)
	rng := rand.New(rand.NewSource(66))
	for i := 0; i < 60; i++ {
		v := bitmat.NewVec(testCfg.N)
		for j := 0; j < testCfg.N; j++ {
			v.Set(j, rng.Intn(2) == 0)
		}
		m.LoadRow(rng.Intn(testCfg.N), v)
		if !m.CheckConsistent() {
			t.Fatalf("inconsistent after load %d", i)
		}
	}
}
