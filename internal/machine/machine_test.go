package machine

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/circuits"
	"repro/internal/ecc"
	"repro/internal/netlist"
	"repro/internal/shifter"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/xbar"
)

var testCfg = Config{N: 45, M: 15, K: 2, ECCEnabled: true}

// adder8 returns an 8-bit adder mapping that fits the 45-cell test row.
func adder8(t *testing.T) *synth.Mapping {
	t.Helper()
	b := netlist.NewBuilder("adder8")
	a := b.InputBus(8)
	x := b.InputBus(8)
	carry := b.Const(false)
	for i := 0; i < 8; i++ {
		axb := b.Xor(a[i], x[i])
		b.Output(b.Xor(axb, carry))
		carry = b.Or(b.And(a[i], x[i]), b.And(axb, carry))
	}
	b.Output(carry)
	m, err := synth.Map(b.Build().LowerToNOR(), 45)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func loadRandomInputs(t *testing.T, m *Machine, mp *synth.Mapping, seed int64) map[int][]bool {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inputs := make(map[int][]bool)
	for r := 0; r < m.Config().N; r++ {
		in := make([]bool, mp.Netlist.NumInputs())
		for i := range in {
			in[i] = rng.Intn(2) == 0
		}
		inputs[r] = in
	}
	m.LoadInputs(mp, inputs)
	return inputs
}

func checkAllRows(t *testing.T, m *Machine, mp *synth.Mapping, inputs map[int][]bool) {
	t.Helper()
	for r, in := range inputs {
		want := mp.Netlist.Eval(in)
		got := m.ReadOutputs(mp, r)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("row %d output %d: got %v want %v", r, i, got[i], want[i])
			}
		}
	}
}

func TestSIMDExecutionAllRows(t *testing.T) {
	// Fig 1a end-to-end: 45 independent 8-bit additions in one pass.
	m := MustNew(testCfg)
	mp := adder8(t)
	inputs := loadRandomInputs(t, m, mp, 1)
	if err := m.ExecuteSIMD(mp, m.MEM().AllRows()); err != nil {
		t.Fatal(err)
	}
	checkAllRows(t, m, mp, inputs)
	if !m.CheckConsistent() {
		t.Fatal("check bits inconsistent after execution")
	}
	if m.Stats().CriticalOps == 0 {
		t.Fatal("no critical operations recorded")
	}
}

// TestBaselineMachineAlsoComputes: an unprotected machine computes in both
// orientations — also at the M=K=0 geometry, where no input-check
// arithmetic may run — and its scrub corrects nothing.
func TestBaselineMachineAlsoComputes(t *testing.T) {
	off := testCfg
	off.ECCEnabled = false
	mp := adder8(t)
	for _, cfg := range []Config{off, {N: 45}} {
		m := MustNew(cfg)
		inputs := loadRandomInputs(t, m, mp, 2)
		if err := m.ExecuteSIMD(mp, m.MEM().AllRows()); err != nil {
			t.Fatal(err)
		}
		checkAllRows(t, m, mp, inputs)
		if m.CMEM() != nil {
			t.Fatal("baseline machine should have no CMEM")
		}
		m.InjectDataFault(30, 30)
		if c, u := m.Scrub(); c != 0 || u != 0 {
			t.Fatalf("config %+v: baseline scrub corrected=%d uncorrectable=%d, want a no-op", cfg, c, u)
		}

		mc := MustNew(cfg)
		mc.LoadInputsCols(mp, inputs)
		if err := mc.ExecuteSIMDCols(mp, mc.MEM().AllCols()); err != nil {
			t.Fatal(err)
		}
		for c, in := range inputs {
			want := mp.Netlist.Eval(in)
			got := mc.ReadOutputsCol(mp, c)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("config %+v: column %d output %d: got %v want %v", cfg, c, i, got[i], want[i])
				}
			}
		}
	}
}

func TestInputFaultCorrectedBeforeExecution(t *testing.T) {
	// E6 headline: a soft error in a function input is detected and
	// corrected by the pre-execution check, so every row still computes
	// the right answer.
	m := MustNew(testCfg)
	mp := adder8(t)
	inputs := loadRandomInputs(t, m, mp, 3)

	m.InjectDataFault(20, 5) // input region: column 5 < 16 inputs
	inputs[20][5] = !inputs[20][5]
	// The stored (faulted) bit is wrong; ECC must restore the original.
	inputs[20][5] = !inputs[20][5]

	if err := m.ExecuteSIMD(mp, m.MEM().AllRows()); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Corrections != 1 {
		t.Fatalf("corrections = %d, want 1", m.Stats().Corrections)
	}
	checkAllRows(t, m, mp, inputs)
}

func TestInputFaultCorruptsBaseline(t *testing.T) {
	// The same fault on the unprotected baseline silently corrupts the
	// affected row's result — the failure mode motivating the paper.
	cfg := testCfg
	cfg.ECCEnabled = false
	m := MustNew(cfg)
	mp := adder8(t)
	inputs := loadRandomInputs(t, m, mp, 3)

	m.InjectDataFault(20, 0) // flip input bit a[0] of row 20
	if err := m.ExecuteSIMD(mp, m.MEM().AllRows()); err != nil {
		t.Fatal(err)
	}
	want := mp.Netlist.Eval(inputs[20])
	got := m.ReadOutputs(mp, 20)
	same := true
	for i := range want {
		if got[i] != want[i] {
			same = false
		}
	}
	if same {
		t.Fatal("baseline produced correct output despite corrupted input — test is vacuous")
	}
}

// TestInputCheckCorrectionsInBlockOrder: one input check's corrections
// are tallied, and their ring events emitted, in block order along the
// checked line — in both orientations and on every run.
func TestInputCheckCorrectionsInBlockOrder(t *testing.T) {
	mp := adder8(t)
	want := [][2]int64{{1, 2}, {3, 4}, {5, 6}}  // local (LR,LC) per block, rows orientation
	cells := [][2]int{{1, 2}, {18, 4}, {35, 6}} // three blocks of input block-column 0
	for _, cols := range []bool{false, true} {
		for trial := 0; trial < 20; trial++ {
			m := MustNew(testCfg)
			ring := telemetry.NewRing(16)
			m.Instrument(Telemetry{Events: ring})
			rng := rand.New(rand.NewSource(int64(trial)))
			lanes := make(map[int][]bool, testCfg.N)
			for l := 0; l < testCfg.N; l++ {
				in := make([]bool, mp.Netlist.NumInputs())
				for i := range in {
					in[i] = rng.Intn(2) == 0
				}
				lanes[l] = in
			}
			var err error
			if cols {
				m.LoadInputsCols(mp, lanes)
				for _, c := range cells {
					m.InjectDataFault(c[1], c[0])
				}
				err = m.ExecuteSIMDCols(mp, m.MEM().AllCols())
			} else {
				m.LoadInputs(mp, lanes)
				for _, c := range cells {
					m.InjectDataFault(c[0], c[1])
				}
				err = m.ExecuteSIMD(mp, m.MEM().AllRows())
			}
			if err != nil {
				t.Fatal(err)
			}
			var got [][2]int64
			for _, e := range ring.Recent(0) {
				if e.Kind != telemetry.EvCorrection {
					t.Fatalf("cols=%v trial %d: unexpected %v event", cols, trial, e.Kind)
				}
				if cols {
					got = append(got, [2]int64{e.B, e.A})
				} else {
					got = append(got, [2]int64{e.A, e.B})
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("cols=%v trial %d: corrections %v, want %v", cols, trial, got, want)
			}
		}
	}
}

// TestCheckLineChargesCMEMTicks: a block-line check of the diagonal code
// advances the MEM clock exactly as the gate-level CMEM's CheckLine does
// (2·M line copies, then one write per repaired data cell), with the same
// findings and repairs, in both orientations; other codes charge no
// check ticks.
func TestCheckLineChargesCMEMTicks(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, tc := range []struct {
		o   shifter.Orientation
		idx int
	}{{shifter.ColParallel, 0}, {shifter.RowParallel, 1}} {
		m := MustNew(testCfg)
		for r := 0; r < testCfg.N; r++ {
			row := bitmat.NewVec(testCfg.N)
			for c := 0; c < testCfg.N; c++ {
				row.Set(c, rng.Intn(2) == 0)
			}
			m.LoadRow(r, row)
		}
		m.InjectDataFault(3, 20)                     // block (0,1)
		m.InjectDataFault(40, 17)                    // block (2,1)
		m.InjectCheckFault(shifter.Leading, 2, 0, 2) // block (0,2)
		m.InjectCheckFault(shifter.Counter, 5, 1, 1) // block (1,1)

		cm := m.CMEM()
		ref := xbar.New(testCfg.N, testCfg.N)
		ref.Mat().SetBlock(0, 0, m.MEM().Mat())
		want := cm.CheckLine(ref, tc.o, tc.idx, 0)
		before := m.Stats().MEMCycles
		got := m.checkLine(nil, tc.o, tc.idx)
		if ticks := m.Stats().MEMCycles - before; ticks != ref.Stats().Cycles {
			t.Errorf("%v line %d: machine ticked MEM %d times, CMEM %d", tc.o, tc.idx, ticks, ref.Stats().Cycles)
		}
		if len(got) != len(want) {
			t.Fatalf("%v line %d: findings %+v, CMEM diagnoses %+v", tc.o, tc.idx, got, want)
		}
		for _, f := range got {
			b := f.BC
			if tc.o == shifter.RowParallel {
				b = f.BR
			}
			if want[b] != f.Diag {
				t.Errorf("%v line %d: finding %+v, CMEM diagnosed %+v", tc.o, tc.idx, f, want[b])
			}
		}
		if !m.MEM().Mat().Equal(ref.Mat()) || !cm.Image().Equal(ecc.DiagonalCheckBits(m.sch)) {
			t.Errorf("%v line %d: repairs differ from the CMEM's", tc.o, tc.idx)
		}
	}

	h := MustNew(Config{N: 45, M: 15, ECCEnabled: true, Scheme: ecc.SchemeHamming})
	h.InjectDataFault(3, 20)
	before := h.Stats().MEMCycles
	if c, _ := h.Scrub(); c != 1 {
		t.Fatalf("hamming scrub corrected %d, want 1", c)
	}
	if ticks := h.Stats().MEMCycles - before; ticks != 0 {
		t.Fatalf("hamming scrub ticked MEM %d times, want 0", ticks)
	}
}

func TestMultipleInputFaultsDifferentBlocksCorrected(t *testing.T) {
	m := MustNew(testCfg)
	mp := adder8(t)
	inputs := loadRandomInputs(t, m, mp, 4)
	// One fault per block-row of input block-column 0.
	m.InjectDataFault(3, 2)
	m.InjectDataFault(18, 9)
	m.InjectDataFault(40, 14)
	if err := m.ExecuteSIMD(mp, m.MEM().AllRows()); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Corrections != 3 {
		t.Fatalf("corrections = %d, want 3", m.Stats().Corrections)
	}
	checkAllRows(t, m, mp, inputs)
}

func TestScrubRepairsIdleData(t *testing.T) {
	m := MustNew(testCfg)
	mp := adder8(t)
	inputs := loadRandomInputs(t, m, mp, 5)
	_ = inputs
	if m.CMEM() == nil {
		t.Fatal("protected machine lacks a CMEM")
	}
	before := m.MEM().Snapshot()
	m.InjectDataFault(30, 30) // outside the input region
	corrected, unc := m.Scrub()
	if corrected != 1 || unc != 0 {
		t.Fatalf("scrub: corrected=%d uncorrectable=%d", corrected, unc)
	}
	if !m.MEM().Snapshot().Equal(before) {
		t.Fatal("scrub did not restore memory")
	}
	if !m.CheckConsistent() {
		t.Fatal("check bits inconsistent after the scrub's correction")
	}
}

func TestScrubRepairsCheckBitFault(t *testing.T) {
	m := MustNew(testCfg)
	mp := adder8(t)
	loadRandomInputs(t, m, mp, 6)
	m.InjectCheckFault(shifter.Leading, 4, 1, 2)
	corrected, unc := m.Scrub()
	if corrected != 1 || unc != 0 {
		t.Fatalf("scrub: corrected=%d uncorrectable=%d", corrected, unc)
	}
	if !m.CheckConsistent() {
		t.Fatal("check bits still inconsistent")
	}
}

func TestScrubFlagsUncorrectableBlock(t *testing.T) {
	m := MustNew(testCfg)
	mp := adder8(t)
	loadRandomInputs(t, m, mp, 7)
	// Two faults in one block with disjoint diagonals.
	m.InjectDataFault(0, 0)
	m.InjectDataFault(1, 3)
	_, unc := m.Scrub()
	if unc != 1 {
		t.Fatalf("uncorrectable = %d, want 1", unc)
	}
}

func TestPartialRowMask(t *testing.T) {
	// Execute in only half the rows; others must be untouched outside the
	// working region.
	m := MustNew(testCfg)
	mp := adder8(t)
	inputs := loadRandomInputs(t, m, mp, 8)
	rows := m.MEM().RowMask()
	active := map[int]bool{}
	for r := 0; r < testCfg.N; r += 2 {
		rows.Set(r, true)
		active[r] = true
	}
	if err := m.ExecuteSIMD(mp, rows); err != nil {
		t.Fatal(err)
	}
	for r := range inputs {
		if !active[r] {
			continue
		}
		want := mp.Netlist.Eval(inputs[r])
		got := m.ReadOutputs(mp, r)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("active row %d output %d wrong", r, i)
			}
		}
	}
	// Inputs of inactive rows are untouched.
	for r := 1; r < testCfg.N; r += 2 {
		for i := 0; i < mp.Netlist.NumInputs(); i++ {
			if m.MEM().Get(r, i) != inputs[r][i] {
				t.Fatalf("inactive row %d input %d changed", r, i)
			}
		}
	}
	if !m.CheckConsistent() {
		t.Fatal("check bits inconsistent after masked execution")
	}
}

func TestCMEMStaysInSyncThroughLoadRows(t *testing.T) {
	m := MustNew(testCfg)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		v := bitmat.NewVec(testCfg.N)
		for j := 0; j < testCfg.N; j++ {
			v.Set(j, rng.Intn(2) == 0)
		}
		m.LoadRow(rng.Intn(testCfg.N), v)
	}
	if !m.CheckConsistent() {
		t.Fatal("LoadRow lost check-bit sync")
	}
}

func TestExecuteRejectsOversizedMapping(t *testing.T) {
	m := MustNew(testCfg)
	b := netlist.NewBuilder("wide")
	in := b.InputBus(4)
	b.Output(b.Nor(in[0], in[1]))
	mp, err := synth.Map(b.Build().LowerToNOR(), 64) // wider than N=45
	if err != nil {
		t.Fatal(err)
	}
	if err := m.ExecuteSIMD(mp, m.MEM().AllRows()); err == nil {
		t.Fatal("expected row-size error")
	}
}

func TestStatsAccumulation(t *testing.T) {
	m := MustNew(testCfg)
	mp := adder8(t)
	loadRandomInputs(t, m, mp, 10)
	if err := m.ExecuteSIMD(mp, m.MEM().AllRows()); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.MEMCycles == 0 || st.InputChecks != 2 { // 16 inputs → 2 block-columns
		t.Fatalf("stats: %+v", st)
	}
	if st.CriticalOps != mp.CriticalOps() {
		t.Fatalf("critical ops %d, want %d", st.CriticalOps, mp.CriticalOps())
	}
}

func TestECCDetectsUncorrectableInputCorruption(t *testing.T) {
	m := MustNew(testCfg)
	mp := adder8(t)
	loadRandomInputs(t, m, mp, 11)
	// Two faults in one input block: flagged, not silently accepted.
	m.InjectDataFault(0, 0)
	m.InjectDataFault(1, 3)
	if err := m.ExecuteSIMD(mp, m.MEM().AllRows()); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Uncorrectable == 0 {
		t.Fatal("double input error not flagged")
	}
}

func TestConsistencyIsNontrivial(t *testing.T) {
	// Sanity for CheckConsistent itself: a deliberately skewed check bit
	// must break consistency.
	m := MustNew(testCfg)
	mp := adder8(t)
	loadRandomInputs(t, m, mp, 12)
	if !m.CheckConsistent() {
		t.Fatal("fresh machine inconsistent")
	}
	m.InjectCheckFault(shifter.Counter, 0, 0, 0)
	if m.CheckConsistent() {
		t.Fatal("CheckConsistent missed an injected inconsistency")
	}
}

func TestEndToEndWithECCvsParamsBuild(t *testing.T) {
	// After a full execute, the gate-level CMEM model loaded from the
	// machine must equal ecc.Build of the final image (reconciliation +
	// critical updates together cover everything).
	m := MustNew(testCfg)
	mp := adder8(t)
	loadRandomInputs(t, m, mp, 13)
	if err := m.ExecuteSIMD(mp, m.MEM().AllRows()); err != nil {
		t.Fatal(err)
	}
	want := ecc.Build(ecc.Params{N: testCfg.N, M: testCfg.M}, m.MEM().Mat())
	cm := m.CMEM()
	if !cm.Image().Equal(want) {
		t.Fatal("CMEM image diverged from rebuilt check bits")
	}
	// The gate-level model is detached: faults in it stay out of the
	// machine's check bits.
	cm.FlipCheckBit(shifter.Leading, 0, 0, 0)
	if !m.CheckConsistent() {
		t.Fatal("a fault in the detached CMEM reached the machine")
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	bad := []Config{
		{N: 0, ECCEnabled: false},              // empty crossbar
		{N: 45, M: 14, K: 2, ECCEnabled: true}, // even block side
		{N: 45, M: 7, K: 2, ECCEnabled: true},  // m does not divide n
		{N: 45, M: 15, K: 0, ECCEnabled: true}, // no processing crossbars
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	if m, err := New(testCfg); err != nil || m == nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestMustNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid config")
		}
	}()
	MustNew(Config{N: 45, M: 14, K: 2, ECCEnabled: true})
}

func TestStatsAdd(t *testing.T) {
	a := Stats{MEMCycles: 1, CriticalOps: 2, InputChecks: 3, Corrections: 4, Uncorrectable: 5}
	b := Stats{MEMCycles: 10, CriticalOps: 20, InputChecks: 30, Corrections: 40, Uncorrectable: 50}
	want := Stats{MEMCycles: 11, CriticalOps: 22, InputChecks: 33, Corrections: 44, Uncorrectable: 55}
	if got := a.Add(b); got != want {
		t.Fatalf("a.Add(b) = %+v, want %+v", got, want)
	}
	if a.Add(b) != b.Add(a) {
		t.Fatal("Add not commutative")
	}
	if (Stats{}).Add(a) != a {
		t.Fatal("zero Stats is not the identity")
	}
}

// TestScrubFindingsLocateFaults: the detailed scrub reports each faulty
// block with the exact diagnosis, in deterministic block order, repairing
// single errors and leaving uncorrectable blocks untouched.
func TestScrubFindingsLocateFaults(t *testing.T) {
	m := MustNew(testCfg)
	rng := rand.New(rand.NewSource(8))
	for r := 0; r < 45; r++ {
		row := bitmat.NewVec(45)
		for c := 0; c < 45; c++ {
			row.Set(c, rng.Intn(2) == 0)
		}
		m.LoadRow(r, row)
	}
	want := m.MEM().Snapshot()

	// One correctable data fault in block (0,1), a double fault in (2,2).
	m.InjectDataFault(3, 20)
	m.InjectDataFault(31, 31)
	m.InjectDataFault(32, 33)

	findings := m.ScrubFindings()
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2: %+v", len(findings), findings)
	}
	f0, f1 := findings[0], findings[1]
	if f0.BR != 0 || f0.BC != 1 || f0.Diag.Kind != ecc.DataError {
		t.Fatalf("first finding %+v, want data error in block (0,1)", f0)
	}
	if r, c := f0.DataCell(15); r != 3 || c != 20 {
		t.Fatalf("repaired cell (%d,%d), want (3,20)", r, c)
	}
	if f1.BR != 2 || f1.BC != 2 || f1.Diag.Kind != ecc.Uncorrectable {
		t.Fatalf("second finding %+v, want uncorrectable block (2,2)", f1)
	}

	// The single error is repaired; the double fault remains in memory.
	diff := 0
	for r := 0; r < 45; r++ {
		for c := 0; c < 45; c++ {
			if m.MEM().Get(r, c) != want.Get(r, c) {
				diff++
			}
		}
	}
	if diff != 2 {
		t.Fatalf("%d cells differ after scrub, want the 2 uncorrectable ones", diff)
	}
	if m.MEM().Get(3, 20) != want.Get(3, 20) {
		t.Fatal("single fault not repaired")
	}

	// Scrub() sees the same counts through the findings path.
	corrected, uncorrectable := m.Scrub()
	if corrected != 0 || uncorrectable != 1 {
		t.Fatalf("re-scrub corrected=%d uncorrectable=%d, want 0/1", corrected, uncorrectable)
	}
	st := m.Stats()
	if st.Corrections != 1 || st.Uncorrectable != 2 {
		t.Fatalf("stats %+v, want 1 correction and 2 uncorrectable flags", st)
	}
}

func TestUpdateRowKeepsECCConsistent(t *testing.T) {
	m := MustNew(testCfg)
	wrote, err := m.UpdateRow(7, func(v *bitmat.Vec) bool {
		v.Set(3, true)
		v.Set(44, true)
		v.Set(20, true)
		return true
	})
	if err != nil {
		t.Fatalf("UpdateRow: %v", err)
	}
	if !wrote {
		t.Fatal("dirty mutation not written")
	}
	if !m.MEM().Get(7, 3) || !m.MEM().Get(7, 44) || !m.MEM().Get(7, 20) {
		t.Fatal("mutation lost")
	}
	if !m.CheckConsistent() {
		t.Fatal("check bits stale after UpdateRow")
	}
	// A multi-bit mutation commits as one protected write, not one per bit.
	before := m.Stats()
	m.UpdateRow(8, func(v *bitmat.Vec) bool { v.Fill(true); return true })
	if !m.CheckConsistent() {
		t.Fatal("check bits stale after full-row mutation")
	}
	if cycles := m.Stats().MEMCycles - before.MEMCycles; cycles > 8 {
		t.Fatalf("full-row UpdateRow cost %d MEM cycles — not a single write", cycles)
	}
}

func TestUpdateRowCleanSkipsWrite(t *testing.T) {
	m := MustNew(testCfg)
	before := m.Stats()
	if wrote, _ := m.UpdateRow(3, func(v *bitmat.Vec) bool { v.Set(1, true); return false }); wrote {
		t.Fatal("clean mutation reported written")
	}
	if m.MEM().Get(3, 1) {
		t.Fatal("clean mutation leaked into memory")
	}
	if m.Stats() != before {
		t.Fatal("clean UpdateRow consumed machine work")
	}
}

// TestUpdateRowZeroAllocs: a protected row write under the diagonal code,
// repair off and telemetry detached, reuses the machine's scratch rows
// and folds its delta without allocating.
func TestUpdateRowZeroAllocs(t *testing.T) {
	m := MustNew(testCfg)
	mutate := func(v *bitmat.Vec) bool {
		v.Flip(3)
		v.Flip(40)
		return true
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.UpdateRow(7, mutate); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("UpdateRow: %v allocs/op, want 0", allocs)
	}
	if !m.CheckConsistent() {
		t.Fatal("check bits stale after the allocation-free writes")
	}
}

// TestComputeCostTable pins Config.ComputeCost, the modeled MEM cost the
// replay clock and both ComputeAdmit budgets charge per compute, for
// every Table I circuit that maps into n ∈ {60, 90}, under every
// registered scheme that validates there and with ECC off ("none").
// testdata/compute_cost.txt holds one "n circuit scheme cost" line per
// configuration.
func TestComputeCostTable(t *testing.T) {
	var got strings.Builder
	for _, n := range []int{60, 90} {
		for _, bm := range circuits.All() {
			mp, err := synth.MapWith(bm.Build().LowerToNOR(), n, synth.Opts{ReuseInputs: bm.ReuseInputs})
			if err != nil {
				continue // does not fit this row
			}
			for _, scheme := range append([]string{"none"}, ecc.SchemeNames()...) {
				cfg := Config{N: n, M: 15, K: 2}
				if scheme != "none" {
					cfg.ECCEnabled, cfg.Scheme = true, scheme
				}
				if cfg.Validate() != nil {
					continue
				}
				fmt.Fprintf(&got, "%d %s %s %d\n", n, bm.Name, scheme, cfg.ComputeCost(mp))
			}
		}
	}
	want, err := os.ReadFile("testdata/compute_cost.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("ComputeCost differs from testdata/compute_cost.txt; got:\n%s", got.String())
	}
}
