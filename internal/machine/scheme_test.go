package machine

// Hamming (and parity) as full machine backends: the satellite tests of
// the scheme layer. Everything a protected machine does with the diagonal
// code — consistent write paths, scrub findings, input checks before SIMD
// execution — must hold under `Scheme: "hamming"` too, with Hamming's own
// guarantee shape: single flips corrected, same-word doubles detected,
// never miscorrected.

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitmat"
	"repro/internal/ecc"
)

// hammingMachine builds a 45×45 machine protected by the Hamming backend.
func hammingMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(Config{N: 45, M: 15, K: 2, ECCEnabled: true, Scheme: ecc.SchemeHamming})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSchemeConfigValidation: unknown scheme names are rejected with the
// registry's known-scheme list; hamming accepts geometries the diagonal
// code cannot (even block sides).
func TestSchemeConfigValidation(t *testing.T) {
	err := (Config{N: 45, M: 15, ECCEnabled: true, Scheme: "bogus"}).Validate()
	if err == nil || !strings.Contains(err.Error(), "known schemes") {
		t.Fatalf("bogus scheme error = %v", err)
	}
	if err := (Config{N: 48, M: 12, ECCEnabled: true, Scheme: ecc.SchemeHamming}).Validate(); err != nil {
		t.Fatalf("hamming rejects even block side: %v", err)
	}
	if err := (Config{N: 48, M: 12, K: 2, ECCEnabled: true}).Validate(); err == nil {
		t.Fatal("diagonal accepted an even block side")
	}
}

// TestHammingMachineVerify: the write paths (LoadRow, UpdateRow) keep the
// Hamming check bits continuously consistent — machine.CheckConsistent is
// the scheme-generic Verify.
func TestHammingMachineVerify(t *testing.T) {
	m := hammingMachine(t)
	if !m.CheckConsistent() {
		t.Fatal("fresh machine inconsistent")
	}
	rng := rand.New(rand.NewSource(1))
	row := bitmat.NewVec(45)
	for i := 0; i < 32; i++ {
		for j := 0; j < 45; j++ {
			row.Set(j, rng.Intn(2) == 0)
		}
		m.LoadRow(rng.Intn(45), row)
	}
	for i := 0; i < 16; i++ {
		m.UpdateRow(rng.Intn(45), func(v *bitmat.Vec) bool {
			v.Flip(rng.Intn(45))
			return true
		})
	}
	if !m.CheckConsistent() {
		t.Fatal("write paths desynchronized the Hamming state")
	}
	// An unannounced flip must break consistency (Verify really looks).
	m.InjectDataFault(3, 7)
	if m.CheckConsistent() {
		t.Fatal("fault invisible to CheckConsistent")
	}
}

// TestHammingScrubSingleFlipCorrected: ScrubFindings locates and repairs
// a single flipped cell, reporting the exact coordinates.
func TestHammingScrubSingleFlipCorrected(t *testing.T) {
	m := hammingMachine(t)
	rng := rand.New(rand.NewSource(2))
	row := bitmat.NewVec(45)
	for r := 0; r < 45; r++ {
		for j := 0; j < 45; j++ {
			row.Set(j, rng.Intn(2) == 0)
		}
		m.LoadRow(r, row)
	}
	want := m.MEM().Snapshot()

	m.InjectDataFault(17, 31)
	findings := m.ScrubFindings()
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly one", findings)
	}
	f := findings[0]
	if f.Diag.Kind != ecc.DataError {
		t.Fatalf("finding kind %v, want data-error", f.Diag.Kind)
	}
	if r, c := f.DataCell(15); r != 17 || c != 31 {
		t.Fatalf("repaired cell (%d,%d), want (17,31)", r, c)
	}
	if !m.MEM().Snapshot().Equal(want) {
		t.Fatal("memory not restored exactly")
	}
	if !m.CheckConsistent() {
		t.Fatal("state inconsistent after repair")
	}
	st := m.Stats()
	if st.Corrections != 1 || st.Uncorrectable != 0 {
		t.Fatalf("stats %+v, want one correction", st)
	}
}

// TestHammingScrubDoubleFlipDetected: two flips in one word are flagged
// uncorrectable and the memory is left untouched — SEC-DED's double-error
// detection through the whole machine path.
func TestHammingScrubDoubleFlipDetected(t *testing.T) {
	m := hammingMachine(t)
	want := m.MEM().Snapshot()
	m.InjectDataFault(8, 16) // word 1 of row 8
	m.InjectDataFault(8, 22) // same word
	findings := m.ScrubFindings()
	if len(findings) != 1 || findings[0].Diag.Kind != ecc.Uncorrectable {
		t.Fatalf("findings = %v, want one uncorrectable", findings)
	}
	after := m.MEM().Snapshot()
	after.Flip(8, 16)
	after.Flip(8, 22)
	if !after.Equal(want) {
		t.Fatal("uncorrectable word was mutated — miscorrection")
	}
	st := m.Stats()
	if st.Corrections != 0 || st.Uncorrectable != 1 {
		t.Fatalf("stats %+v, want one uncorrectable", st)
	}

	// Two flips in different words of one block are both repaired.
	m2 := hammingMachine(t)
	m2.InjectDataFault(0, 3)
	m2.InjectDataFault(14, 8)
	findings = m2.ScrubFindings()
	if len(findings) != 2 {
		t.Fatalf("cross-word double: findings %v", findings)
	}
	for _, f := range findings {
		if f.Diag.Kind != ecc.DataError {
			t.Fatalf("cross-word double: finding %v", f)
		}
	}
	if !m2.CheckConsistent() {
		t.Fatal("state inconsistent after cross-word repairs")
	}
}

// TestHammingSIMDExecution: SIMPLER kernels compute correctly on a
// Hamming-protected machine in both orientations, the working region is
// reconciled afterwards, and a pre-execution input fault is corrected by
// the input check.
func TestHammingSIMDExecution(t *testing.T) {
	mp := adder8(t)
	m := hammingMachine(t)
	inputs := loadRandomInputs(t, m, mp, 3)

	// A soft error in the input region is repaired before execution.
	m.InjectDataFault(5, 2)
	if err := m.ExecuteSIMD(mp, m.MEM().AllRows()); err != nil {
		t.Fatal(err)
	}
	checkAllRows(t, m, mp, inputs)
	if !m.CheckConsistent() {
		t.Fatal("state inconsistent after SIMD execution")
	}
	st := m.Stats()
	if st.InputChecks == 0 || st.Corrections == 0 {
		t.Fatalf("input check did not run or correct: %+v", st)
	}
	if st.CriticalOps == 0 {
		t.Fatal("no critical operations recorded")
	}
}

// TestHammingSIMDColsExecution: the transposed executor — inputs loaded
// per column (single-cell deltas), column-parallel gates, row-oriented
// reconciliation — stays consistent on a Hamming-protected machine.
func TestHammingSIMDColsExecution(t *testing.T) {
	mp := adder8(t)
	m := hammingMachine(t)
	rng := rand.New(rand.NewSource(8))
	inputs := make(map[int][]bool)
	for c := 0; c < 45; c++ {
		in := make([]bool, mp.Netlist.NumInputs())
		for i := range in {
			in[i] = rng.Intn(2) == 0
		}
		inputs[c] = in
	}
	m.LoadInputsCols(mp, inputs)
	if !m.CheckConsistent() {
		t.Fatal("column input loading desynchronized the scheme state")
	}
	if err := m.ExecuteSIMDCols(mp, m.MEM().AllRows()); err != nil {
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
		t.Fatal("state inconsistent after column-parallel execution")
	}
}

// TestParityMachineDetectsButNeverCorrects: the detect-only baseline
// through the machine path — findings are uncorrectable, memory is
// untouched, corrections stay zero.
func TestParityMachineDetectsButNeverCorrects(t *testing.T) {
	m, err := New(Config{N: 45, M: 15, ECCEnabled: true, Scheme: ecc.SchemeParity})
	if err != nil {
		t.Fatal(err)
	}
	m.InjectDataFault(9, 9)
	findings := m.ScrubFindings()
	if len(findings) != 1 || findings[0].Diag.Kind != ecc.Uncorrectable {
		t.Fatalf("findings = %v, want one uncorrectable", findings)
	}
	if !m.MEM().Get(9, 9) {
		t.Fatal("detect-only scheme mutated memory")
	}
	st := m.Stats()
	if st.Corrections != 0 || st.Uncorrectable != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestSchemeRebuildChecksHeals: RebuildChecks restores consistency from
// the memory image for every backend (the campaign's heal step).
func TestSchemeRebuildChecksHeals(t *testing.T) {
	for _, scheme := range []string{"", ecc.SchemeHamming, ecc.SchemeParity} {
		m, err := New(Config{N: 45, M: 15, K: 2, ECCEnabled: true, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		m.InjectDataFault(1, 1)
		m.InjectDataFault(2, 2) // different rows: visible to every scheme
		if m.CheckConsistent() {
			t.Fatalf("scheme %q: faults invisible", scheme)
		}
		m.RebuildChecks()
		if !m.CheckConsistent() {
			t.Fatalf("scheme %q: RebuildChecks did not heal", scheme)
		}
	}
}

// TestHammingECCImageSnapshot: ECCImage is a true snapshot — later writes
// do not leak into it (the campaign's pre-scrub reference state).
func TestHammingECCImageSnapshot(t *testing.T) {
	m := hammingMachine(t)
	img := m.ECCImage()
	if img == nil || img.Name() != ecc.SchemeHamming {
		t.Fatalf("ECCImage = %v", img)
	}
	pre := m.MEM().Snapshot()
	row := bitmat.NewVec(45)
	row.Fill(true)
	m.LoadRow(0, row)
	if len(img.ReferenceCheck(pre, 0, 0)) != 0 {
		t.Fatal("snapshot drifted with the live machine")
	}
}
