package campaign

// The clustered-fault story of the interleaved diagonal family, pinned as
// exact tallies: striping k independent diagonal codes across the columns
// turns a k-cell line burst into k single errors — one per sub-code — so
// the interleaved scheme corrects what the plain diagonal code can only
// detect. The DEC word code's double-correction guarantee is pinned the
// same way.

import (
	"testing"

	"repro/internal/ecc"
	"repro/internal/faults"
	"repro/internal/machine"
)

// clusterMachineCfg is a 60×60 geometry every registered scheme accepts
// (60 is divisible by the x2/x4 interleave widths).
func clusterMachineCfg(scheme string) machine.Config {
	return machine.Config{N: 60, M: 15, K: 2, ECCEnabled: true, Scheme: scheme}
}

// TestInterleavedLineClusterCorrected: a span-4 burst lands one flip in
// each of diagonal-x4's four sub-codes, so all four cells are corrected —
// along rows and along columns alike — with full bit-serial reference
// agreement. This is the acceptance scenario the interleaved family
// exists for.
func TestInterleavedLineClusterCorrected(t *testing.T) {
	bursts := []faults.Fault{
		{Kind: faults.RowLine, Row: 7, Col: 16, Span: 4},
		{Kind: faults.ColLine, Row: 16, Col: 7, Span: 4},
		{Kind: faults.RowLine, Row: 59, Col: 56, Span: 4}, // last block, edge
	}
	for _, burst := range bursts {
		r := newRunner(t, Config{
			Machine: clusterMachineCfg("diagonal-x4"), Verify: true,
			Model: fixedFaults{[]faults.Fault{burst}},
		}, 3)
		for round := 0; round < 5; round++ {
			rep := r.Round()
			if rep.Injected != 4 || rep.Counts[Corrected] != 4 {
				t.Fatalf("burst %+v round %d: %+v, want all 4 cells corrected", burst, round, rep)
			}
		}
		tl := r.Tally()
		if !tl.Conformant() || tl.RefChecks == 0 {
			t.Fatalf("burst %+v: tally not conformant: %+v", burst, tl)
		}
	}
}

// TestPlainDiagonalLineClusterDetected: the same span-4 burst overwhelms
// the plain diagonal code — four errors in one block decode to a single
// uncorrectable verdict, so every cell lands in detected-uncorrectable.
// Honest, but the head-to-head motivation for interleaving.
func TestPlainDiagonalLineClusterDetected(t *testing.T) {
	r := newRunner(t, Config{
		Machine: clusterMachineCfg(ecc.SchemeDiagonal), Verify: true,
		Model: fixedFaults{[]faults.Fault{
			{Kind: faults.RowLine, Row: 7, Col: 16, Span: 4},
		}},
	}, 3)
	for round := 0; round < 5; round++ {
		rep := r.Round()
		if rep.Injected != 4 || rep.Counts[DetectedUncorrectable] != 4 {
			t.Fatalf("round %d: %+v, want all 4 cells detected-uncorrectable", round, rep)
		}
	}
	tl := r.Tally()
	if !tl.Conformant() || tl.Counts[Corrected] != 0 {
		t.Fatalf("plain diagonal burst campaign: %+v", tl)
	}
}

// TestInterleavedX2SplitsPairs: at k=2, a span-2 burst splits into two
// corrected singles, while a span-4 burst puts two errors into each
// sub-code and is detected, never miscorrected.
func TestInterleavedX2SplitsPairs(t *testing.T) {
	r := newRunner(t, Config{
		Machine: clusterMachineCfg("diagonal-x2"), Verify: true,
		Model: fixedFaults{[]faults.Fault{{Kind: faults.RowLine, Row: 20, Col: 30, Span: 2}}},
	}, 5)
	rep := r.Round()
	if rep.Injected != 2 || rep.Counts[Corrected] != 2 {
		t.Fatalf("span-2 at k=2: %+v, want 2 corrected", rep)
	}

	r = newRunner(t, Config{
		Machine: clusterMachineCfg("diagonal-x2"), Verify: true,
		Model: fixedFaults{[]faults.Fault{{Kind: faults.RowLine, Row: 20, Col: 30, Span: 4}}},
	}, 5)
	rep = r.Round()
	if rep.Injected != 4 || rep.Counts[DetectedUncorrectable] != 4 {
		t.Fatalf("span-4 at k=2: %+v, want 4 detected-uncorrectable", rep)
	}
	if tl := r.Tally(); !tl.Conformant() {
		t.Fatalf("x2 overload campaign: %+v", tl)
	}
}

// TestDECDoubleCorrected: the DEC word code repairs any two flips in one
// word — the budget neither the diagonal family nor SEC-DED Hamming has —
// and flags triples uncorrectable without ever acting on them.
func TestDECDoubleCorrected(t *testing.T) {
	r := newRunner(t, Config{
		Machine: clusterMachineCfg(ecc.SchemeDEC), Verify: true,
		Model: fixedFaults{[]faults.Fault{
			{Kind: faults.TransientFlip, Row: 8, Col: 16, Span: 1},
			{Kind: faults.TransientFlip, Row: 8, Col: 22, Span: 1}, // same word
		}},
	}, 4)
	for round := 0; round < 5; round++ {
		rep := r.Round()
		if rep.Injected != 2 || rep.Counts[Corrected] != 2 {
			t.Fatalf("same-word double round %d: %+v, want both corrected", round, rep)
		}
	}
	if tl := r.Tally(); !tl.Conformant() || tl.RefChecks == 0 {
		t.Fatalf("dec double campaign: %+v", tl)
	}

	r = newRunner(t, Config{
		Machine: clusterMachineCfg(ecc.SchemeDEC), Verify: true,
		Model: fixedFaults{[]faults.Fault{
			{Kind: faults.TransientFlip, Row: 8, Col: 16, Span: 1},
			{Kind: faults.TransientFlip, Row: 8, Col: 22, Span: 1},
			{Kind: faults.TransientFlip, Row: 8, Col: 27, Span: 1},
		}},
	}, 4)
	for round := 0; round < 5; round++ {
		rep := r.Round()
		if rep.Injected != 3 || rep.Counts[DetectedUncorrectable] != 3 {
			t.Fatalf("triple round %d: %+v, want 3 detected-uncorrectable", round, rep)
		}
	}
	if tl := r.Tally(); !tl.Conformant() {
		t.Fatalf("dec triple campaign: %+v", tl)
	}
}

// TestNewSchemeTransientCampaignsConformant: randomized transient
// campaigns under both new families stay free of silent corruption and
// miscorrection, with the production decoders in full agreement with
// their bit-serial references.
func TestNewSchemeTransientCampaignsConformant(t *testing.T) {
	for _, scheme := range []string{"diagonal-x4", ecc.SchemeDEC} {
		r := newRunner(t, Config{
			Machine: clusterMachineCfg(scheme), Verify: true,
			Model: faults.Transient{SER: 1e-3}, Hours: 1e9,
		}, 11)
		for round := 0; round < 25; round++ {
			r.Round()
		}
		tl := r.Tally()
		if tl.Injected == 0 || tl.RefChecks == 0 {
			t.Fatalf("%s: vacuous campaign: %+v", scheme, tl)
		}
		if !tl.Conformant() {
			t.Fatalf("%s campaign regressed: %+v", scheme, tl)
		}
		if tl.Counts[Corrected] == 0 {
			t.Fatalf("%s: campaign never exercised correction: %+v", scheme, tl)
		}
	}
}
