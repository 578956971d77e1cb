package ecc

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bitmat"
)

// buildScheme instantiates a registered scheme over a memory image.
func buildScheme(t *testing.T, name string, p Params, mem *bitmat.Mat) Scheme {
	t.Helper()
	spec, err := SchemeByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(p); err != nil {
		t.Fatal(err)
	}
	return spec.New(p, mem)
}

// TestSchemeRegistry: the registry lists all six backends and unknown
// names fail with the known-scheme list in the message.
func TestSchemeRegistry(t *testing.T) {
	want := []string{"dec", "diagonal", "diagonal-x2", "diagonal-x4", "hamming", "parity"}
	got := SchemeNames()
	if len(got) != len(want) {
		t.Fatalf("SchemeNames() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SchemeNames() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		spec, err := SchemeByName(name)
		if err != nil || spec.Name != name {
			t.Fatalf("SchemeByName(%q) = %+v, %v", name, spec, err)
		}
	}
	_, err := SchemeByName("sec-ded-deluxe")
	if err == nil {
		t.Fatal("unknown scheme did not error")
	}
	for _, name := range want {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list scheme %q", err, name)
		}
	}

	// Unregistered interleave widths synthesize a spec on the fly…
	spec, err := SchemeByName("diagonal-x3")
	if err != nil || spec.Name != "diagonal-x3" || spec.Corrects != 1 {
		t.Fatalf("SchemeByName(diagonal-x3) = %+v, %v", spec, err)
	}
	// …but malformed widths do not.
	for _, bad := range []string{"diagonal-x", "diagonal-x1", "diagonal-x0", "diagonal-xk"} {
		if _, err := SchemeByName(bad); err == nil {
			t.Fatalf("malformed interleave name %q accepted", bad)
		}
	}

	// Every registered spec declares its correction/detection budget.
	budgets := map[string][2]int{
		"dec": {2, 3}, "diagonal": {1, 2}, "diagonal-x2": {1, 2},
		"diagonal-x4": {1, 2}, "hamming": {1, 2}, "parity": {0, 1},
	}
	for name, b := range budgets {
		spec, err := SchemeByName(name)
		if err != nil || spec.Corrects != b[0] || spec.Detects != b[1] {
			t.Fatalf("%s budget = (%d,%d), %v; want (%d,%d)",
				name, spec.Corrects, spec.Detects, err, b[0], b[1])
		}
	}
}

// TestParseSchemeFlag: the CLI flag takes a registered name or "none";
// the retired boolean and on/off spellings are errors.
func TestParseSchemeFlag(t *testing.T) {
	cases := []struct {
		in      string
		name    string
		enabled bool
		wantErr bool
	}{
		{"", "", false, true},
		{"true", "", false, true},
		{"t", "", false, true},
		{"1", "", false, true},
		{"TRUE", "", false, true},
		{"diagonal", SchemeDiagonal, true, false},
		{"hamming", SchemeHamming, true, false},
		{"parity", SchemeParity, true, false},
		{"dec", SchemeDEC, true, false},
		{"diagonal-x4", "diagonal-x4", true, false},
		{"diagonal-x8", "diagonal-x8", true, false},
		{"diagonal-x1", "", false, true},
		{"false", "", false, true},
		{"f", "", false, true},
		{"0", "", false, true},
		{"FALSE", "", false, true},
		{"none", "", false, false},
		{"off", "", false, true},
		{"on", "", false, true},
		{"bogus", "", false, true},
	}
	for _, c := range cases {
		name, enabled, err := ParseSchemeFlag(c.in)
		if (err != nil) != c.wantErr || name != c.name || enabled != c.enabled {
			t.Errorf("ParseSchemeFlag(%q) = (%q, %v, %v), want (%q, %v, err=%v)",
				c.in, name, enabled, err, c.name, c.enabled, c.wantErr)
		}
	}
}

// TestSchemeOverheadOrdering: the storage-overhead comparison of the E10
// table — parity is the cheapest, the diagonal code undercuts horizontal
// Hamming SEC-DED (the paper's headline overhead claim), interleaving is
// storage-free (the same check bits, re-striped), DEC pays for its
// double-correction, and the concrete counts match the closed forms.
func TestSchemeOverheadOrdering(t *testing.T) {
	p := Params{N: 60, M: 15}
	overhead := map[string]int{}
	for _, name := range SchemeNames() {
		overhead[name] = buildScheme(t, name, p, nil).OverheadBits()
	}
	if overhead["diagonal"] != p.TotalCheckBits() {
		t.Fatalf("diagonal overhead %d, want %d", overhead["diagonal"], p.TotalCheckBits())
	}
	// Interleaving re-stripes the same per-unit bits: storage is identical.
	for _, name := range []string{"diagonal-x2", "diagonal-x4"} {
		if overhead[name] != overhead["diagonal"] {
			t.Fatalf("%s overhead %d, want diagonal's %d", name, overhead[name], overhead["diagonal"])
		}
	}
	// Hamming: 5 SEC bits + 1 overall parity per 15-bit word.
	if want := 60 * 4 * 6; overhead["hamming"] != want {
		t.Fatalf("hamming overhead %d, want %d", overhead["hamming"], want)
	}
	// DEC: 10 BCH bits + 1 overall parity per 15-bit word.
	if want := 60 * 4 * 11; overhead["dec"] != want {
		t.Fatalf("dec overhead %d, want %d", overhead["dec"], want)
	}
	if want := 60 * 4; overhead["parity"] != want {
		t.Fatalf("parity overhead %d, want %d", overhead["parity"], want)
	}
	if !(overhead["parity"] < overhead["diagonal"] &&
		overhead["diagonal"] < overhead["hamming"] &&
		overhead["hamming"] < overhead["dec"]) {
		t.Fatalf("overhead ordering violated: %v", overhead)
	}
}

// TestSchemeLineUpdateReads: the update-cost hook captures the asymmetry
// the diagonal placement was invented for — delta codes pay Θ(1) per
// written cell while Hamming re-encodes every crossed word.
func TestSchemeLineUpdateReads(t *testing.T) {
	p := Params{N: 60, M: 15}
	want := map[string]int{
		"diagonal":    2 * 60, // Θ(1) per written cell: old/new copy only
		"diagonal-x2": 2 * 60, // striping preserves the delta property
		"diagonal-x4": 2 * 60,
		"parity":      2 * 60,
		"hamming":     60 * 15, // re-encode every crossed word
		"dec":         60 * 15,
	}
	for name, w := range want {
		if got := buildScheme(t, name, p, nil).LineUpdateReads(60); got != w {
			t.Fatalf("%s LineUpdateReads(60) = %d, want %d", name, got, w)
		}
	}
}

// TestSchemeSingleErrorRoundTrip: for every correcting scheme, a single
// flipped data bit anywhere is located and repaired exactly, leaving the
// state consistent; for parity it is detected.
func TestSchemeSingleErrorRoundTrip(t *testing.T) {
	p := Params{N: 60, M: 15}
	for _, name := range SchemeNames() {
		mem := randomMemory(7, p)
		s := buildScheme(t, name, p, mem)
		want := mem.Clone()
		rng := rand.New(rand.NewSource(11))
		for trial := 0; trial < 50; trial++ {
			r, c := rng.Intn(p.N), rng.Intn(p.N)
			mem.Flip(r, c)
			// The covering unit's findings live under its *home* block —
			// the cell's own block for column-local schemes, the sub-code's
			// home for interleaved stripes.
			br, bc, _ := s.UnitOf(r, c)
			ds := s.CorrectBlock(mem, br, bc)
			if len(ds) != 1 {
				t.Fatalf("%s: %d diagnoses for one flip", name, len(ds))
			}
			if name == SchemeParity {
				if ds[0].Kind != Uncorrectable {
					t.Fatalf("parity: diagnosis %v, want detect-only uncorrectable", ds[0].Kind)
				}
				mem.Flip(r, c) // parity never repairs; undo by hand
			} else {
				if ds[0].Kind != DataError || br*p.M+ds[0].LR != r || bc*p.M+ds[0].LC != c {
					t.Fatalf("%s: diagnosis %+v for flip at (%d,%d)", name, ds[0], r, c)
				}
				if !mem.Equal(want) {
					t.Fatalf("%s: flip at (%d,%d) not repaired exactly", name, r, c)
				}
			}
			if ds := s.CheckBlock(mem, br, bc); len(ds) != 0 {
				t.Fatalf("%s: block still dirty after repair: %v", name, ds)
			}
		}
		if !s.Equal(buildScheme(t, name, p, mem)) {
			t.Fatalf("%s: state inconsistent with rebuild after repairs", name)
		}
	}
}

// TestHammingDoubleFlipDetected: two flips in one word are flagged
// uncorrectable and the word is left untouched (DED, never miscorrected);
// two flips in different words of a block are both corrected.
func TestHammingDoubleFlipDetected(t *testing.T) {
	p := Params{N: 45, M: 15}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		mem := randomMemory(int64(trial), p)
		s := buildScheme(t, SchemeHamming, p, mem)
		want := mem.Clone()
		r := rng.Intn(p.N)
		bc := rng.Intn(p.N / p.M)
		c1 := bc*p.M + rng.Intn(p.M)
		c2 := bc*p.M + rng.Intn(p.M)
		for c2 == c1 {
			c2 = bc*p.M + rng.Intn(p.M)
		}
		mem.Flip(r, c1)
		mem.Flip(r, c2)
		ds := s.CorrectBlock(mem, r/p.M, bc)
		if len(ds) != 1 || ds[0].Kind != Uncorrectable {
			t.Fatalf("same-word double: diagnoses %v, want one uncorrectable", ds)
		}
		check := mem.Clone()
		check.Flip(r, c1)
		check.Flip(r, c2)
		if !check.Equal(want) {
			t.Fatal("uncorrectable word was mutated — miscorrection")
		}
	}

	// Cross-word double inside one block: two independent singles.
	mem := randomMemory(42, p)
	s := buildScheme(t, SchemeHamming, p, mem)
	want := mem.Clone()
	mem.Flip(0, 3)  // word 0 of row 0
	mem.Flip(14, 8) // word 0 of row 14 — same block (0,0), different word
	ds := s.CorrectBlock(mem, 0, 0)
	if len(ds) != 2 || ds[0].Kind != DataError || ds[1].Kind != DataError {
		t.Fatalf("cross-word double: diagnoses %v, want two data errors", ds)
	}
	if !mem.Equal(want) {
		t.Fatal("cross-word double not fully repaired")
	}
}

// TestHammingCheckBitErrors: flips in the stored SEC check bits and the
// overall parity bit are located, classified CheckError, and repaired.
func TestHammingCheckBitErrors(t *testing.T) {
	p := Params{N: 45, M: 15}
	mem := randomMemory(9, p)
	h := buildScheme(t, SchemeHamming, p, mem).(*wordScheme)
	clean := h.Clone()

	// SEC check bit 2 of word 1 in row 20.
	h.check[20*h.words+1] ^= 1 << 2
	ds := h.CorrectBlock(mem, 20/p.M, 1)
	if len(ds) != 1 || ds[0].Kind != CheckError {
		t.Fatalf("check-bit flip: diagnoses %v", ds)
	}
	if !h.Equal(clean) {
		t.Fatal("check-bit flip not repaired")
	}

	// Overall parity bit (the last check bit) of word 2 in row 5.
	h.check[5*h.words+2] ^= 1 << uint(h.code.checks-1)
	ds = h.CorrectBlock(mem, 5/p.M, 2)
	if len(ds) != 1 || ds[0].Kind != CheckError {
		t.Fatalf("parity-bit flip: diagnoses %v", ds)
	}
	if !h.Equal(clean) {
		t.Fatal("parity-bit flip not repaired")
	}
}

// TestSchemeDeltaUpdatesMatchRebuild: for every scheme, a random sequence
// of single-cell, row-parallel and column-parallel delta updates leaves
// the state identical to a from-scratch rebuild — the continuous-parity
// contract the machine's write paths rely on.
func TestSchemeDeltaUpdatesMatchRebuild(t *testing.T) {
	p := Params{N: 60, M: 15}
	for _, name := range SchemeNames() {
		mem := randomMemory(5, p)
		s := buildScheme(t, name, p, mem)
		rng := rand.New(rand.NewSource(13))
		for step := 0; step < 200; step++ {
			switch rng.Intn(3) {
			case 0: // single cell
				r, c := rng.Intn(p.N), rng.Intn(p.N)
				old := mem.Get(r, c)
				v := rng.Intn(2) == 0
				s.UpdateWrite(r, c, old, v)
				mem.Set(r, c, v)
			case 1: // row-parallel write of a random column mask
				r := rng.Intn(p.N)
				old := mem.Row(r).Clone()
				cur := old.Clone()
				cols := bitmat.NewVec(p.N)
				for i := 0; i < p.N; i++ {
					if rng.Intn(4) == 0 {
						cols.Set(i, true)
						cur.Set(i, rng.Intn(2) == 0)
					}
				}
				s.UpdateRowWrite(r, old, cur, cols)
				mem.SetRow(r, cur)
			default: // column-parallel write of a random row mask
				c := rng.Intn(p.N)
				old := mem.Col(c)
				cur := old.Clone()
				rows := bitmat.NewVec(p.N)
				for i := 0; i < p.N; i++ {
					if rng.Intn(4) == 0 {
						rows.Set(i, true)
						cur.Set(i, rng.Intn(2) == 0)
					}
				}
				s.UpdateColumnWrite(c, old, cur, rows)
				mem.SetCol(c, cur)
			}
		}
		if !s.Equal(buildScheme(t, name, p, mem)) {
			t.Fatalf("%s: delta updates diverged from rebuild", name)
		}
		for br := 0; br < p.BlocksPerSide(); br++ {
			for bc := 0; bc < p.BlocksPerSide(); bc++ {
				if ds := s.CheckBlock(mem, br, bc); len(ds) != 0 {
					t.Fatalf("%s: clean state flags block (%d,%d): %v", name, br, bc, ds)
				}
			}
		}
	}
}

// TestSchemeCloneIndependence: Clone is a deep copy — mutating the
// original never leaks into the clone.
func TestSchemeCloneIndependence(t *testing.T) {
	p := Params{N: 60, M: 15}
	for _, name := range SchemeNames() {
		mem := randomMemory(21, p)
		s := buildScheme(t, name, p, mem)
		snap := s.Clone()
		if !snap.Equal(s) {
			t.Fatalf("%s: clone not equal", name)
		}
		s.UpdateWrite(7, 7, mem.Get(7, 7), !mem.Get(7, 7))
		if snap.Equal(s) {
			t.Fatalf("%s: clone shares state with original", name)
		}
	}
}

// TestSchemeReferenceCheckAgrees: on random corrupted states, the
// bit-serial reference decoder and the production CheckBlock path agree
// on every block — the invariant the campaign's cross-check enforces.
func TestSchemeReferenceCheckAgrees(t *testing.T) {
	// m=63 puts a diagonal block across bit 64 of each row and an
	// interleaved unit's stripe across two 64-bit windows.
	for _, p := range []Params{{N: 60, M: 15}, {N: 252, M: 63}} {
		testSchemeReferenceCheckAgrees(t, p)
	}
}

func testSchemeReferenceCheckAgrees(t *testing.T, p Params) {
	for _, name := range SchemeNames() {
		if spec, _ := SchemeByName(name); spec.Validate(p) != nil {
			continue
		}
		rng := rand.New(rand.NewSource(31))
		for trial := 0; trial < 30; trial++ {
			mem := randomMemory(int64(trial), p)
			s := buildScheme(t, name, p, mem)
			for f := 0; f < rng.Intn(6); f++ {
				mem.Flip(rng.Intn(p.N), rng.Intn(p.N))
			}
			for br := 0; br < p.BlocksPerSide(); br++ {
				for bc := 0; bc < p.BlocksPerSide(); bc++ {
					got := s.CheckBlock(mem, br, bc)
					want := s.ReferenceCheck(mem, br, bc)
					if len(got) != len(want) {
						t.Fatalf("%s %v block (%d,%d): production %v, reference %v", name, p, br, bc, got, want)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s %v block (%d,%d): production %v, reference %v", name, p, br, bc, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSchemeRebuildBlock: corrupt one block's data underneath the scheme;
// the home blocks of the affected units flag the damage, and rebuilding
// exactly those home blocks restores consistency without touching the
// rest. (For column-local schemes the home block is block (1,2) itself;
// interleaved stripes spread the flips over several homes in the group.)
func TestSchemeRebuildBlock(t *testing.T) {
	p := Params{N: 60, M: 15}
	for _, name := range SchemeNames() {
		mem := randomMemory(17, p)
		s := buildScheme(t, name, p, mem)
		// Desynchronize block (1,2) by mutating data underneath the scheme.
		homes := make(map[[2]int]bool)
		for i := 0; i < 5; i++ {
			r, c := 1*p.M+i, 2*p.M+(i*3)%p.M
			mem.Flip(r, c)
			ubr, ubc, _ := s.UnitOf(r, c)
			homes[[2]int{ubr, ubc}] = true
		}
		flagged := 0
		for h := range homes {
			flagged += len(s.CheckBlock(mem, h[0], h[1]))
		}
		if flagged == 0 {
			t.Fatalf("%s: five flips went unnoticed", name)
		}
		for h := range homes {
			s.RebuildBlock(mem, h[0], h[1])
		}
		if !s.Equal(buildScheme(t, name, p, mem)) {
			t.Fatalf("%s: RebuildBlock did not restore consistency", name)
		}
	}
}
