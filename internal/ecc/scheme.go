package ecc

// This file is the scheme layer: the protection code becomes a pluggable
// backend instead of a hard-wired diagonal implementation. A Scheme is one
// code instance bound to an N×N crossbar geometry — it owns the stored
// check-bit state and exposes exactly the operations the rest of the stack
// (machine, pmem, campaign, serve, fleet) needs:
//
//   - continuous delta updates matching the substrate's write shapes
//     (single cell, row-parallel, column-parallel), the paper's
//     "cancel the old effect, add the new effect" protocol;
//   - per-block check / correct over the shared M×M block grid, reporting
//     Diagnosis values the scrub and the fault-campaign adjudicator
//     consume generically;
//   - a bit-serial ReferenceCheck used adversarially against the
//     production path (the campaign's conformance cross-check);
//   - overhead and update-cost hooks, so the paper's comparison —
//     diagonal lead/counter block code vs. conventional horizontal
//     Hamming SEC-DED vs. bare parity — runs head-to-head through one
//     pipeline instead of in isolated unit benchmarks.
//
// Registered backends (SchemeByName, mirroring faults.ModelByName):
//
//   - "diagonal": the paper's code, adapting the word-parallel CheckBits.
//     It is the production path of the diagonal code; the gate-level CMEM
//     (internal/cmem) computes the same math cycle by cycle and is pinned
//     to this adapter by a differential test.
//   - "hamming", "parity", "dec": horizontal word codes — Hamming
//     SEC-DED, one detect-only parity bit, and a double-correcting BCH
//     code per M-bit word — all run by the one linear word backend of
//     word.go, each supplying only its parity-check columns.
//   - "diagonal-x<K>": K diagonal codes interleaved across the columns
//     (interleaved.go).

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/bitmat"
)

// Registered scheme names.
const (
	SchemeDiagonal = "diagonal"
	SchemeHamming  = "hamming"
	SchemeParity   = "parity"
	SchemeDEC      = "dec"
)

// interleavedPrefix is the name family of the striped diagonal codes:
// "diagonal-x<K>" runs K independent diagonal codes interleaved across
// the crossbar columns.
const interleavedPrefix = "diagonal-x"

// Scheme is one protection-code instance bound to an N×N crossbar divided
// into M×M blocks (Params). Implementations are not safe for concurrent
// use; each protected crossbar owns its own instance.
type Scheme interface {
	// Name returns the registered scheme name.
	Name() string
	// Params returns the geometry the state is built for.
	Params() Params
	// Clone deep-copies the check-bit state.
	Clone() Scheme
	// Equal reports whether o is the same scheme with identical state.
	Equal(o Scheme) bool

	// UpdateWrite is the single-cell delta update: data cell (r,c)
	// transitioned oldVal→newVal through the protected write path.
	UpdateWrite(r, c int, oldVal, newVal bool)
	// UpdateRowWrite updates check bits after row r was written in every
	// column selected by cols, with the given old and new row contents.
	UpdateRowWrite(r int, oldRow, newRow, cols *bitmat.Vec)
	// UpdateColumnWrite is the column dual: column c was written in every
	// row selected by rows.
	UpdateColumnWrite(c int, oldCol, newCol, rows *bitmat.Vec)

	// CheckBlock diagnoses block (br,bc) against mem without repairing,
	// returning the non-clean diagnoses in a deterministic order (empty =
	// clean). Schemes with sub-block structure (Hamming words) may return
	// several diagnoses for one block.
	CheckBlock(mem *bitmat.Mat, br, bc int) []Diagnosis
	// CorrectBlock checks block (br,bc) and repairs every single error it
	// can, in place (data cells in mem, check bits in the scheme state).
	// It returns the diagnoses acted on, in the same order as CheckBlock.
	CorrectBlock(mem *bitmat.Mat, br, bc int) []Diagnosis
	// CorrectLine is CorrectBlock over block row idx (blockRow) or block
	// column idx, the unit of the scrub and the input checks. It appends
	// each diagnosis to out as a Finding, in block order.
	CorrectLine(mem *bitmat.Mat, blockRow bool, idx int, out []Finding) []Finding
	// RebuildBlock re-establishes the check bits of block (br,bc) from the
	// memory image — the controller maintenance path used after unprotected
	// scratch regions are reclaimed.
	RebuildBlock(mem *bitmat.Mat, br, bc int)
	// RebuildRowWords re-establishes, from the memory image, the check
	// bits of every code unit that lies entirely within data row r of
	// block column bc, and reports whether the scheme has such units.
	// Word-based codes re-encode the one crossed word; the diagonal code's
	// unit is the whole block, which no single row spans, so it does
	// nothing and returns false. This is the narrowest sound maintenance
	// action after a row's data has been independently verified: it can
	// never absorb an error in a row it did not touch.
	RebuildRowWords(mem *bitmat.Mat, r, bc int) bool
	// ReferenceCheck recomputes the diagnoses of block (br,bc) bit-serially
	// from first principles — obviously correct, allowed to be slow, and
	// implemented independently of the production check path so the
	// campaign's conformance cross-check can adversarially verify it.
	ReferenceCheck(mem *bitmat.Mat, br, bc int) []Diagnosis
	// CoversCell reports whether diagnosis d pertains to the code unit
	// containing local block cell (lr,lc) — the join the fault-campaign
	// adjudicator uses to match findings to fault cells. The diagonal
	// code's unit is the whole block (always true); word schemes cover
	// only their own word row.
	CoversCell(d Diagnosis, lr, lc int) bool
	// UnitOf maps global data cell (r,c) to the home block (ubr,ubc)
	// under which the covering code unit's diagnoses are reported, plus
	// the sub-unit index within that block (the word row for word-based
	// codes, 0 for whole-block codes). For every existing scheme the home
	// block is the cell's own physical block; the interleaved diagonal
	// codes report a striped unit under one home block of its column
	// group, so consumers joining findings to cells must go through this
	// hook rather than dividing by M.
	UnitOf(r, c int) (ubr, ubc, sub int)
	// HomeColumns returns the smallest home block-column range
	// [first,last] such that checking (or rebuilding) the units homed
	// there covers every cell of physical block-columns [firstBC,lastBC].
	// Identity for column-local schemes; the interleaved codes widen to
	// the enclosing column-group boundary.
	HomeColumns(firstBC, lastBC int) (first, last int)

	// OverheadBits returns the total check-bit storage the scheme needs
	// for its geometry.
	OverheadBits() int
	// LineUpdateReads is the update-cost hook: the number of stored
	// data-bit reads needed to bring check bits current after a single
	// line-parallel MAGIC operation crossing `lines` lines. The diagonal
	// placement guarantees Θ(1) changed bits per check bit, so it pays
	// only the old/new copy of the written cells (2·lines); a horizontal
	// Hamming word must be re-encoded from all M data bits of every
	// crossed word (M·lines) — the asymmetry the code was invented for.
	LineUpdateReads(lines int) int
}

// SchemeSpec describes one registered scheme: geometry validation, a
// state factory, and the code's declared error budget. New builds the
// check-bit state for memory image mem; a nil mem means an all-zero
// crossbar. Corrects/Detects are per code unit between scrubs: the
// scheme guarantees correction of any ≤Corrects-bit error and detection
// (never miscorrection) of any ≤Detects-bit error — the contract the
// registry-generic fuzz harness and the comparison matrix consume.
type SchemeSpec struct {
	Name     string
	Validate func(p Params) error
	New      func(p Params, mem *bitmat.Mat) Scheme
	Corrects int
	Detects  int
}

// schemes is the registry. Keyed by name; listed sorted for stable errors.
var schemes = map[string]SchemeSpec{
	SchemeDiagonal: {
		Name:     SchemeDiagonal,
		Validate: validateDiagonalGeometry,
		New:      newDiagonalScheme,
		Corrects: 1, Detects: 2,
	},
	SchemeHamming: wordSpec(SchemeHamming, 1, 2,
		func(p Params) error { return validateWords(p, 2, 64, "") }, hammingCode),
	SchemeParity: wordSpec(SchemeParity, 0, 1,
		func(p Params) error { return validateWords(p, 1, 0, "") }, parityCode),
	SchemeDEC: wordSpec(SchemeDEC, 2, 3,
		func(p Params) error { return validateWords(p, 2, 21, " for shortened BCH(31,21)") }, decCode),
	interleavedPrefix + "2": interleavedSpec(2),
	interleavedPrefix + "4": interleavedSpec(4),
}

// interleavedSpec builds the registry entry for a k-way interleaved
// diagonal code. The concretely registered widths (x2, x4) appear in
// SchemeNames; SchemeByName additionally synthesizes any other
// "diagonal-x<K>" on demand.
func interleavedSpec(k int) SchemeSpec {
	return SchemeSpec{
		Name:     fmt.Sprintf("%s%d", interleavedPrefix, k),
		Validate: func(p Params) error { return validateInterleavedGeometry(p, k) },
		New: func(p Params, mem *bitmat.Mat) Scheme {
			return newInterleavedScheme(p, mem, k)
		},
		Corrects: 1, Detects: 2,
	}
}

// SchemeNames lists the registered schemes, sorted, for CLI usage text.
func SchemeNames() []string {
	names := make([]string, 0, len(schemes))
	for n := range schemes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// SchemeByName resolves a registered scheme. Beyond the registry map,
// any "diagonal-x<K>" with K ≥ 2 resolves to a synthesized k-way
// interleaved spec, so unusual interleave widths need no registration.
// Unknown names list what is available, so a CLI typo tells the user
// their options.
func SchemeByName(name string) (SchemeSpec, error) {
	if s, ok := schemes[name]; ok {
		return s, nil
	}
	if k, ok := parseInterleavedName(name); ok {
		return interleavedSpec(k), nil
	}
	return SchemeSpec{}, fmt.Errorf("ecc: unknown scheme %q (known schemes: %v)", name, SchemeNames())
}

// IsDiagonalFamily reports whether name is the diagonal code or one of
// its interleaved variants — the schemes whose checks are computed by the
// in-array CMEM pipelines rather than a controller-side word decoder.
func IsDiagonalFamily(name string) bool {
	if name == SchemeDiagonal {
		return true
	}
	_, ok := parseInterleavedName(name)
	return ok
}

// parseInterleavedName extracts K from "diagonal-x<K>", K ≥ 2.
func parseInterleavedName(name string) (k int, ok bool) {
	if len(name) <= len(interleavedPrefix) || name[:len(interleavedPrefix)] != interleavedPrefix {
		return 0, false
	}
	k, err := strconv.Atoi(name[len(interleavedPrefix):])
	if err != nil || k < 2 {
		return 0, false
	}
	return k, true
}

// ParseSchemeFlag resolves a CLI -ecc flag value into (scheme, enabled):
// a registered scheme name, or "none" for the unprotected baseline.
func ParseSchemeFlag(v string) (name string, enabled bool, err error) {
	if v == "none" {
		return "", false, nil
	}
	if _, err := SchemeByName(v); err != nil {
		return "", false, err
	}
	return v, true, nil
}

// correctLineByBlock is CorrectLine as one CorrectBlock per block.
func correctLineByBlock(s Scheme, mem *bitmat.Mat, blockRow bool, idx int, out []Finding) []Finding {
	for b := 0; b < s.Params().BlocksPerSide(); b++ {
		br, bc := idx, b
		if !blockRow {
			br, bc = b, idx
		}
		for _, d := range s.CorrectBlock(mem, br, bc) {
			out = append(out, Finding{BR: br, BC: bc, Diag: d})
		}
	}
	return out
}

// --- diagonal adapter --------------------------------------------------------

// diagonalScheme adapts the word-parallel CheckBits to the Scheme
// interface. It is a thin wrapper: the delta updates are CheckBits' own,
// and every other operation delegates straight to its syndrome paths, so
// driving the diagonal code through the interface is bit-for-bit the
// legacy behavior (FuzzSchemeEquivalence pins this).
type diagonalScheme struct {
	*CheckBits
}

// newDiagonalScheme implements SchemeSpec.New for the diagonal code.
func newDiagonalScheme(p Params, mem *bitmat.Mat) Scheme {
	if mem == nil {
		return &diagonalScheme{NewCheckBits(p)}
	}
	return &diagonalScheme{Build(p, mem)}
}

// DiagonalCheckBits returns the live check-bit state of a diagonal-scheme
// instance (mutations are visible to the scheme), or nil for any other
// code. Family/diagonal addressing is specific to this code, so check-bit
// fault injection and the gate-level CMEM model reach the state here.
func DiagonalCheckBits(s Scheme) *CheckBits {
	if d, ok := s.(*diagonalScheme); ok {
		return d.CheckBits
	}
	return nil
}

func (s *diagonalScheme) Name() string { return SchemeDiagonal }

func (s *diagonalScheme) Clone() Scheme { return &diagonalScheme{s.CheckBits.Clone()} }

func (s *diagonalScheme) Equal(o Scheme) bool {
	od, ok := o.(*diagonalScheme)
	return ok && s.CheckBits.Equal(od.CheckBits)
}

func (s *diagonalScheme) CheckBlock(mem *bitmat.Mat, br, bc int) []Diagnosis {
	if d := s.CheckBits.CheckBlock(mem, br, bc); d.Kind != NoError {
		return []Diagnosis{d}
	}
	return nil
}

func (s *diagonalScheme) CorrectBlock(mem *bitmat.Mat, br, bc int) []Diagnosis {
	if d := s.CheckBits.CorrectBlock(mem, br, bc); d.Kind != NoError {
		return []Diagnosis{d}
	}
	return nil
}

// CorrectLine folds a block row line-parallel (CheckBits.CheckBlockRow)
// and checks a block column block by block.
func (s *diagonalScheme) CorrectLine(mem *bitmat.Mat, blockRow bool, idx int, out []Finding) []Finding {
	if blockRow {
		return s.CheckBlockRow(mem, idx, out)
	}
	return correctLineByBlock(s, mem, false, idx, out)
}

// RebuildRowWords: the diagonal code unit is the whole block — no unit
// fits inside one row, so there is nothing row-scoped to re-encode.
func (s *diagonalScheme) RebuildRowWords(*bitmat.Mat, int, int) bool { return false }

func (s *diagonalScheme) RebuildBlock(mem *bitmat.Mat, br, bc int) {
	s.rebuildBlock(mem, br, bc)
}

// ReferenceCheck walks the block one cell at a time straight from the
// code's definition — cell (lr,lc) belongs to leading diagonal (lr+lc)
// mod m and counter diagonal (lr−lc) mod m — so any divergence from the
// word-parallel production path pins a bug in the pipeline, not in the
// mathematics. (Moved here from the campaign's diagonal-only ref.go.)
func (s *diagonalScheme) ReferenceCheck(mem *bitmat.Mat, br, bc int) []Diagnosis {
	p := s.p
	lead := bitmat.NewVec(p.M)
	counter := bitmat.NewVec(p.M)
	for d := 0; d < p.M; d++ {
		lead.Set(d, s.Lead(d, br, bc))
		counter.Set(d, s.Counter(d, br, bc))
	}
	for lr := 0; lr < p.M; lr++ {
		for lc := 0; lc < p.M; lc++ {
			if mem.Get(br*p.M+lr, bc*p.M+lc) {
				lead.Flip(p.LeadIdx(lr, lc))
				counter.Flip(p.CounterIdx(lr, lc))
			}
		}
	}
	if d := Decode(p, lead.Uint64(), counter.Uint64()); d.Kind != NoError {
		return []Diagnosis{d}
	}
	return nil
}

// CoversCell: the diagonal code's unit is the whole block — every
// diagnosis of a block pertains to every cell of it.
func (s *diagonalScheme) CoversCell(Diagnosis, int, int) bool { return true }

// UnitOf: the code unit is the cell's own block.
func (s *diagonalScheme) UnitOf(r, c int) (ubr, ubc, sub int) {
	return r / s.p.M, c / s.p.M, 0
}

// HomeColumns: block-column-local — the covering units are home.
func (s *diagonalScheme) HomeColumns(firstBC, lastBC int) (int, int) { return firstBC, lastBC }

func (s *diagonalScheme) OverheadBits() int { return s.p.TotalCheckBits() }

func (s *diagonalScheme) LineUpdateReads(lines int) int { return 2 * lines }
