// Package campaign is the fault-campaign conformance engine: it proves the
// paper's ECC guarantee — every single error per block between scrubs is
// corrected, every double is detected, and nothing is ever silently
// miscorrected — end-to-end, by injecting faults from an adversarial model
// (internal/faults), running the full protected machine (MEM, check bits
// and controller), and adjudicating every injected fault against a
// golden fault-free reference machine driven by the identical workload.
//
// Each adjudicated fault lands in exactly one outcome bucket:
//
//   - Corrected: the scrub diagnosed a data error at exactly the faulty
//     cell and repaired it — the paper's headline guarantee.
//   - DetectedUncorrectable: the block was flagged uncorrectable and left
//     untouched — the honest failure mode for multi-error blocks.
//   - Masked: the fault had no lasting effect (double hit on one cell, a
//     stuck value matching the data, overlapping line events).
//   - SilentCorruption: the faulty cell differs from golden after the
//     scrub and nothing was flagged — the outcome the mechanism must
//     never produce within its single-error-per-block envelope.
//   - Miscorrected: the scrub acted on the wrong cell or a check bit
//     while the injected error persisted.
//
// The taxonomy earns its keep: transient campaigns within the single-
// error-per-block envelope are fully conformant, but stuck-at defects can
// defeat the continuous delta-update protocol — a host write of the
// non-stuck value reads the stuck cell as "old", XORs a phantom delta into
// the check bits, and leaves them consistent with the defect instead of
// the data (see TestStuckWriteLaunderingEscapesECC). Pure per-block parity
// cannot see this; real controllers pair delta ECC with write-verify and
// sparing for exactly this reason.
//
// Verdicts are additionally cross-checked against each scheme's bit-serial
// reference decoder (ecc.Scheme.ReferenceCheck) over the pre-scrub state —
// tying the production check path (each scheme's word-parallel check and
// correct) back to the mathematical code, in the same spirit as
// bitmat/ref.go and the xbar bit-serial reference model.
//
// The engine is scheme-generic: the machine configuration names any
// registered protection code (ecc.SchemeByName), and adjudication works
// off per-block finding *lists*, since codes with sub-block structure
// (horizontal Hamming words) can repair several independent errors in one
// block where the diagonal code reports at most one diagnosis.
package campaign

import (
	"fmt"
	"math/rand"

	"repro/internal/bitmat"
	"repro/internal/ecc"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/repair"
	"repro/internal/synth"
)

// Outcome classifies what happened to one injected fault.
type Outcome int

const (
	Corrected Outcome = iota
	DetectedUncorrectable
	Masked
	SilentCorruption
	Miscorrected
	// Repaired is the self-healing outcome: the faulty cell was remapped
	// onto a spare this round (write-verify or scrub-triggered
	// retirement) and its data matches golden — the defect is out of the
	// data path for good. Only produced with a repair policy active.
	Repaired

	// NumOutcomes is the number of outcome buckets (for histogram sizing).
	NumOutcomes int = iota
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Corrected:
		return "corrected"
	case DetectedUncorrectable:
		return "detected-uncorrectable"
	case Masked:
		return "masked"
	case SilentCorruption:
		return "silent-corruption"
	case Miscorrected:
		return "miscorrected"
	case Repaired:
		return "repaired"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// OutcomeNames lists the outcome buckets in enum order.
func OutcomeNames() []string {
	names := make([]string, NumOutcomes)
	for o := 0; o < NumOutcomes; o++ {
		names[o] = Outcome(o).String()
	}
	return names
}

// Tally is the mergeable result of campaign rounds. Every field is a pure
// function of (configuration, model, seed), so fleet shards can tally
// locally and merge in any order.
type Tally struct {
	Rounds   int64
	Injected int64 // adjudicated fault cells

	Counts [NumOutcomes]int64     // per-outcome fault counts
	ByKind [faults.NumKinds]int64 // injected fault cells per fault kind

	// Positions are per-outcome histograms over the in-block codeword
	// position lr·M+lc of each adjudicated data cell — the codeword-
	// spectrum view: *where* in the m×m block faults land and how each
	// position fares. Nil until the first ECC-protected adjudication; M=0
	// means no position data (baseline campaigns).
	M         int
	Positions [NumOutcomes][]int64

	// RefChecks counts bit-serial reference cross-checks performed;
	// RefMismatches counts disagreements between the machine's diagnosis
	// and the reference decoder. Conformance demands it stays zero.
	RefChecks     int64
	RefMismatches int64

	// Repair-layer activity (all zero with the repair policy off):
	// persistent write-verify mismatches reported, cells retired onto
	// spares, and retirements refused for lack of budget.
	VerifyMismatches int64
	CellsRetired     int64
	SparesExhausted  int64
}

// Add returns the field-wise sum of two tallies. It is commutative and
// associative; tallies with different block geometries cannot be merged.
func (t Tally) Add(o Tally) Tally {
	if t.M == 0 {
		t.M = o.M
	} else if o.M != 0 && o.M != t.M {
		panic(fmt.Sprintf("campaign: merging tallies with block sides %d and %d", t.M, o.M))
	}
	sum := Tally{
		Rounds:        t.Rounds + o.Rounds,
		Injected:      t.Injected + o.Injected,
		M:             t.M,
		RefChecks:     t.RefChecks + o.RefChecks,
		RefMismatches: t.RefMismatches + o.RefMismatches,

		VerifyMismatches: t.VerifyMismatches + o.VerifyMismatches,
		CellsRetired:     t.CellsRetired + o.CellsRetired,
		SparesExhausted:  t.SparesExhausted + o.SparesExhausted,
	}
	for i := range sum.Counts {
		sum.Counts[i] = t.Counts[i] + o.Counts[i]
	}
	for i := range sum.ByKind {
		sum.ByKind[i] = t.ByKind[i] + o.ByKind[i]
	}
	for i := range sum.Positions {
		sum.Positions[i] = addHist(t.Positions[i], o.Positions[i])
	}
	return sum
}

func addHist(a, b []int64) []int64 {
	if a == nil && b == nil {
		return nil
	}
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]int64, n)
	copy(out, a)
	for i, v := range b {
		out[i] += v
	}
	return out
}

// Conformant reports whether the tally upholds the paper's guarantee: no
// silent corruption, no miscorrection, and full agreement with the
// bit-serial reference decoder.
func (t Tally) Conformant() bool {
	return t.Counts[SilentCorruption] == 0 && t.Counts[Miscorrected] == 0 && t.RefMismatches == 0
}

// Config sizes one crossbar's campaign.
type Config struct {
	Machine machine.Config
	Model   faults.Model
	Hours   float64 // exposure per round (default 1)

	// Loads is the number of pseudo-random row loads per round through the
	// controller write path, applied identically to the golden and faulty
	// machines so data keeps churning (0 defaults to 2; negative disables
	// loads entirely).
	Loads int

	// Kernel optionally executes a SIMPLER mapping across all rows each
	// round. Note the paper leaves intermediate working cells unprotected
	// ("left for future work"): with a kernel active, faults landing in
	// the working region during execution can legitimately escape the
	// code, so conformance campaigns default to loads only.
	Kernel *synth.Mapping

	// Verify cross-checks the diagnosis of every suspect block against
	// the bit-serial reference decoder.
	Verify bool
}

// RoundReport summarizes one campaign round.
type RoundReport struct {
	Injected int
	Counts   [NumOutcomes]int64
}

// Runner drives the campaign of one crossbar: a faulty machine under
// injection and a golden fault-free twin executing the same workload.
// Deterministic in (Config, seed).
type Runner struct {
	cfg            Config
	faulty, golden *machine.Machine
	stuck          *faults.StuckSet
	repairOn       bool
	loadRNG        *rand.Rand
	faultRNG       *rand.Rand
	tally          Tally

	// probe is a zero-state instance of the machine's scheme, used only
	// for CoversCell: matching scrub findings to the code unit a fault
	// cell belongs to (the whole block for the diagonal code, the word
	// row for word schemes). Nil for unprotected baselines.
	probe ecc.Scheme
}

// New builds a campaign runner. The two machines start identical and
// all-zero; randomness is split into independent load and fault streams
// derived from seed.
func New(cfg Config, seed int64) (*Runner, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("campaign: no fault model configured")
	}
	if cfg.Hours <= 0 {
		cfg.Hours = 1
	}
	if cfg.Loads == 0 {
		cfg.Loads = 2
	} else if cfg.Loads < 0 {
		cfg.Loads = 0
	}
	if cfg.Kernel != nil && cfg.Kernel.RowSize > cfg.Machine.N {
		return nil, fmt.Errorf("campaign: kernel needs %d cells, crossbar row has %d", cfg.Kernel.RowSize, cfg.Machine.N)
	}
	faulty, err := machine.New(cfg.Machine)
	if err != nil {
		return nil, err
	}
	gcfg := cfg.Machine
	gcfg.Repair = repair.Config{}   // the golden twin is fault-free: no repair layer
	golden := machine.MustNew(gcfg) // same geometry already validated
	r := &Runner{
		cfg:      cfg,
		faulty:   faulty,
		golden:   golden,
		stuck:    faults.NewStuckSet(),
		loadRNG:  rand.New(rand.NewSource(seed)),
		faultRNG: rand.New(rand.NewSource(faults.DeriveSeed(seed, 0, 1))),
	}
	if cfg.Machine.Repair.Enabled() {
		// With a repair policy active the machine owns the defect physics:
		// stuck cells re-assert inside every LoadRow commit, so write-verify
		// observes the defect the instant a laundering write lands instead
		// of only at round boundaries. Repair reports are recorded for
		// adjudication (drained each round).
		r.faulty.AttachDefects(r.stuck)
		r.faulty.RecordRepairs(true)
		r.repairOn = true
	}
	if cfg.Machine.ECCEnabled {
		r.tally.M = cfg.Machine.M
		spec, err := ecc.SchemeByName(cfg.Machine.SchemeName())
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		r.probe = spec.New(ecc.Params{N: cfg.Machine.N, M: cfg.Machine.M}, nil)
	}
	return r, nil
}

// Tally returns the accumulated campaign tally.
func (r *Runner) Tally() Tally { return r.tally }

// Stats returns the faulty (simulated-hardware) machine's statistics; the
// golden twin is reference software and is excluded.
func (r *Runner) Stats() machine.Stats { return r.faulty.Stats() }

// activeFault is one fault cell awaiting adjudication this round.
type activeFault struct {
	row, col int
	kind     faults.Kind
}

// Round executes one campaign round: identical workload step on both
// machines, stuck-cell re-assertion, model injection, scrub, per-fault
// adjudication against the golden image, then healing the faulty machine
// back to golden (stuck cells never heal). Rounds are therefore
// independent trials of the inject→scrub window the paper's reliability
// analysis reasons about.
func (r *Runner) Round() RoundReport {
	n := r.cfg.Machine.N

	// 1. Identical workload step on golden and faulty.
	row := bitmat.NewVec(n)
	for i := 0; i < r.cfg.Loads; i++ {
		for j := 0; j < n; j++ {
			row.Set(j, r.loadRNG.Intn(2) == 0)
		}
		idx := r.loadRNG.Intn(n)
		r.golden.LoadRow(idx, row)
		r.faulty.LoadRow(idx, row)
	}
	if r.cfg.Kernel != nil {
		// Geometry was validated in New; ExecuteSIMD cannot fail here.
		if err := r.golden.ExecuteSIMD(r.cfg.Kernel, r.golden.MEM().AllRows()); err != nil {
			panic(err)
		}
		if err := r.faulty.ExecuteSIMD(r.cfg.Kernel, r.faulty.MEM().AllRows()); err != nil {
			panic(err)
		}
	}

	// 2. Stuck defects swallow the step's writes.
	r.stuck.Reassert(r.faulty.MEM())

	// 3. Inject this round's faults.
	injected := r.cfg.Model.Apply(r.faulty.MEM(), r.stuck, r.faultRNG, r.cfg.Hours)

	// 4. Collect the distinct fault cells to adjudicate: every stuck cell
	// is an active fault each round, plus this round's injections.
	seen := make(map[[2]int]bool)
	var active []activeFault
	add := func(row, col int, k faults.Kind) {
		key := [2]int{row, col}
		if seen[key] {
			return
		}
		seen[key] = true
		active = append(active, activeFault{row: row, col: col, kind: k})
	}
	for _, sc := range r.stuck.Cells() {
		k := faults.Stuck0
		if sc.Value {
			k = faults.Stuck1
		}
		add(sc.Row, sc.Col, k)
	}
	for _, f := range injected {
		f := f
		f.Cells(func(row, col int) { add(row, col, f.Kind) })
	}

	// 5. Snapshot the pre-scrub state for the bit-serial reference: the
	// memory image plus the scheme's logical check-bit image.
	var preMem *bitmat.Mat
	var preImg ecc.Scheme
	if r.cfg.Verify {
		if preImg = r.faulty.ECCImage(); preImg != nil {
			preMem = r.faulty.MEM().Snapshot()
		}
	}

	// 6. Scrub and index the findings by block. Schemes with sub-block
	// structure may yield several findings per block, in scrub order.
	findings := r.faulty.ScrubFindings()
	byBlock := make(map[[2]int][]ecc.Finding, len(findings))
	for _, f := range findings {
		key := [2]int{f.BR, f.BC}
		byBlock[key] = append(byBlock[key], f)
	}

	// 7. Bit-serial reference cross-check on every suspect block.
	if preMem != nil {
		r.verifyFindings(preMem, preImg, active, findings, byBlock)
	}

	// 7b. Drain the round's repair reports: write-verify mismatches from
	// the workload step plus retirements, write-time or scrub-triggered.
	// A retired cell left r.stuck the moment it was evicted, so it is put
	// back into the adjudication set here; reported-but-unrepaired cells
	// count as detected at write time even when the scrub stays silent.
	var retired, reported map[[2]int]bool
	if r.repairOn {
		retired = make(map[[2]int]bool)
		reported = make(map[[2]int]bool)
		for _, rp := range r.faulty.DrainRepairs() {
			key := [2]int{rp.Row, rp.Col}
			switch rp.Kind {
			case machine.RepairMismatch:
				reported[key] = true
				r.tally.VerifyMismatches++
			case machine.RepairRetired:
				retired[key] = true
				k := faults.Stuck0
				if rp.Stuck {
					k = faults.Stuck1
				}
				add(rp.Row, rp.Col, k)
				r.tally.CellsRetired++
			case machine.RepairExhausted:
				r.tally.SparesExhausted++
			}
		}
	}

	// 8. Adjudicate every active fault cell against the golden image.
	rep := RoundReport{Injected: len(active)}
	m := r.cfg.Machine.M
	for _, a := range active {
		out := r.adjudicate(a, byBlock, retired, reported)
		rep.Counts[out]++
		r.tally.Injected++
		r.tally.Counts[out]++
		r.tally.ByKind[a.kind]++
		if r.tally.M > 0 {
			if r.tally.Positions[out] == nil {
				r.tally.Positions[out] = make([]int64, r.tally.M*r.tally.M)
			}
			r.tally.Positions[out][(a.row%m)*m+a.col%m]++
		}
	}

	// 9. Heal: copy the golden image back and rebuild the check bits, so
	// the next round starts from a consistent state; stuck cells re-assert
	// immediately — the defect outlives every repair.
	fm, gm := r.faulty.MEM().Mat(), r.golden.MEM().Mat()
	for i := 0; i < n; i++ {
		fm.Row(i).CopyFrom(gm.Row(i))
	}
	r.faulty.RebuildChecks()
	r.stuck.Reassert(r.faulty.MEM())

	r.tally.Rounds++
	return rep
}

// adjudicate classifies one fault cell using the post-scrub memory images,
// the scrub's block findings, and the round's repair reports (retired and
// reported cells; nil maps with the repair policy off).
func (r *Runner) adjudicate(a activeFault, byBlock map[[2]int][]ecc.Finding, retired, reported map[[2]int]bool) Outcome {
	g := r.golden.MEM().Get(a.row, a.col)
	f := r.faulty.MEM().Get(a.row, a.col)
	if !r.faulty.Protected() {
		// Baseline machine: nothing is ever detected or corrected.
		if f == g {
			return Masked
		}
		return SilentCorruption
	}
	m := r.cfg.Machine.M
	lr, lc := a.row%m, a.col%m
	// Join on the *home* block of the code unit covering this cell: for
	// column-local schemes that is the cell's own block, but striped codes
	// (interleaved diagonal) report a unit's diagnoses under the home block
	// of the sub-code, which is generally a different block-column.
	ubr, ubc, _ := r.probe.UnitOf(a.row, a.col)
	blockFindings := byBlock[[2]int{ubr, ubc}]
	if f == g {
		if retired[[2]int{a.row, a.col}] {
			// Remapped onto a spare this round with data intact: the defect
			// is permanently out of the data path, stronger than Corrected.
			return Repaired
		}
		for _, fd := range blockFindings {
			if fd.Diag.Kind == ecc.DataError && r.probe.CoversCell(fd.Diag, lr, lc) {
				if fr, fc := fd.DataCell(m); fr == a.row && fc == a.col {
					return Corrected
				}
			}
		}
		return Masked
	}
	// Only findings whose code unit covers this cell count: a flag on a
	// *different* word of the block says nothing about this fault — a
	// persisting error whose own word stayed silent is silent corruption,
	// however loud its neighbors were.
	relevant, uncorrectable := 0, false
	for _, fd := range blockFindings {
		if !r.probe.CoversCell(fd.Diag, lr, lc) {
			continue
		}
		relevant++
		if fd.Diag.Kind == ecc.Uncorrectable {
			uncorrectable = true
		}
	}
	switch {
	case relevant == 0:
		if reported[[2]int{a.row, a.col}] {
			// The scrub's checks were laundered, but write-verify flagged
			// the mismatch at write time — detected, not silent.
			return DetectedUncorrectable
		}
		return SilentCorruption
	case uncorrectable:
		return DetectedUncorrectable
	default:
		// The scrub repaired a different cell or a check bit of this
		// unit while the error persisted — an aliased syndrome steered
		// it wrong.
		return Miscorrected
	}
}

// verifyFindings recomputes the diagnoses of every suspect block (blocks
// holding active faults plus blocks the scrub flagged) with the scheme's
// bit-serial reference decoder over the pre-scrub state and compares.
func (r *Runner) verifyFindings(preMem *bitmat.Mat, preImg ecc.Scheme,
	active []activeFault, findings []ecc.Finding, byBlock map[[2]int][]ecc.Finding) {
	suspect := make(map[[2]int]bool)
	var order [][2]int
	mark := func(br, bc int) {
		key := [2]int{br, bc}
		if !suspect[key] {
			suspect[key] = true
			order = append(order, key)
		}
	}
	m := r.cfg.Machine.M
	for _, a := range active {
		// Suspect both the cell's own block and the home block of its
		// covering code unit — distinct for striped schemes.
		mark(a.row/m, a.col/m)
		ubr, ubc, _ := r.probe.UnitOf(a.row, a.col)
		mark(ubr, ubc)
	}
	for _, f := range findings {
		mark(f.BR, f.BC)
	}
	for _, key := range order {
		want := preImg.ReferenceCheck(preMem, key[0], key[1])
		got := byBlock[key]
		r.tally.RefChecks++
		if len(got) != len(want) {
			r.tally.RefMismatches++
			continue
		}
		for i := range want {
			if !sameDiagnosis(got[i].Diag, want[i]) {
				r.tally.RefMismatches++
				break
			}
		}
	}
}

// sameDiagnosis compares two diagnoses on the fields their kind defines.
func sameDiagnosis(a, b ecc.Diagnosis) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case ecc.DataError:
		return a.LR == b.LR && a.LC == b.LC
	case ecc.LeadCheckError, ecc.CounterCheckError, ecc.CheckError:
		return a.Diag == b.Diag
	case ecc.Uncorrectable:
		// Word schemes set LR to the flagged word row (adjudication joins
		// on it); flagging the wrong word must count as a mismatch. The
		// diagonal code's unit is the block — LR is zero on both sides.
		return a.LR == b.LR
	}
	return true
}
