package machine

// This file is the machine half of the self-healing layer (see
// internal/repair): write-verify on the protected write path, spare
// remapping, and scrub-triggered retirement. The repair.Table owns the
// bookkeeping (budget, offender counts, stats); this file owns the
// physics — re-asserting attached defects when a row is driven, reading
// committed lines back, evicting a defect from the fault model when its
// cell is spared out, and re-deriving the check bits that the laundering
// write path left encoding the defect instead of the data.

import (
	"errors"
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/ecc"
	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/telemetry"
)

// ErrVerify is the sentinel all write-verify failures wrap; test for it
// with errors.Is(err, machine.ErrVerify).
var ErrVerify = errors.New("write-verify mismatch")

// VerifyError reports a persistent write-verify mismatch: after the
// commit, a rewrite retry, and a second read-back, the listed cells of
// the row still differ from the intended data — the signature of stuck-at
// defects that the delta-update ECC alone would have laundered into
// silent corruption. Under the verify+spare policy the error lists only
// the cells that could not be retired (spare budget exhausted).
type VerifyError struct {
	Row  int
	Cols []int // persistently mismatching columns, ascending
}

// Error implements error.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("machine: row %d: %d cell(s) %v failed write-verify", e.Row, len(e.Cols), e.Cols)
}

// Unwrap makes the error errors.Is-able against ErrVerify.
func (e *VerifyError) Unwrap() error { return ErrVerify }

// RepairKind classifies one repair-log entry.
type RepairKind int

const (
	// RepairMismatch is a persistent write-verify mismatch; the cell is
	// reported but stays in service (verify-only policy, or pending the
	// retirement decision recorded alongside).
	RepairMismatch RepairKind = iota
	// RepairRetired is a cell remapped onto a spare — by the write path or
	// by scrub-triggered repeat-offender retirement.
	RepairRetired
	// RepairExhausted is a retirement refused for lack of spare budget.
	RepairExhausted
)

// String names the repair-log entry kind.
func (k RepairKind) String() string {
	switch k {
	case RepairMismatch:
		return "verify-mismatch"
	case RepairRetired:
		return "retired"
	case RepairExhausted:
		return "spares-exhausted"
	}
	return fmt.Sprintf("RepairKind(%d)", int(k))
}

// RepairReport is one repair-log entry. Stuck records the value the cell
// was observed holding against the intended write (for retired cells, the
// defect value the spare replaced), so an adjudicator can reconstruct the
// fault kind after the defect has been evicted from the model.
type RepairReport struct {
	Kind     RepairKind
	Row, Col int
	Stuck    bool
}

// AttachDefects couples a stuck-cell set to the machine's write path: a
// committed row immediately re-asserts its defects (the device physics —
// writes land electrically, the stuck state wins), which is what the
// write-verify read-back then observes, and a retired cell is evicted
// from the set because its physical line leaves the data path. The campaign
// attaches its model-owned set; pmem attaches one per crossbar. Nil
// detaches.
func (m *Machine) AttachDefects(s *faults.StuckSet) { m.defects = s }

// Defects returns the attached stuck-cell set (nil when none).
func (m *Machine) Defects() *faults.StuckSet { return m.defects }

// RepairTable exposes the live repair state, or nil when the repair
// policy is off.
func (m *Machine) RepairTable() *repair.Table { return m.rt }

// RepairStats returns the accumulated repair statistics (zero when the
// policy is off).
func (m *Machine) RepairStats() repair.Stats {
	if m.rt == nil {
		return repair.Stats{}
	}
	return m.rt.Stats()
}

// RecordRepairs enables (or disables) the repair log: with it on, every
// verify mismatch, retirement, and exhausted-budget refusal appends a
// RepairReport until DrainRepairs is called. The log is unbounded while
// enabled, so only enable it from drivers that drain it each round (the
// fault campaign); live serving reads counters and ring events instead.
func (m *Machine) RecordRepairs(on bool) {
	m.logRepairs = on
	if !on {
		m.repairLog = nil
	}
}

// DrainRepairs returns and clears the accumulated repair log.
func (m *Machine) DrainRepairs() []RepairReport {
	log := m.repairLog
	m.repairLog = nil
	return log
}

func (m *Machine) logRepair(k RepairKind, r, c int, stuck bool) {
	if m.logRepairs {
		m.repairLog = append(m.repairLog, RepairReport{Kind: k, Row: r, Col: c, Stuck: stuck})
	}
}

// verifyRow is the write-verify protocol for a just-committed row: the
// data half reads the line back and escalates persistent mismatches per
// policy; the metadata half sweeps the row's covering check units for
// stale syndromes the delta protocol left behind. Returns nil when the
// row verified (possibly after retirement healed it).
func (m *Machine) verifyRow(r int, want *bitmat.Vec) error {
	err := m.verifyData(r, want)
	m.syncChecks(r, want)
	return err
}

// verifyData reads the committed row back and compares against intent; on
// mismatch it retries the failed cells with a raw write-driver rewrite (no
// second ECC delta — the delta for the intended data was already
// committed) and re-reads; cells that still differ are persistent defects,
// escalated per policy.
func (m *Machine) verifyData(r int, want *bitmat.Vec) error {
	m.rt.NoteVerifyRead()
	m.tel.VerifyReads.Inc()
	bad := m.mismatchCols(r, want)
	if len(bad) == 0 {
		return nil
	}

	// Retry: a transient write glitch resolves here; a stuck cell
	// re-asserts and fails the second read-back too.
	for _, c := range bad {
		m.mem.Set(r, c, want.Get(c))
	}
	if m.defects != nil {
		m.defects.ReassertRow(m.mem, r)
	}
	m.rt.NoteVerifyRead()
	m.tel.VerifyReads.Inc()
	bad = m.mismatchCols(r, want)
	if len(bad) == 0 {
		return nil
	}

	cycles := int64(m.mem.Stats().Cycles)
	remaining := bad[:0]
	for _, c := range bad {
		stuckVal := m.mem.Get(r, c)
		m.rt.NoteMismatch()
		m.tel.VerifyMismatches.Inc()
		m.tel.Events.Emit(telemetry.EvVerifyMismatch, cycles, m.tel.Bank, m.tel.Xbar, int64(r), int64(c))
		m.logRepair(RepairMismatch, r, c, stuckVal)
		if m.rt.Config().Policy == repair.VerifySpare && m.retireCell(r, c, want.Get(c), stuckVal) {
			continue // healed: remapped onto a spare, data landed
		}
		remaining = append(remaining, c)
	}
	if len(remaining) == 0 {
		return nil
	}
	return &VerifyError{Row: r, Cols: append([]int(nil), remaining...)}
}

// syncChecks is the repair layer's metadata sweep over row r: it decodes
// the row's covering blocks and, for each diagnosis pointing INTO this
// row, re-synchronizes the stored check bits with the data — re-encoding
// a word unit that lies entirely inside a verified segment of the row
// (RebuildRowWords), otherwise patching a data diagnosis at a verified
// cell with a one-hot delta. Diagnoses pointing at other rows are real
// errors and stay for the scrub, and CheckBlock only diagnoses: scrub
// corrections must stay scrub's, visible in its findings. It runs twice
// around a commit:
//
//   - Before the write (want == nil: the physical row is the intent, so
//     every segment and cell counts as verified). The delta fold cancels
//     the OLD row's contribution as read from the array, so any cell
//     where the stored checks disagree with the physical state (a defect
//     the scrub corrected and the device re-asserted) would fold a
//     phantom delta; syncing first makes the delta exact. The row's own
//     cells are about to be overwritten and then read back by
//     write-verify, which outranks a stale parity vote.
//   - After the write, as the metadata half of write-verify (want = the
//     intended row). The delta protocol computes each write's check-bit
//     delta from the PHYSICAL old row, so a cell whose stored value had
//     diverged from the value the check bits encode poisons the fold;
//     when the new data then happens to match the defect — writing the
//     stuck value — the read-back is clean but the checks encode the
//     stale logical image, and the next scrub would "correct"
//     verified-good data. Within the written row, verified data outranks
//     metadata; an unverified segment (a reported, unretired defect) is
//     left alone, so its mismatch stays visible.
func (m *Machine) syncChecks(r int, want *bitmat.Vec) {
	if !m.Protected() {
		return
	}
	mm := m.cfg.M
	for bc := 0; bc < m.cfg.N/mm; bc++ {
		for _, d := range m.sch.CheckBlock(m.mem.Mat(), r/mm, bc) {
			if d.LR != r%mm {
				continue
			}
			if m.rowSegmentVerified(r, bc, want) && m.sch.RebuildRowWords(m.mem.Mat(), r, bc) {
				break
			}
			if d.Kind != ecc.DataError {
				continue
			}
			if c := bc*mm + d.LC; want == nil || m.mem.Get(r, c) == want.Get(c) {
				m.clearStaleSyndrome(r, c)
			}
		}
	}
}

// rowSegmentVerified reports whether row r's data across block column bc
// matches the intent the read-back verified against (always, for a nil
// want).
func (m *Machine) rowSegmentVerified(r, bc int, want *bitmat.Vec) bool {
	if want == nil {
		return true
	}
	for c := bc * m.cfg.M; c < (bc+1)*m.cfg.M; c++ {
		if m.mem.Get(r, c) != want.Get(c) {
			return false
		}
	}
	return true
}

// clearStaleSyndrome folds a one-hot delta at cell (r,c) into the stored
// check bits — re-synchronizing metadata with data the read-back proved
// correct, without touching the data itself.
func (m *Machine) clearStaleSyndrome(r, c int) {
	old := m.mem.Mat().Row(r).Clone()
	old.Flip(c)
	m.sch.UpdateRowWrite(r, old, m.mem.Mat().Row(r), m.ones)
}

// mismatchCols returns the columns of row r whose stored bits differ from
// want, ascending.
func (m *Machine) mismatchCols(r int, want *bitmat.Vec) []int {
	var bad []int
	got := m.mem.Mat().Row(r)
	for c := 0; c < m.cfg.N; c++ {
		if got.Get(c) != want.Get(c) {
			bad = append(bad, c)
		}
	}
	return bad
}

// retireCell remaps cell (r,c) onto a spare (post-package-repair style):
// the defect is evicted from the attached fault model — the stuck line
// leaves the data path — and the replacement cell is programmed with the
// intended value. Returns false when the spare budget is exhausted; the
// defect then stays in service (reported, never silent).
func (m *Machine) retireCell(r, c int, want, stuckVal bool) bool {
	cycles := int64(m.mem.Stats().Cycles)
	if _, ok := m.rt.Retire(r, c); !ok {
		m.tel.SparesExhausted.Inc()
		m.tel.Events.Emit(telemetry.EvSpareExhausted, cycles, m.tel.Bank, m.tel.Xbar, int64(r), int64(c))
		m.logRepair(RepairExhausted, r, c, stuckVal)
		return false
	}
	if m.defects != nil {
		m.defects.Evict(r, c)
	}
	// Only the data moves here: the covering checks are NOT rebuilt from
	// the image (that would launder every other defect asserting in the
	// same block into the metadata — the co-located defect would go
	// silent). Any one-cell staleness the laundering fold left behind is
	// cleared surgically by the metadata sweeps around the write.
	m.mem.Set(r, c, want)
	m.tel.CellsRetired.Inc()
	m.tel.Events.Emit(telemetry.EvCellRetired, cycles, m.tel.Bank, m.tel.Xbar, int64(r), int64(c))
	m.logRepair(RepairRetired, r, c, stuckVal)
	return true
}

// noteScrubRepair is the scrub-triggered retirement hook, called for
// every data cell a scrub repaired: the cell's strike count accumulates
// in the bounded offender table, and a repeat offender crossing the
// configured threshold is retired on the spot — online, between the
// scrub's correction and the next access. The scrub already restored the
// data, so retirement here only remaps and evicts.
func (m *Machine) noteScrubRepair(r, c int) {
	if !m.rt.NoteOffender(r, c) {
		return
	}
	want := m.mem.Get(r, c) // the scrub's corrected value
	stuckVal := !want
	if m.defects != nil {
		if v, ok := m.defects.Stuck(r, c); ok {
			stuckVal = v
		}
	}
	m.retireCell(r, c, want, stuckVal)
}
