// Package machine assembles the full proposed architecture (Fig 3): a MEM
// crossbar executing SIMPLER-mapped functions with SIMD row parallelism,
// check bits kept continuously up to date through the critical-operation
// protocol, and the controller behaviors (input checking before execution,
// periodic scrubbing, single-error correction).
//
// One executor (execute) runs a mapping in either MAGIC orientation:
// across rows (ExecuteSIMD, Fig 1a) or across columns (ExecuteSIMDCols,
// Fig 1b). Its step carries every output write through the
// critical-operation protocol, and blockLines names the block lines it
// checks before a run and rebuilds after it — the same lines ComputeCost
// charges for.
//
// The check bits of every code, the paper's diagonal one included, live
// in one ecc.Scheme. The gate-level CMEM of Fig 4 (internal/cmem) is the
// spec this path is tested against; the diagonal code is still charged
// the MEM cycles the CMEM's block-line checks occupy.
//
// It is the end-to-end integration: the same Mapping the latency
// scheduler costs out is *actually executed* on a simulated crossbar, with
// soft errors injected and corrected, so tests can confirm the mechanism
// — not just its cycle model — works.
package machine

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/cmem"
	"repro/internal/ecc"
	"repro/internal/faults"
	"repro/internal/repair"
	"repro/internal/shifter"
	"repro/internal/synth"
	"repro/internal/telemetry"
	"repro/internal/xbar"
)

// Config parameterizes a protected processing unit.
type Config struct {
	N          int  // crossbar side
	M          int  // ECC block side
	K          int  // processing crossbars
	ECCEnabled bool // false = the paper's baseline (no protection)

	// Scheme selects the protection code (ecc.SchemeByName). Empty or
	// "diagonal" is the paper's code; every registered scheme, the
	// diagonal included, runs through the same ecc.Scheme path.
	Scheme string

	// Repair configures the self-healing layer (write-verify read-backs,
	// spare remapping, scrub-triggered retirement — see internal/repair).
	// The zero value is off: the write path behaves exactly as before the
	// repair layer existed.
	Repair repair.Config
}

// SchemeName resolves the configured protection code name ("" defaults to
// the paper's diagonal code).
func (cfg Config) SchemeName() string {
	if cfg.Scheme == "" {
		return ecc.SchemeDiagonal
	}
	return cfg.Scheme
}

// ComputeCost models the MEM-occupancy cost, in cycles, of executing one
// SIMPLER mapping on a crossbar of this configuration — the currency the
// serving layer's virtual-time replay charges per compute request. It
// counts only cycles during which the data crossbar itself is busy
// (grounded in the cmem pipeline constants): the mapping's own latency,
// plus with ECC enabled the pre-execution input checks and the
// post-execution working-region rebuild over the block columns
// blockLines names for a row-parallel pipeline (CheckLineMEMCycles per
// block of each), and the per-critical-op update reads (the scheme's
// LineUpdateReads hook; the diagonal code's 2 is CriticalUpdateMEMCycles,
// the old/new transfers, because its XOR3 fold runs in the PC pipeline).
// An unknown scheme widens no block columns and pays
// CriticalUpdateMEMCycles per critical op.
func (cfg Config) ComputeCost(mp *synth.Mapping) int64 {
	cost := int64(mp.Latency())
	if !cfg.ECCEnabled {
		return cost
	}
	var sch ecc.Scheme
	upd := cmem.CriticalUpdateMEMCycles
	if spec, err := ecc.SchemeByName(cfg.SchemeName()); err == nil {
		sch = spec.New(ecc.Params{N: cfg.N, M: cfg.M}, nil)
		upd = sch.LineUpdateReads(1)
	}
	in, work := blockLines(sch, cfg.M, mp, shifter.RowParallel)
	lineCheck := cfg.N / cfg.M * cmem.CheckLineMEMCycles(cfg.M)
	return cost + int64((in.hi-in.lo+work.hi-work.lo)*lineCheck+mp.CriticalOps()*upd)
}

// Machine is one crossbar plus its check bits.
type Machine struct {
	cfg Config
	mem *xbar.Crossbar

	// sch holds the live check-bit state (nil = unprotected baseline);
	// spec rebuilds it (heal / consistency).
	sch  ecc.Scheme
	spec ecc.SchemeSpec
	ones *bitmat.Vec // all-columns mask for whole-row delta updates

	// rowBuf is the row UpdateRow hands to mutate; oldBuf is LoadRow's
	// copy of the row it overwrites. Neither call re-enters the other
	// while its buffer is live, so two scratch rows serve every write.
	rowBuf, oldBuf *bitmat.Vec

	// lineCopyCycles is the MEM occupancy of one block-line check on the
	// CMEM (Fig 4): the 2·M line copies, one per diagonal family per
	// line, that the diagonal code is charged (0 for other codes).
	lineCopyCycles int

	// statistics
	criticalOps   int
	inputChecks   int
	corrections   int
	uncorrectable int

	// tel holds the live telemetry probes (zero value = disabled: every
	// handle is nil and no-ops). updateReads is the scheme's
	// LineUpdateReads(1) cost, resolved once so the hot path charges it
	// with one counter add.
	tel         Telemetry
	updateReads int64

	// rt is the self-healing state (nil = repair off); defects is the
	// attached stuck-cell set whose faults the write path re-asserts and
	// retirement evicts; repairLog collects RepairReports while enabled
	// (see repair.go).
	rt         *repair.Table
	defects    *faults.StuckSet
	repairLog  []RepairReport
	logRepairs bool
}

// Telemetry is the machine's probe set: per-scheme ECC outcome counters,
// the update-read cost meter, and the shared event ring. Resolve one
// with TelemetryFor and attach it with Instrument; the zero value is the
// disabled layer. Bank and Xbar locate the machine's events in the
// organization (counters are shared per scheme; events are per machine).
type Telemetry struct {
	InputChecks   *telemetry.Counter
	CriticalOps   *telemetry.Counter
	Corrections   *telemetry.Counter
	Uncorrectable *telemetry.Counter
	// UpdateReads accumulates the stored-bit reads spent keeping check
	// bits current (the scheme cost hook ecc.Scheme.LineUpdateReads
	// applied per protected line write) — the "reads stolen from
	// compute" axis of the paper's cost claim, now observable live.
	UpdateReads *telemetry.Counter
	// Repair-layer probes: committed-line read-backs, persistent verify
	// mismatches, spare remaps, and budget-exhausted refusals.
	VerifyReads      *telemetry.Counter
	VerifyMismatches *telemetry.Counter
	CellsRetired     *telemetry.Counter
	SparesExhausted  *telemetry.Counter
	Events           *telemetry.Ring
	Bank, Xbar       int
}

// TelemetryFor resolves the per-scheme machine probe set from a registry
// (nil registry resolves the disabled zero value). Machines of the same
// scheme share series; give each machine its Bank/Xbar for event
// attribution.
func TelemetryFor(reg *telemetry.Registry, scheme string) Telemetry {
	if reg == nil {
		return Telemetry{}
	}
	return Telemetry{
		InputChecks:   reg.Counter("ecc_input_checks_total", "scheme", scheme),
		CriticalOps:   reg.Counter("ecc_critical_ops_total", "scheme", scheme),
		Corrections:   reg.Counter("ecc_corrections_total", "scheme", scheme),
		Uncorrectable: reg.Counter("ecc_uncorrectable_total", "scheme", scheme),
		UpdateReads:   reg.Counter("ecc_update_reads_total", "scheme", scheme),

		VerifyReads:      reg.Counter("repair_verify_reads_total", "scheme", scheme),
		VerifyMismatches: reg.Counter("repair_verify_mismatch_total", "scheme", scheme),
		CellsRetired:     reg.Counter("repair_cells_retired_total", "scheme", scheme),
		SparesExhausted:  reg.Counter("repair_spares_exhausted_total", "scheme", scheme),

		Events: reg.Events(),
	}
}

// Instrument attaches telemetry probes to the machine (zero value
// detaches). Attach before serving; the probes are read on every
// protected write and scrub.
func (m *Machine) Instrument(t Telemetry) { m.tel = t }

// Validate checks the configuration is buildable.
func (cfg Config) Validate() error {
	if cfg.N <= 0 {
		return fmt.Errorf("machine: non-positive crossbar side %d", cfg.N)
	}
	if err := cfg.Repair.Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if cfg.ECCEnabled {
		spec, err := ecc.SchemeByName(cfg.SchemeName())
		if err == nil {
			err = spec.Validate(ecc.Params{N: cfg.N, M: cfg.M})
		}
		if err == nil && cfg.SchemeName() == ecc.SchemeDiagonal {
			// K sizes the diagonal code's gate-level CMEM model (CMEM).
			err = (cmem.Config{N: cfg.N, M: cfg.M, K: cfg.K}).Validate()
		}
		if err != nil {
			return fmt.Errorf("machine: %w", err)
		}
	}
	return nil
}

// New builds a machine with an all-zero memory. The configuration may come
// from user input (CLI flags, fleet descriptions), so invalid geometry is
// reported as an error rather than a panic.
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg, mem: xbar.New(cfg.N, cfg.N), rowBuf: bitmat.NewVec(cfg.N), oldBuf: bitmat.NewVec(cfg.N)}
	if cfg.Repair.Enabled() {
		m.rt = repair.NewTable(cfg.Repair)
	}
	if cfg.ECCEnabled {
		m.spec, _ = ecc.SchemeByName(cfg.SchemeName()) // validated above
		m.sch = m.spec.New(ecc.Params{N: cfg.N, M: cfg.M}, nil)
		m.ones = bitmat.NewVec(cfg.N)
		m.ones.Fill(true)
		m.updateReads = int64(m.sch.LineUpdateReads(1))
		if cfg.SchemeName() == ecc.SchemeDiagonal {
			m.lineCopyCycles = 2 * cfg.M
		}
	}
	return m, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// MEM exposes the data crossbar (for inspection and fault injection).
func (m *Machine) MEM() *xbar.Crossbar { return m.mem }

// CMEM returns a gate-level check memory (the paper's Fig 4, see
// internal/cmem) loaded with the machine's current check bits, or nil
// unless the code is the diagonal one. The model is detached: it is
// built on every call, and nothing done to it reaches the machine's
// check bits.
func (m *Machine) CMEM() *cmem.CMEM {
	cb := ecc.DiagonalCheckBits(m.sch)
	if cb == nil {
		return nil
	}
	c := cmem.New(cmem.Config{N: m.cfg.N, M: m.cfg.M, K: m.cfg.K})
	c.LoadImage(cb)
	return c
}

// Protected reports whether any protection code is active.
func (m *Machine) Protected() bool { return m.sch != nil }

// ECCImage returns a snapshot of the logical check-bit state as an
// ecc.Scheme — the input scheme-generic consumers (above all the fault
// campaign's bit-serial reference decoder) diagnose against. Nil for a
// baseline machine.
func (m *Machine) ECCImage() ecc.Scheme {
	if m.sch == nil {
		return nil
	}
	return m.sch.Clone()
}

// RebuildChecks re-establishes the whole check-bit state from the current
// memory image — the controller path for freshly (re)programmed data. A
// no-op on a baseline machine.
func (m *Machine) RebuildChecks() {
	if m.sch != nil {
		m.sch = m.spec.New(ecc.Params{N: m.cfg.N, M: m.cfg.M}, m.mem.Mat())
	}
}

// Stats summarizes machine activity. Stats from different machines can be
// combined with Add, so a fleet of crossbars aggregates into one total.
type Stats struct {
	MEMCycles     int
	CriticalOps   int
	InputChecks   int
	Corrections   int
	Uncorrectable int

	// Repair-layer activity (all zero with the repair policy off).
	VerifyReads      int
	VerifyMismatches int
	CellsRetired     int
	SparesExhausted  int
}

// Add returns the field-wise sum of two stats. It is commutative and
// associative, so aggregation order (e.g. across concurrent shards) does
// not affect the result.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		MEMCycles:     s.MEMCycles + o.MEMCycles,
		CriticalOps:   s.CriticalOps + o.CriticalOps,
		InputChecks:   s.InputChecks + o.InputChecks,
		Corrections:   s.Corrections + o.Corrections,
		Uncorrectable: s.Uncorrectable + o.Uncorrectable,

		VerifyReads:      s.VerifyReads + o.VerifyReads,
		VerifyMismatches: s.VerifyMismatches + o.VerifyMismatches,
		CellsRetired:     s.CellsRetired + o.CellsRetired,
		SparesExhausted:  s.SparesExhausted + o.SparesExhausted,
	}
}

// Stats returns accumulated statistics.
func (m *Machine) Stats() Stats {
	s := Stats{
		MEMCycles:     m.mem.Stats().Cycles,
		CriticalOps:   m.criticalOps,
		InputChecks:   m.inputChecks,
		Corrections:   m.corrections,
		Uncorrectable: m.uncorrectable,
	}
	if m.rt != nil {
		rs := m.rt.Stats()
		s.VerifyReads = int(rs.VerifyReads)
		s.VerifyMismatches = int(rs.Mismatches)
		s.CellsRetired = int(rs.Retired)
		s.SparesExhausted = int(rs.Exhausted)
	}
	return s
}

// LoadRow writes data into MEM row r through the controller write path
// and brings the check bits up to date (ECC is computed along writes, as
// in a conventional protected memory). With a repair policy configured
// the committed line immediately re-asserts any attached defects (the
// device physics) and is read back and verified; the returned error is a
// *VerifyError (errors.Is-able against ErrVerify) when cells persistently
// refuse the write and the policy cannot (or may not) retire them. With
// repair off the error is always nil.
func (m *Machine) LoadRow(r int, v *bitmat.Vec) error {
	if m.rt != nil {
		// Pre-write metadata sync to the physical row, so the delta
		// fold below cancels a state the checks actually describe;
		// write-verify governs this row from here.
		m.syncChecks(r, nil)
	}
	m.oldBuf.CopyFrom(m.mem.Mat().Row(r))
	m.mem.WriteRow(r, v)
	if m.Protected() {
		m.sch.UpdateRowWrite(r, m.oldBuf, m.mem.Mat().Row(r), m.ones)
		m.tel.UpdateReads.Add(m.updateReads)
	}
	if m.defects != nil {
		// Device physics: the driven line's stuck cells snap straight
		// back, whether or not anyone is checking.
		m.defects.ReassertRow(m.mem, r)
	}
	if m.rt == nil {
		return nil
	}
	return m.verifyRow(r, v)
}

// UpdateRow is the read-modify-write primitive of the serving layer: it
// hands mutate a copy of MEM row r and, if mutate reports the row dirty,
// commits it through the protected write path (one ECC delta update for
// the whole mutation, however many bits changed). A clean row costs no
// write and no ECC work. Reports whether the row was written; the error
// is LoadRow's write-verify verdict (always nil with repair off). The
// copy is a machine-owned scratch row, valid only during the call to
// mutate.
func (m *Machine) UpdateRow(r int, mutate func(*bitmat.Vec) bool) (bool, error) {
	m.rowBuf.CopyFrom(m.mem.Mat().Row(r))
	if !mutate(m.rowBuf) {
		return false, nil
	}
	return true, m.LoadRow(r, m.rowBuf)
}

// InjectDataFault flips a memristor in MEM — a soft error.
func (m *Machine) InjectDataFault(r, c int) { m.mem.Flip(r, c) }

// InjectCheckFault flips a stored check bit (ECC state is memristive
// too). Family/diagonal addressing is specific to the diagonal code, so
// other codes panic.
func (m *Machine) InjectCheckFault(f shifter.Family, d, br, bc int) {
	cb := ecc.DiagonalCheckBits(m.sch)
	if cb == nil {
		panic("machine: check-bit injection needs the diagonal code")
	}
	if f == shifter.Leading {
		cb.FlipLead(d, br, bc)
	} else {
		cb.FlipCounter(d, br, bc)
	}
}

// CheckConsistent reports whether the stored check-bit state matches a
// from-scratch rebuild over the current memory image (true for a healthy
// machine) — the machine-level Verify, scheme-generic.
func (m *Machine) CheckConsistent() bool {
	return m.sch == nil || m.sch.Equal(m.spec.New(ecc.Params{N: m.cfg.N, M: m.cfg.M}, m.mem.Mat()))
}

// ScrubFindings performs the periodic full-memory ECC check and returns
// every non-clean block with its diagnosis, in deterministic (block-row,
// block-column) order — the evidence stream a fault-campaign adjudicator
// matches against injected faults. Single errors are corrected in place;
// uncorrectable blocks are flagged untouched.
func (m *Machine) ScrubFindings() []ecc.Finding {
	if !m.Protected() {
		return nil
	}
	var out []ecc.Finding
	for br := 0; br < m.cfg.N/m.cfg.M; br++ {
		out = m.checkLine(out, shifter.ColParallel, br)
	}
	if m.rt != nil {
		// Scrub-triggered retirement: every repaired data cell takes a
		// strike in the bounded offender table; repeat offenders crossing
		// the threshold are remapped onto spares right here, online —
		// the scan is complete, so rebuilding a retired cell's block
		// checks cannot perturb the findings above.
		for _, f := range out {
			if f.Diag.Kind == ecc.DataError {
				r, c := f.DataCell(m.cfg.M)
				m.noteScrubRepair(r, c)
			}
		}
	}
	return out
}

// checkLine checks and corrects one block line through CorrectLine
// (block-row idx for ColParallel, block-column idx for RowParallel, as in
// the CMEM's CheckLine), appending its findings to out in block order.
// The diagonal code is charged the CMEM check's MEM occupancy: the line
// copies, then one write per repaired data cell. Findings are tallied
// after the line, so their events carry its closing cycle.
func (m *Machine) checkLine(out []ecc.Finding, o shifter.Orientation, idx int) []ecc.Finding {
	start := len(out)
	out = m.sch.CorrectLine(m.mem.Mat(), o == shifter.ColParallel, idx, out)
	cycles := m.lineCopyCycles
	for _, f := range out[start:] {
		if cycles > 0 && f.Diag.Kind == ecc.DataError {
			cycles++
		}
	}
	m.mem.TickN(cycles)
	for _, f := range out[start:] {
		m.tallyDiag(f.Diag)
	}
	return out
}

// tallyDiag bumps the correction counters for one non-clean diagnosis
// (and mirrors it into the telemetry layer when probes are attached).
func (m *Machine) tallyDiag(d ecc.Diagnosis) {
	if d.Kind == ecc.Uncorrectable {
		m.uncorrectable++
		m.tel.Uncorrectable.Inc()
		m.tel.Events.Emit(telemetry.EvDetection, int64(m.mem.Stats().Cycles),
			m.tel.Bank, m.tel.Xbar, int64(d.LR), int64(d.LC))
	} else if d.Kind != ecc.NoError {
		m.corrections++
		m.tel.Corrections.Inc()
		m.tel.Events.Emit(telemetry.EvCorrection, int64(m.mem.Stats().Cycles),
			m.tel.Bank, m.tel.Xbar, int64(d.LR), int64(d.LC))
	}
}

// Scrub performs the periodic full-memory ECC check: every block line is
// verified and single errors are corrected. Returns the number of
// corrections applied and of uncorrectable blocks found.
func (m *Machine) Scrub() (corrected, uncorrectable int) {
	for _, f := range m.ScrubFindings() {
		if f.Diag.Kind == ecc.Uncorrectable {
			uncorrectable++
		} else if f.Diag.Kind != ecc.NoError {
			corrected++
		}
	}
	return corrected, uncorrectable
}

// ExecuteSIMD runs a SIMPLER mapping in every selected row simultaneously
// (the same in-row gate sequence applied with MAGIC's row parallelism,
// Fig 1a). Each row computes the function on its own input data, which
// must already be loaded in cells [0, NumInputs) of that row. rows holds
// one bit per crossbar row; a mask of any other length is an error.
//
// With ECC enabled the controller first checks every block-column that
// holds function inputs (correcting single soft errors), then executes,
// wrapping every output-writing step in the critical-operation protocol
// so the check bits stay in sync (see execute).
func (m *Machine) ExecuteSIMD(mp *synth.Mapping, rows *bitmat.Vec) error {
	return m.execute(shifter.RowParallel, mp, rows)
}

// span is a half-open range [lo, hi) of block lines.
type span struct{ lo, hi int }

// blockLines names the block lines a protected pipeline of orientation o
// checks before it runs (in: those holding cells [0, NumInputs)) and
// rebuilds after it (work: those holding the working cells
// [NumInputs, RowSize)) — block columns for a row-parallel pipeline,
// block rows for a column-parallel one. Units are addressed by home
// block, and a striped code homes the units covering a block column
// across its whole column group, so HomeColumns widens block columns to
// every unit that covers them; no code's unit spans block rows, so those
// are never widened. A nil sch (ComputeCost's unknown scheme) widens
// nothing. A mapping that reuses input cells (synth.Opts.ReuseInputs)
// writes below NumInputs, so its working lines start at the lowest cell
// any step writes.
func blockLines(sch ecc.Scheme, m int, mp *synth.Mapping, o shifter.Orientation) (in, work span) {
	nin := mp.Netlist.NumInputs()
	low := nin
	for i := range mp.Steps {
		s := &mp.Steps[i] // not a copy: this scan runs on every compute
		if s.Kind != synth.StepInit {
			low = min(low, s.Cell)
		}
		for _, c := range s.Init {
			low = min(low, c)
		}
	}
	in = span{0, (nin + m - 1) / m}
	work = span{low / m, (mp.RowSize-1)/m + 1}
	if sch == nil || o != shifter.RowParallel {
		return in, work
	}
	if in.hi > 0 {
		f, l := sch.HomeColumns(in.lo, in.hi-1)
		in = span{f, l + 1}
	}
	f, l := sch.HomeColumns(work.lo, work.hi-1)
	return in, span{f, l + 1}
}

// execute is the one protected SIMD executor behind ExecuteSIMD
// (RowParallel: each selected row is a lane and a cell is a column) and
// ExecuteSIMDCols (ColParallel: each selected column is a lane and a cell
// is a row). With ECC enabled it checks and corrects the input block
// lines, runs every step through step, and rebuilds the working block
// lines (blockLines names both).
//
// The rebuild is needed because the paper keeps the ECC current only for
// output-writing (critical) operations and leaves intermediate cells
// uncovered ("left for future work"): after execution they hold dead
// values whose blocks' check bits are stale, so the controller recomputes
// those check bits from the memory image before the region is treated as
// protected data again. Output blocks were kept in sync by the critical
// protocol; recomputing them is idempotent. A unit straddling the region
// boundary has no narrower sound rebuild (the striped codes' docs note
// that scratch regions are best allocated group-aligned).
func (m *Machine) execute(o shifter.Orientation, mp *synth.Mapping, sel *bitmat.Vec) error {
	if mp.RowSize > m.cfg.N {
		return fmt.Errorf("machine: mapping needs %d cells, crossbar %s has %d",
			mp.RowSize, [...]string{"row", "column"}[o], m.cfg.N)
	}
	if sel.Len() != m.cfg.N {
		return fmt.Errorf("machine: selection mask has %d lanes, crossbar has %d",
			sel.Len(), m.cfg.N)
	}
	var in, work span // empty for the unprotected baseline
	if m.Protected() {
		in, work = blockLines(m.sch, m.cfg.M, mp, o)
	}
	for i := in.lo; i < in.hi; i++ {
		m.inputCheck(o, i)
	}
	for _, s := range mp.Steps {
		m.step(o, s, sel)
	}
	for i := work.lo; i < work.hi; i++ {
		for j := 0; j < m.cfg.N/m.cfg.M; j++ {
			if o == shifter.RowParallel {
				m.sch.RebuildBlock(m.mem.Mat(), j, i)
			} else {
				m.sch.RebuildBlock(m.mem.Mat(), i, j)
			}
		}
	}
	return nil
}

// inputCheck is the pre-execution check of one block line holding
// function inputs (see checkLine for the orientations).
func (m *Machine) inputCheck(o shifter.Orientation, idx int) {
	m.inputChecks++
	m.tel.InputChecks.Inc()
	m.checkLine(nil, o, idx)
}

// step runs one pipeline step over the selected lanes; the orientation
// picks only the xbar primitive and which line the step writes (column
// s.Cell for RowParallel, row s.Cell for ColParallel). A critical step
// (one writing a primary output) runs through the critical-operation
// protocol: the written line is copied out before and after the step,
// each copy one MEM cycle, and criticalUpdate folds the difference into
// the check bits.
func (m *Machine) step(o shifter.Orientation, s synth.Step, sel *bitmat.Vec) {
	rows := o == shifter.RowParallel
	if s.Kind == synth.StepInit {
		if rows {
			m.mem.InitColumnsInRows(s.Init, sel)
		} else {
			m.mem.InitRowsInCols(s.Init, sel)
		}
		return
	}
	critical := s.Critical && m.Protected()
	var old *bitmat.Vec
	if critical {
		old = m.line(o, s.Cell)
		m.mem.Tick() // copy-old transfer occupies MEM
	}
	switch {
	case s.Kind == synth.StepConst:
		for i := sel.NextOne(0); i >= 0; i = sel.NextOne(i + 1) {
			if rows {
				m.mem.Set(i, s.Cell, s.Value)
			} else {
				m.mem.Set(s.Cell, i, s.Value)
			}
		}
		m.mem.Tick() // one write-driver cycle
	case rows && s.IsNot:
		m.mem.NOTRows(s.A, s.Cell, sel)
	case rows:
		m.mem.NORRows(s.A, s.B, s.Cell, sel)
	case s.IsNot:
		m.mem.NOTCols(s.A, s.Cell, sel)
	default:
		m.mem.NORCols(s.A, s.B, s.Cell, sel)
	}
	if critical {
		cur := m.line(o, s.Cell)
		m.mem.Tick() // copy-new transfer occupies MEM
		m.criticalUpdate(o, s.Cell, old, cur, sel)
	}
}

// line copies the line a step of orientation o writes: column idx for
// RowParallel, row idx for ColParallel.
func (m *Machine) line(o shifter.Orientation, idx int) *bitmat.Vec {
	if o == shifter.RowParallel {
		return m.mem.Mat().Col(idx)
	}
	return m.mem.Mat().Row(idx).Clone()
}

// criticalUpdate commits one critical operation's check-bit delta — the
// scheme's masked line-delta update, the word-parallel form of the CMEM's
// XOR3 protocol. o is the operation's orientation (a RowParallel op
// writes column index) and sel its row/column selection mask.
func (m *Machine) criticalUpdate(o shifter.Orientation, index int, old, cur, sel *bitmat.Vec) {
	if o == shifter.RowParallel {
		m.sch.UpdateColumnWrite(index, old, cur, sel)
	} else {
		m.sch.UpdateRowWrite(index, old, cur, sel)
	}
	m.criticalOps++
	m.tel.CriticalOps.Inc()
	m.tel.UpdateReads.Add(m.updateReads)
}

// ReadOutputs returns the function outputs computed in row r.
func (m *Machine) ReadOutputs(mp *synth.Mapping, r int) []bool {
	out := make([]bool, mp.Netlist.NumOutputs())
	for i, id := range mp.Netlist.Outputs() {
		out[i] = m.mem.Get(r, mp.CellOf[id])
	}
	return out
}

// LoadInputs writes each row's function inputs into cells [0, NumInputs).
// inputs[r] supplies row r; rows without an entry keep their contents.
func (m *Machine) LoadInputs(mp *synth.Mapping, inputs map[int][]bool) {
	for r, in := range inputs {
		if len(in) != mp.Netlist.NumInputs() {
			panic("machine: wrong input width")
		}
		row := m.mem.Mat().Row(r).Clone()
		for i, v := range in {
			row.Set(i, v)
		}
		m.LoadRow(r, row)
	}
}
