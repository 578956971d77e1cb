// Package xbar simulates a memristive crossbar array executing stateful
// logic with MAGIC (Memristor-Aided loGIC) gates.
//
// A crossbar holds one bit per memristor: logic '1' is the Low Resistive
// State (LRS) and logic '0' is the High Resistive State (HRS). MAGIC NOR
// and NOT gates execute between memristors sharing a row (in-row gates,
// operand/output named by column index) or sharing a column (in-column
// gates, named by row index). The same gate executes simultaneously across
// any set of rows (columns) in a single clock cycle — the massive
// parallelism the paper's ECC scheme is built around (Fig 1).
//
// MAGIC requires output memristors to be initialized to LRS ('1') before a
// gate executes; the gate then conditionally switches the output to HRS.
// The simulator tracks initialization and, in strict mode, rejects gates
// whose outputs were not initialized — catching the class of scheduling
// bugs SIMPLER-style mappers must avoid.
package xbar

import (
	"fmt"

	"repro/internal/bitmat"
)

// Stats accumulates cycle and operation counts for a crossbar.
type Stats struct {
	Cycles    int // total clock cycles consumed
	NORs      int // NOR gate cycles (NOT counts here too: NOT(a) = NOR(a,a))
	Inits     int // initialization cycles
	Reads     int // controller read cycles
	Writes    int // controller write cycles
	GateCount int // individual gates executed (one per selected line)
}

// Crossbar is an R×C memristive crossbar array.
type Crossbar struct {
	rows, cols int
	mem        *bitmat.Mat
	init       *bitmat.Mat // which cells are initialized (LRS) and unconsumed
	strict     bool
	stats      Stats
	trace      *traceRing          // nil unless EnableTrace was called
	watch      map[[2]int][]sample // nil unless WatchCell was called

	// Scratch vectors for word-parallel gate execution; owned by the
	// crossbar so the hot paths are allocation-free. A crossbar is not
	// safe for concurrent use (it never was — every op mutates stats).
	rowScratch *bitmat.Vec // length cols: whole-row NOR/NOT result
	colFill    *bitmat.Vec // length cols: column-index fill mask
}

// New returns a crossbar with all memristors in HRS ('0'), uninitialized.
func New(rows, cols int) *Crossbar {
	return &Crossbar{
		rows:       rows,
		cols:       cols,
		mem:        bitmat.NewMat(rows, cols),
		init:       bitmat.NewMat(rows, cols),
		rowScratch: bitmat.NewVec(cols),
		colFill:    bitmat.NewVec(cols),
	}
}

// SetStrict toggles verification that every gate output was initialized to
// LRS beforehand. Strict mode panics on violations; it is meant for tests
// and scheduler validation.
func (x *Crossbar) SetStrict(b bool) { x.strict = b }

// Rows returns the number of wordlines.
func (x *Crossbar) Rows() int { return x.rows }

// Cols returns the number of bitlines.
func (x *Crossbar) Cols() int { return x.cols }

// Stats returns a copy of the accumulated statistics.
func (x *Crossbar) Stats() Stats { return x.stats }

// ResetStats zeroes the statistics counters.
func (x *Crossbar) ResetStats() { x.stats = Stats{} }

// Tick advances the clock by one cycle without performing an operation
// (used to model stalls imposed by an external controller).
func (x *Crossbar) Tick() {
	x.stats.Cycles++
	if x.watch != nil {
		x.sampleWatches()
	}
}

// TickN advances the clock by n cycles without performing an operation,
// exactly as n Ticks do. Watched cells are sampled cycle by cycle only
// when a watch is attached; otherwise the cycles are charged at once.
func (x *Crossbar) TickN(n int) {
	if x.watch != nil {
		for ; n > 0; n-- {
			x.Tick()
		}
		return
	}
	x.stats.Cycles += max(n, 0)
}

// Get reads the logical state of memristor (r,c) without consuming a cycle
// (observability for tests and models; controller reads use ReadRow).
func (x *Crossbar) Get(r, c int) bool { return x.mem.Get(r, c) }

// Set writes memristor (r,c) directly without consuming a cycle. Intended
// for test setup and fault injection; functional writes should go through
// Write/WriteRow.
func (x *Crossbar) Set(r, c int, b bool) { x.mem.Set(r, c, b) }

// Flip inverts memristor (r,c) in place — the primitive used by soft-error
// injection. No cycle is consumed and initialization state is unchanged,
// matching a physical state drift or particle strike.
func (x *Crossbar) Flip(r, c int) { x.mem.Flip(r, c) }

// Mat returns the live underlying bit matrix (mutations are visible).
func (x *Crossbar) Mat() *bitmat.Mat { return x.mem }

// Snapshot returns a deep copy of the memory contents.
func (x *Crossbar) Snapshot() *bitmat.Mat { return x.mem.Clone() }

// RowMask returns a fresh all-zero selection mask over rows.
func (x *Crossbar) RowMask() *bitmat.Vec { return bitmat.NewVec(x.rows) }

// ColMask returns a fresh all-zero selection mask over columns.
func (x *Crossbar) ColMask() *bitmat.Vec { return bitmat.NewVec(x.cols) }

// AllRows returns a mask selecting every row.
func (x *Crossbar) AllRows() *bitmat.Vec {
	m := x.RowMask()
	m.Fill(true)
	return m
}

// AllCols returns a mask selecting every column.
func (x *Crossbar) AllCols() *bitmat.Vec {
	m := x.ColMask()
	m.Fill(true)
	return m
}

// --- Initialization -------------------------------------------------------

// InitColumnsInRows initializes (sets to LRS, '1') the memristors at the
// given column indices in every selected row. All named cells initialize in
// parallel in a single cycle, matching MAGIC's batched initialization.
// Implemented as a masked word fill: the column indices become a fill mask
// OR-ed into every selected row.
func (x *Crossbar) InitColumnsInRows(cols []int, rows *bitmat.Vec) {
	x.stats.Cycles++
	x.stats.Inits++
	x.colFill.Zero()
	for _, c := range cols {
		x.colFill.Set(c, true)
	}
	for r := rows.NextOne(0); r >= 0; r = rows.NextOne(r + 1) {
		mr, ir := x.mem.Row(r), x.init.Row(r)
		mr.Or(mr, x.colFill)
		ir.Or(ir, x.colFill)
	}
	if x.trace != nil {
		x.record(OpInit, -1, -1, -1, rows)
	}
	if x.watch != nil {
		x.sampleWatches()
	}
}

// InitRowsInCols initializes the memristors at the given row indices in
// every selected column, in one cycle: each named row is a single masked
// word fill under the column-selection mask.
func (x *Crossbar) InitRowsInCols(rowIdx []int, cols *bitmat.Vec) {
	x.stats.Cycles++
	x.stats.Inits++
	for _, r := range rowIdx {
		x.checkRow(r)
		mr, ir := x.mem.Row(r), x.init.Row(r)
		if cols.Len() == x.cols {
			mr.Or(mr, cols)
			ir.Or(ir, cols)
		} else { // short selection mask: per-bit fallback
			for c := cols.NextOne(0); c >= 0; c = cols.NextOne(c + 1) {
				mr.Set(c, true)
				ir.Set(c, true)
			}
		}
	}
	if x.trace != nil {
		x.record(OpInit, -1, -1, -1, cols)
	}
	if x.watch != nil {
		x.sampleWatches()
	}
}

// --- In-row gates (parallel across rows, Fig 1a) ---------------------------

// NORRows executes out = NOR(a, b) within each selected row, where a, b and
// out are column indices. One clock cycle regardless of how many rows are
// selected. Each gate touches three bits of one row, so the loop walks the
// selection mask allocation-free rather than materializing an index slice.
func (x *Crossbar) NORRows(a, b, out int, rows *bitmat.Vec) {
	x.checkCol(a)
	x.checkCol(b)
	x.checkCol(out)
	x.stats.Cycles++
	x.stats.NORs++
	for r := rows.NextOne(0); r >= 0; r = rows.NextOne(r + 1) {
		x.gateRow(r, a, b, out)
	}
	if x.trace != nil {
		x.record(OpNORRows, a, b, out, rows)
	}
	if x.watch != nil {
		x.sampleWatches()
	}
}

// NOTRows executes out = NOT(a) within each selected row. In MAGIC, NOT is
// a single-input gate with the same initialized-output discipline.
func (x *Crossbar) NOTRows(a, out int, rows *bitmat.Vec) {
	x.checkCol(a)
	x.checkCol(out)
	x.stats.Cycles++
	x.stats.NORs++
	for r := rows.NextOne(0); r >= 0; r = rows.NextOne(r + 1) {
		x.gateRow(r, a, a, out)
	}
	if x.trace != nil {
		x.record(OpNOTRows, a, -1, out, rows)
	}
	if x.watch != nil {
		x.sampleWatches()
	}
}

// --- In-column gates (parallel across columns, Fig 1b) ---------------------

// NORCols executes out = NOR(a, b) within each selected column, where a, b
// and out are row indices. One clock cycle total.
//
// This is the word-parallel hot path: the whole-row NOR of rows a and b is
// computed into a scratch vector and merged into row out under the
// column-selection mask — a handful of word operations for any number of
// selected columns, mirroring the single-cycle parallelism of the gate
// itself.
func (x *Crossbar) NORCols(a, b, out int, cols *bitmat.Vec) {
	x.checkRow(a)
	x.checkRow(b)
	x.checkRow(out)
	x.stats.Cycles++
	x.stats.NORs++
	x.gateCols(a, b, out, cols)
	if x.trace != nil {
		x.record(OpNORCols, a, b, out, cols)
	}
	if x.watch != nil {
		x.sampleWatches()
	}
}

// NOTCols executes out = NOT(a) within each selected column.
func (x *Crossbar) NOTCols(a, out int, cols *bitmat.Vec) {
	x.checkRow(a)
	x.checkRow(out)
	x.stats.Cycles++
	x.stats.NORs++
	x.gateCols(a, a, out, cols)
	if x.trace != nil {
		x.record(OpNOTCols, a, -1, out, cols)
	}
	if x.watch != nil {
		x.sampleWatches()
	}
}

// gateCols executes out-row = NOR(row a, row b) in every column selected by
// cols: three whole-row word operations (NOR, masked merge, init clear)
// instead of one Get/Set round trip per selected column. NOT(a) is
// NOR(a,a). In strict mode the gate panics before mutating anything if any
// selected output cell is uninitialized.
func (x *Crossbar) gateCols(a, b, out int, cols *bitmat.Vec) {
	if cols.Len() != x.cols { // short selection mask: per-bit fallback
		for c := cols.NextOne(0); c >= 0; c = cols.NextOne(c + 1) {
			x.gate(a, c, b, c, out, c)
		}
		return
	}
	initOut := x.init.Row(out)
	if x.strict {
		// Violation mask: selected columns whose output is uninitialized.
		v := x.rowScratch
		v.AndNot(cols, initOut)
		if c := v.NextOne(0); c >= 0 {
			panic(fmt.Sprintf("xbar: gate output (%d,%d) not initialized", out, c))
		}
	}
	s := x.rowScratch
	s.Nor(x.mem.Row(a), x.mem.Row(b))
	x.mem.Row(out).MaskedMerge(s, cols)
	initOut.AndNot(initOut, cols) // outputs consumed; re-init before reuse
	x.stats.GateCount += cols.Popcount()
}

// gateRow applies one in-row NOR: within row r, out-col = NOR(a-col,
// b-col). The row vectors are looked up once and the three bit accesses go
// through them directly.
func (x *Crossbar) gateRow(r, a, b, out int) {
	mr := x.mem.Row(r)
	ir := x.init.Row(r)
	if x.strict && !ir.Get(out) {
		panic(fmt.Sprintf("xbar: gate output (%d,%d) not initialized", r, out))
	}
	mr.Set(out, !(mr.Get(a) || mr.Get(b)))
	ir.Set(out, false) // output consumed; must re-init before reuse
	x.stats.GateCount++
}

// gate applies a single NOR between (ra,ca),(rb,cb) into (ro,co).
func (x *Crossbar) gate(ra, ca, rb, cb, ro, co int) {
	if x.strict && !x.init.Get(ro, co) {
		panic(fmt.Sprintf("xbar: gate output (%d,%d) not initialized", ro, co))
	}
	va := x.mem.Get(ra, ca)
	vb := x.mem.Get(rb, cb)
	x.mem.Set(ro, co, !(va || vb))
	x.init.Set(ro, co, false) // output consumed; must re-init before reuse
	x.stats.GateCount++
}

// --- Controller access ------------------------------------------------------

// ReadRow returns a copy of row r through the sensing circuitry (one cycle).
func (x *Crossbar) ReadRow(r int) *bitmat.Vec {
	x.checkRow(r)
	x.stats.Cycles++
	x.stats.Reads++
	if x.trace != nil {
		x.record(OpRead, -1, -1, r, nil)
	}
	// Reads consume a cycle like any other operation, so watched cells
	// must be sampled here too or read-heavy schedules lose VCD samples.
	if x.watch != nil {
		x.sampleWatches()
	}
	return x.mem.Row(r).Clone()
}

// WriteRow writes v into row r through the write drivers (one cycle). The
// written cells are treated as data, not as initialized gate outputs.
func (x *Crossbar) WriteRow(r int, v *bitmat.Vec) {
	x.checkRow(r)
	x.stats.Cycles++
	x.stats.Writes++
	if x.trace != nil {
		x.record(OpWrite, -1, -1, r, nil)
	}
	x.mem.SetRow(r, v)
	x.init.Row(r).Zero()
	if x.watch != nil {
		x.sampleWatches()
	}
}

// Write stores a single bit through the write drivers (one cycle).
func (x *Crossbar) Write(r, c int, b bool) {
	x.checkRow(r)
	x.checkCol(c)
	x.stats.Cycles++
	x.stats.Writes++
	x.mem.Set(r, c, b)
	x.init.Set(r, c, false)
	if x.watch != nil {
		x.sampleWatches()
	}
}

func (x *Crossbar) checkRow(r int) {
	if r < 0 || r >= x.rows {
		panic(fmt.Sprintf("xbar: row %d out of range [0,%d)", r, x.rows))
	}
}

func (x *Crossbar) checkCol(c int) {
	if c < 0 || c >= x.cols {
		panic(fmt.Sprintf("xbar: column %d out of range [0,%d)", c, x.cols))
	}
}
