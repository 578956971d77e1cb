package xbar

import "repro/internal/bitmat"

// This file provides composite MAGIC routines built from NOR/NOT gate
// cycles. The key macro is XOR3, which the paper's CMEM executes in 8
// MAGIC NOR operations using the decomposition
//
//	XOR3(a,b,c) = XNOR(XNOR(a,b), c)
//
// where XNOR(x,y) costs 4 NORs: t1=NOR(x,y); t2=NOR(x,t1); t3=NOR(y,t1);
// out=NOR(t2,t3). Two XNORs give 8 NOR cycles and 7 intermediate cells —
// with 3 inputs and 1 output that is the 11 work rows per bit that Table II
// charges each processing crossbar for (2·11·k·n).

// XOR3CyclesPerBit is the number of NOR gate cycles a MAGIC XOR3 takes.
const XOR3CyclesPerBit = 8

// XOR3WorkRows is the number of crossbar rows a column-parallel XOR3
// occupies: 3 inputs + 7 intermediates + 1 output.
const XOR3WorkRows = 11

// XOR3RowLayout names the row roles inside an 11-row processing strip.
const (
	XOR3RowA = iota // input a
	XOR3RowB        // input b
	XOR3RowC        // input c
	xor3RowT1
	xor3RowT2
	xor3RowT3
	xor3RowD // XNOR(a,b)
	xor3RowT4
	xor3RowT5
	xor3RowT6
	XOR3RowOut // XOR3(a,b,c)
)

// XOR3Cols computes out-row = XOR3(row a, row b, row c) in parallel across
// the selected columns, using the 11-row strip starting at row base. Rows
// base+XOR3RowA.. must already hold the inputs. The routine spends one
// batched initialization cycle followed by 8 NOR cycles (9 cycles total).
func (x *Crossbar) XOR3Cols(base int, cols *bitmat.Vec) {
	r := func(role int) int { return base + role }
	x.InitRowsInCols([]int{
		r(xor3RowT1), r(xor3RowT2), r(xor3RowT3), r(xor3RowD),
		r(xor3RowT4), r(xor3RowT5), r(xor3RowT6), r(XOR3RowOut),
	}, cols)

	// XNOR(a, b) -> d
	x.NORCols(r(XOR3RowA), r(XOR3RowB), r(xor3RowT1), cols)
	x.NORCols(r(XOR3RowA), r(xor3RowT1), r(xor3RowT2), cols)
	x.NORCols(r(XOR3RowB), r(xor3RowT1), r(xor3RowT3), cols)
	x.NORCols(r(xor3RowT2), r(xor3RowT3), r(xor3RowD), cols)
	// XNOR(d, c) -> out
	x.NORCols(r(xor3RowD), r(XOR3RowC), r(xor3RowT4), cols)
	x.NORCols(r(xor3RowD), r(xor3RowT4), r(xor3RowT5), cols)
	x.NORCols(r(XOR3RowC), r(xor3RowT4), r(xor3RowT6), cols)
	x.NORCols(r(xor3RowT5), r(xor3RowT6), r(XOR3RowOut), cols)
}

// ClearRowInCols force-writes zeros into row r at the selected columns via
// the write drivers (one cycle).
func (x *Crossbar) ClearRowInCols(r int, cols *bitmat.Vec) {
	x.checkRow(r)
	x.stats.Cycles++
	x.stats.Writes++
	mr, ir := x.mem.Row(r), x.init.Row(r)
	if cols.Len() == x.cols {
		mr.AndNot(mr, cols)
		ir.AndNot(ir, cols)
	} else { // short selection mask: per-bit fallback
		for c := cols.NextOne(0); c >= 0; c = cols.NextOne(c + 1) {
			mr.Set(c, false)
			ir.Set(c, false)
		}
	}
}
