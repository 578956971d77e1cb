package machine

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/shifter"
	"repro/internal/synth"
)

// This file is the transposed execution path: the SIMPLER program lives
// in a single *column* and runs simultaneously across the selected
// columns (Fig 1b). Everything dualizes — gates become in-column NORs,
// the inputs occupy block-rows, critical updates arrive at the check bits
// with ColParallel orientation, and the pre-execution check walks input
// block-rows. The paper's diagonal placement exists precisely so that
// both orientations update check bits with the same Θ(1) discipline;
// this executor (with its tests) demonstrates that symmetry on the
// integrated machine rather than just in the code's mathematics.

// ExecuteSIMDCols runs a SIMPLER mapping in every selected column
// simultaneously. Cell i of the mapping is row i of the crossbar; each
// column computes the function on its own inputs, which must already be
// loaded in rows [0, NumInputs) of that column.
func (m *Machine) ExecuteSIMDCols(mp *synth.Mapping, cols *bitmat.Vec) error {
	if mp.RowSize > m.cfg.N {
		return fmt.Errorf("machine: mapping needs %d cells, crossbar column has %d", mp.RowSize, m.cfg.N)
	}
	if m.Protected() {
		inputBlocks := (mp.Netlist.NumInputs() + m.cfg.M - 1) / m.cfg.M
		for br := 0; br < inputBlocks; br++ {
			m.inputCheck(shifter.ColParallel, br)
		}
	}

	for _, s := range mp.Steps {
		switch s.Kind {
		case synth.StepInit:
			m.mem.InitRowsInCols(s.Init, cols)
		case synth.StepConst:
			m.writeRowUniform(s.Cell, s.Value, cols, s.Critical)
		case synth.StepGate:
			m.gateCols(s, cols)
		}
	}
	m.reconcileWorkingRows(mp)
	return nil
}

// gateCols executes one (possibly critical) column-parallel MAGIC step.
func (m *Machine) gateCols(s synth.Step, cols *bitmat.Vec) {
	critical := s.Critical && m.Protected()
	var old *bitmat.Vec
	if critical {
		old = m.mem.Mat().Row(s.Cell).Clone()
		m.mem.Tick()
	}
	if s.IsNot {
		m.mem.NOTCols(s.A, s.Cell, cols)
	} else {
		m.mem.NORCols(s.A, s.B, s.Cell, cols)
	}
	if critical {
		newRow := m.mem.Mat().Row(s.Cell).Clone()
		m.mem.Tick()
		m.criticalUpdate(shifter.ColParallel, s.Cell, old, newRow, cols)
	}
}

// writeRowUniform drives a constant into row r of every selected column.
func (m *Machine) writeRowUniform(r int, v bool, cols *bitmat.Vec, criticalStep bool) {
	critical := criticalStep && m.Protected()
	var old *bitmat.Vec
	if critical {
		old = m.mem.Mat().Row(r).Clone()
		m.mem.Tick()
	}
	// Masked word fill: drive the constant into the selected columns of
	// the row in whole-word operations (Set bypasses gate bookkeeping, so
	// writing the live row directly is equivalent to the per-cell loop).
	row := m.mem.Mat().Row(r)
	if cols.Len() == row.Len() {
		if v {
			row.Or(row, cols)
		} else {
			row.AndNot(row, cols)
		}
	} else {
		for c := cols.NextOne(0); c >= 0; c = cols.NextOne(c + 1) {
			m.mem.Set(r, c, v)
		}
	}
	m.mem.Tick()
	if critical {
		newRow := m.mem.Mat().Row(r).Clone()
		m.mem.Tick()
		m.criticalUpdate(shifter.ColParallel, r, old, newRow, cols)
	}
}

// reconcileWorkingRows is the transposed working-region reconciliation:
// block-rows spanning the working cells get their check bits
// re-established from the memory image.
func (m *Machine) reconcileWorkingRows(mp *synth.Mapping) {
	if !m.Protected() {
		return
	}
	firstBR := mp.Netlist.NumInputs() / m.cfg.M
	lastBR := (mp.RowSize - 1) / m.cfg.M
	for br := firstBR; br <= lastBR; br++ {
		for bc := 0; bc < m.cfg.N/m.cfg.M; bc++ {
			m.sch.RebuildBlock(m.mem.Mat(), br, bc)
		}
	}
}

// LoadInputsCols writes each column's function inputs into rows
// [0, NumInputs). inputs[c] supplies column c.
func (m *Machine) LoadInputsCols(mp *synth.Mapping, inputs map[int][]bool) {
	for c, in := range inputs {
		if len(in) != mp.Netlist.NumInputs() {
			panic("machine: wrong input width")
		}
		for i, v := range in {
			old := m.mem.Get(i, c)
			cur := m.mem.Mat().Row(i).Clone()
			cur.Set(c, v)
			m.mem.WriteRow(i, cur)
			if m.Protected() {
				// Exactly one cell changed: the Θ(1) single-cell delta.
				m.sch.UpdateWrite(i, c, old, v)
			}
		}
	}
}

// ReadOutputsCol returns the function outputs computed in column c.
func (m *Machine) ReadOutputsCol(mp *synth.Mapping, c int) []bool {
	out := make([]bool, mp.Netlist.NumOutputs())
	for i, id := range mp.Netlist.Outputs() {
		out[i] = m.mem.Get(mp.CellOf[id], c)
	}
	return out
}
