package machine

import (
	"repro/internal/bitmat"
	"repro/internal/shifter"
	"repro/internal/synth"
)

// This file is the column-parallel face of the machine: the SIMPLER
// program lives in a single *column* and runs simultaneously across the
// selected columns (Fig 1b). Everything dualizes — gates become
// in-column NORs, the inputs occupy block-rows, critical updates arrive
// at the check bits with ColParallel orientation, and the pre-execution
// check walks input block-rows — but the executor is the row-parallel
// one (execute). The paper's diagonal placement exists precisely so that
// both orientations update check bits with the same Θ(1) discipline;
// TestOrientationSymmetry demonstrates that symmetry on the integrated
// machine rather than just in the code's mathematics.

// ExecuteSIMDCols runs a SIMPLER mapping in every selected column
// simultaneously. Cell i of the mapping is row i of the crossbar; each
// column computes the function on its own inputs, which must already be
// loaded in rows [0, NumInputs) of that column. cols holds one bit per
// crossbar column; a mask of any other length is an error.
func (m *Machine) ExecuteSIMDCols(mp *synth.Mapping, cols *bitmat.Vec) error {
	return m.execute(shifter.ColParallel, mp, cols)
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
