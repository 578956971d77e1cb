// Package core is the top-level façade of the reproduction: one import
// that reaches the paper's primary contribution (diagonal in-memory ECC
// for MAGIC-based processing-in-memory) and each of its evaluation
// harnesses.
//
// Layering underneath:
//
//	bitmat    packed bit vectors/matrices (numeric substrate)
//	xbar      MAGIC crossbar simulator (NOR/NOT, row/col parallelism)
//	faults    soft-error model (SER in FIT/bit)
//	ecc       diagonal parity code: update, syndrome, decode, correct
//	shifter   barrel shifters routing MEM lines to diagonal order
//	cmem      check memory: check-bit crossbars, XOR3 processing
//	          crossbars, checking crossbar (gate-level spec model)
//	machine   integrated protected PIM unit (MEM + check bits in one
//	          ecc.Scheme + controllers)
//	netlist   gate-level IR and NOR lowering
//	synth     SIMPLER single-row mapper (baseline latency)
//	eccsched  ECC-extended greedy scheduler (Table I)
//	circuits  EPFL-style benchmark generators
//	reliability  analytic + Monte Carlo MTTF (Fig 6)
//	area      device-count model (Table II)
//	mmpu      multi-crossbar memory organization
package core

import (
	"repro/internal/area"
	"repro/internal/eccsched"
	"repro/internal/machine"
	"repro/internal/reliability"
)

// NewProtectedMachine returns a crossbar PIM unit with the proposed
// diagonal-ECC mechanism attached (n×n array, m×m blocks, k processing
// crossbars). Invalid geometry is reported as an error.
func NewProtectedMachine(n, m, k int) (*machine.Machine, error) {
	return machine.New(machine.Config{N: n, M: m, K: k, ECCEnabled: true})
}

// NewBaselineMachine returns the unprotected control design.
func NewBaselineMachine(n int) (*machine.Machine, error) {
	return machine.New(machine.Config{N: n, ECCEnabled: false})
}

// Fig6 computes the paper's Figure 6 sensitivity sweep (1GB memory MTTF
// versus memristor soft-error rate) at the given resolution.
func Fig6(pointsPerDecade int) []reliability.Point {
	return reliability.PaperModel().Fig6Sweep(pointsPerDecade)
}

// Table1 regenerates the paper's Table I (latency per benchmark).
func Table1() ([]eccsched.Result, error) {
	return eccsched.RunTable1(eccsched.DefaultTable1Config())
}

// Table2 regenerates the paper's Table II (device counts).
func Table2() []area.Unit {
	return area.PaperConfig().Table()
}
