// Package netlist provides a combinational gate-level netlist IR: a DAG
// of two-input gates built through a Builder, evaluated directly, and
// lowerable to the {NOR2, NOT} basis that MAGIC executes natively.
//
// Node ids are topologically ordered by construction (a gate may only
// reference already-created nodes), which keeps evaluation and analysis
// passes simple single-sweep loops.
package netlist

import "fmt"

// Op is a gate operation.
type Op uint8

// Gate operations. Input/Const0/Const1 are sources; the rest are logic.
const (
	Input Op = iota
	Const0
	Const1
	Not
	Buf
	And
	Or
	Nand
	Nor
	Xor
	Xnor
)

// String names the op.
func (o Op) String() string {
	names := [...]string{"input", "const0", "const1", "not", "buf", "and",
		"or", "nand", "nor", "xor", "xnor"}
	if int(o) < len(names) {
		return names[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// arity returns the number of operands the op consumes.
func (o Op) arity() int {
	switch o {
	case Input, Const0, Const1:
		return 0
	case Not, Buf:
		return 1
	default:
		return 2
	}
}

// Gate is one node of the netlist.
type Gate struct {
	Op   Op
	A, B int // operand node ids (A valid when arity ≥ 1, B when arity = 2)
}

// Netlist is an immutable combinational circuit.
type Netlist struct {
	gates   []Gate
	inputs  []int // node ids of primary inputs, in declaration order
	outputs []int // node ids of primary outputs, in declaration order
	name    string
}

// Name returns the circuit's name.
func (n *Netlist) Name() string { return n.name }

// NumNodes returns the total node count (sources + gates).
func (n *Netlist) NumNodes() int { return len(n.gates) }

// NumInputs returns the primary input count.
func (n *Netlist) NumInputs() int { return len(n.inputs) }

// NumOutputs returns the primary output count.
func (n *Netlist) NumOutputs() int { return len(n.outputs) }

// Inputs returns the primary input node ids (shared slice; do not mutate).
func (n *Netlist) Inputs() []int { return n.inputs }

// Outputs returns the primary output node ids (shared slice; do not mutate).
func (n *Netlist) Outputs() []int { return n.outputs }

// Gate returns node id's gate.
func (n *Netlist) Gate(id int) Gate { return n.gates[id] }

// GateCount returns the number of logic gates (excluding sources).
func (n *Netlist) GateCount() int {
	c := 0
	for _, g := range n.gates {
		if g.Op.arity() > 0 {
			c++
		}
	}
	return c
}

// CountOp returns the number of nodes with the given op.
func (n *Netlist) CountOp(op Op) int {
	c := 0
	for _, g := range n.gates {
		if g.Op == op {
			c++
		}
	}
	return c
}

// IsNORForm reports whether the netlist uses only the MAGIC-native basis:
// sources plus NOR2 and NOT.
func (n *Netlist) IsNORForm() bool {
	for _, g := range n.gates {
		switch g.Op {
		case Input, Const0, Const1, Nor, Not:
		default:
			return false
		}
	}
	return true
}

// Eval computes the outputs for the given input assignment (ordered as
// Inputs()). It evaluates every node in one topological sweep.
func (n *Netlist) Eval(in []bool) []bool {
	if len(in) != len(n.inputs) {
		panic(fmt.Sprintf("netlist %q: %d inputs provided, want %d", n.name, len(in), len(n.inputs)))
	}
	val := make([]bool, len(n.gates))
	inIdx := 0
	for id, g := range n.gates {
		switch g.Op {
		case Input:
			val[id] = in[inIdx]
			inIdx++
		case Const0:
			val[id] = false
		case Const1:
			val[id] = true
		case Not:
			val[id] = !val[g.A]
		case Buf:
			val[id] = val[g.A]
		case And:
			val[id] = val[g.A] && val[g.B]
		case Or:
			val[id] = val[g.A] || val[g.B]
		case Nand:
			val[id] = !(val[g.A] && val[g.B])
		case Nor:
			val[id] = !(val[g.A] || val[g.B])
		case Xor:
			val[id] = val[g.A] != val[g.B]
		case Xnor:
			val[id] = val[g.A] == val[g.B]
		}
	}
	out := make([]bool, len(n.outputs))
	for i, id := range n.outputs {
		out[i] = val[id]
	}
	return out
}

// Levels returns each node's depth (sources at 0), and the circuit depth.
func (n *Netlist) Levels() ([]int, int) {
	lv := make([]int, len(n.gates))
	max := 0
	for id, g := range n.gates {
		switch g.Op.arity() {
		case 1:
			lv[id] = lv[g.A] + 1
		case 2:
			a, b := lv[g.A], lv[g.B]
			if b > a {
				a = b
			}
			lv[id] = a + 1
		}
		if lv[id] > max {
			max = lv[id]
		}
	}
	return lv, max
}
