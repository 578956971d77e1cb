// Package synth reimplements the SIMPLER MAGIC flow (Ben-Hur et al., IEEE
// TCAD 2020), which the paper uses to generate its latency benchmarks: a
// logic function expressed as a NOR/NOT netlist is mapped to a sequence of
// MAGIC operations executed entirely within a single crossbar row, reusing
// cells by re-initializing them once their value is dead.
//
// The mapper follows the published algorithm's structure:
//
//  1. A Cell-Usage (CU) estimate is computed per node — a Sethi-Ullman
//     style register count generalized to the gate DAG — and children are
//     visited in decreasing-CU order so the subtree needing more live
//     cells runs while fewer siblings are held.
//  2. Gates execute in that order, each allocating one output cell.
//     When a node's last consumer has executed its cell is released.
//  3. Released cells need re-initialization (MAGIC outputs must start at
//     LRS). Re-initializations are batched: when the allocator runs out
//     of initialized cells, all released cells are initialized together
//     in a single cycle — SIMPLER's "initialization cycles".
//
// Total latency = gate cycles + initialization cycles, the quantity
// reported as "Baseline" in the paper's Table I.
package synth

import (
	"fmt"
	"sort"

	"repro/internal/netlist"
)

// StepKind discriminates schedule steps.
type StepKind uint8

const (
	// StepGate executes one MAGIC NOR/NOT, writing one cell.
	StepGate StepKind = iota
	// StepInit is a batched initialization cycle: all listed cells are
	// set to LRS simultaneously.
	StepInit
	// StepConst writes a constant into a cell via the write driver.
	StepConst
)

// Step is one clock cycle of the mapped program.
type Step struct {
	Kind     StepKind
	Node     int   // netlist node id (StepGate/StepConst)
	Cell     int   // output cell (StepGate/StepConst)
	A, B     int   // operand cells (StepGate; B == A for NOT)
	IsNot    bool  // StepGate: single-input NOT
	Critical bool  // StepGate/StepConst: writes a primary output
	Init     []int // StepInit: cells initialized this cycle
	Value    bool  // StepConst: the constant value
}

// Mapping is the result of mapping a netlist onto one crossbar row.
type Mapping struct {
	Netlist  *netlist.Netlist
	RowSize  int
	Steps    []Step
	CellOf   map[int]int // node id → cell index (inputs and outputs pinned)
	PeakLive int         // maximum simultaneously live cells (incl. inputs)

	GateCycles  int
	InitCycles  int
	ConstCycles int
}

// Latency returns the total cycle count — SIMPLER's figure of merit.
func (m *Mapping) Latency() int { return m.GateCycles + m.InitCycles + m.ConstCycles }

// CriticalOps returns the number of output-writing (ECC-critical) steps.
func (m *Mapping) CriticalOps() int {
	n := 0
	for i := range m.Steps {
		if m.Steps[i].Critical {
			n++
		}
	}
	return n
}

// Order selects the gate execution order.
type Order uint8

const (
	// OrderAuto tries OrderCU and falls back to OrderTopo on overflow.
	OrderAuto Order = iota
	// OrderCU is SIMPLER's published heuristic: outputs and children are
	// visited in decreasing cell-usage order (depth-first). Best for
	// tree-like circuits.
	OrderCU
	// OrderTopo executes gates in topological creation order, which for
	// layered circuits (barrel shifters, compressor trees) frees whole
	// layers at a time and needs far fewer live cells than the DFS.
	OrderTopo
)

// Opts tunes the mapper.
type Opts struct {
	// ReuseInputs allows input cells to be released (and re-initialized)
	// once their last consumer has executed, as the published SIMPLER
	// algorithm does. With it false inputs stay pinned for the whole
	// function — required when the caller must preserve the input data in
	// place. Benchmarks whose input count approaches the row size (e.g.
	// voter's 1001 inputs in a 1020-cell row) need ReuseInputs.
	ReuseInputs bool
	// Order selects the scheduling order (default OrderAuto).
	Order Order
}

// Map schedules the netlist into a single row of rowSize cells with
// default options (inputs pinned). See MapWith.
func Map(nl *netlist.Netlist, rowSize int) (*Mapping, error) {
	return MapWith(nl, rowSize, Opts{})
}

// MapWith schedules the netlist into a single row of rowSize cells. The
// netlist must be in NOR form (see Netlist.LowerToNOR). Inputs are pinned
// to cells [0, NumInputs); all other cells are working cells. An error is
// returned if the circuit cannot fit.
func MapWith(nl *netlist.Netlist, rowSize int, opts Opts) (*Mapping, error) {
	if opts.Order == OrderAuto {
		cuOpts := opts
		cuOpts.Order = OrderCU
		if m, err := MapWith(nl, rowSize, cuOpts); err == nil {
			return m, nil
		}
		opts.Order = OrderTopo
	}
	return mapWith(nl, rowSize, opts)
}

func mapWith(nl *netlist.Netlist, rowSize int, opts Opts) (*Mapping, error) {
	if !nl.IsNORForm() {
		return nil, fmt.Errorf("synth: netlist %q is not in NOR form", nl.Name())
	}
	if nl.NumInputs() >= rowSize {
		return nil, fmt.Errorf("synth: %d inputs do not fit in a %d-cell row", nl.NumInputs(), rowSize)
	}

	m := &mapper{
		nl:        nl,
		opts:      opts,
		out:       &Mapping{Netlist: nl, RowSize: rowSize, CellOf: make(map[int]int)},
		cellOf:    make([]int, nl.NumNodes()),
		computed:  make([]bool, nl.NumNodes()),
		isOutput:  make([]bool, nl.NumNodes()),
		reachable: markReachable(nl),
	}
	// Liveness counts only reachable consumers: a value is dead once the
	// last gate that will actually execute has consumed it.
	m.refs = make([]int, nl.NumNodes())
	for id := 0; id < nl.NumNodes(); id++ {
		if !m.reachable[id] {
			continue
		}
		g := nl.Gate(id)
		switch g.Op {
		case netlist.Not, netlist.Buf:
			m.refs[g.A]++
		case netlist.Nor:
			m.refs[g.A]++
			m.refs[g.B]++
		}
	}
	for i := range m.cellOf {
		m.cellOf[i] = -1
	}
	for _, id := range nl.Outputs() {
		m.isOutput[id] = true
	}
	// Pin inputs.
	for i, id := range nl.Inputs() {
		m.cellOf[id] = i
		m.computed[id] = true
	}
	// Working cells start dirty (unknown state): the first allocation
	// triggers one batch init covering the whole working region.
	for c := nl.NumInputs(); c < rowSize; c++ {
		m.dirty = append(m.dirty, c)
	}

	m.computeCU()
	if err := m.run(); err != nil {
		return nil, err
	}

	m.out.CellOf = make(map[int]int, nl.NumInputs()+nl.NumOutputs())
	for _, id := range nl.Inputs() {
		m.out.CellOf[id] = m.cellOf[id]
	}
	for _, id := range nl.Outputs() {
		m.out.CellOf[id] = m.cellOf[id]
	}
	return m.out, nil
}

type mapper struct {
	nl        *netlist.Netlist
	opts      Opts
	out       *Mapping
	cu        []int
	cellOf    []int
	refs      []int // remaining reachable consumers per node
	computed  []bool
	isOutput  []bool
	reachable []bool

	free  []int // initialized, ready-to-write cells
	dirty []int // released cells awaiting batch init
	live  int
}

// markReachable flags every node on a path to a primary output.
func markReachable(nl *netlist.Netlist) []bool {
	reach := make([]bool, nl.NumNodes())
	stack := append([]int(nil), nl.Outputs()...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reach[id] {
			continue
		}
		reach[id] = true
		g := nl.Gate(id)
		switch g.Op {
		case netlist.Not, netlist.Buf:
			stack = append(stack, g.A)
		case netlist.Nor:
			stack = append(stack, g.A, g.B)
		}
	}
	return reach
}

// computeCU fills the Sethi-Ullman-style cell-usage estimate. Sources
// cost 0 (inputs are pinned, constants are written on demand); a gate's
// CU is max over its CU-descending-sorted children of (CU(child)+index),
// but at least 1 for its own output cell.
func (m *mapper) computeCU() {
	m.cu = make([]int, m.nl.NumNodes())
	for id := 0; id < m.nl.NumNodes(); id++ {
		g := m.nl.Gate(id)
		switch g.Op {
		case netlist.Input, netlist.Const0, netlist.Const1:
			m.cu[id] = 0
		case netlist.Not, netlist.Buf:
			m.cu[id] = maxInt(m.cu[g.A], 1)
		default: // Nor
			a, b := m.cu[g.A], m.cu[g.B]
			if a < b {
				a, b = b, a
			}
			m.cu[id] = maxInt(maxInt(a, b+1), 1)
		}
	}
}

// run executes the scheduling pass in the configured order.
func (m *mapper) run() error {
	if m.opts.Order == OrderTopo {
		for id := 0; id < m.nl.NumNodes(); id++ {
			if !m.reachable[id] || m.computed[id] {
				continue
			}
			if op := m.nl.Gate(id).Op; op == netlist.Input {
				continue
			}
			if err := m.execute(id); err != nil {
				return err
			}
		}
		return nil
	}
	// OrderCU: outputs in decreasing-CU order, each evaluated by an
	// explicit-stack DFS that visits higher-CU children first.
	outs := append([]int(nil), m.nl.Outputs()...)
	sort.SliceStable(outs, func(i, j int) bool { return m.cu[outs[i]] > m.cu[outs[j]] })

	for _, root := range outs {
		if err := m.eval(root); err != nil {
			return err
		}
	}
	return nil
}

// eval computes node root and everything it depends on.
func (m *mapper) eval(root int) error {
	type frame struct {
		node    int
		visited bool
	}
	stack := []frame{{node: root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if m.computed[f.node] {
			stack = stack[:len(stack)-1]
			continue
		}
		g := m.nl.Gate(f.node)
		if !f.visited {
			f.visited = true
			// Push children, higher-CU child evaluated first.
			switch g.Op {
			case netlist.Not, netlist.Buf:
				if !m.computed[g.A] {
					stack = append(stack, frame{node: g.A})
				}
			case netlist.Nor:
				a, b := g.A, g.B
				if m.cu[a] < m.cu[b] {
					a, b = b, a
				}
				// Pushed in reverse so `a` (higher CU) pops first.
				if !m.computed[b] {
					stack = append(stack, frame{node: b})
				}
				if !m.computed[a] {
					stack = append(stack, frame{node: a})
				}
			}
			continue
		}
		// Children ready: execute this node.
		if err := m.execute(f.node); err != nil {
			return err
		}
		stack = stack[:len(stack)-1]
	}
	return nil
}

// execute emits the step computing node id and updates liveness.
func (m *mapper) execute(id int) error {
	g := m.nl.Gate(id)
	cell, err := m.alloc()
	if err != nil {
		return err
	}
	m.cellOf[id] = cell
	m.computed[id] = true

	switch g.Op {
	case netlist.Const0, netlist.Const1:
		m.out.Steps = append(m.out.Steps, Step{
			Kind: StepConst, Node: id, Cell: cell,
			Value: g.Op == netlist.Const1, Critical: m.isOutput[id],
		})
		m.out.ConstCycles++
	case netlist.Not, netlist.Buf:
		m.out.Steps = append(m.out.Steps, Step{
			Kind: StepGate, Node: id, Cell: cell,
			A: m.cellOf[g.A], B: m.cellOf[g.A], IsNot: true,
			Critical: m.isOutput[id],
		})
		m.out.GateCycles++
		m.release(g.A)
	case netlist.Nor:
		m.out.Steps = append(m.out.Steps, Step{
			Kind: StepGate, Node: id, Cell: cell,
			A: m.cellOf[g.A], B: m.cellOf[g.B],
			Critical: m.isOutput[id],
		})
		m.out.GateCycles++
		m.release(g.A)
		m.release(g.B)
	default:
		return fmt.Errorf("synth: unexpected op %v at node %d", g.Op, id)
	}
	return nil
}

// release notes one consumer of node id has executed, freeing its cell
// when the last consumer is done (inputs and outputs stay pinned).
func (m *mapper) release(id int) {
	m.refs[id]--
	if m.refs[id] > 0 {
		return
	}
	g := m.nl.Gate(id)
	if (g.Op == netlist.Input && !m.opts.ReuseInputs) || m.isOutput[id] {
		return
	}
	if c := m.cellOf[id]; c >= 0 {
		m.dirty = append(m.dirty, c)
		m.cellOf[id] = -1
		m.live--
	}
}

// alloc returns an initialized cell, emitting a batched init cycle when
// the initialized pool is exhausted.
func (m *mapper) alloc() (int, error) {
	if len(m.free) == 0 {
		if len(m.dirty) == 0 {
			return 0, fmt.Errorf("synth: row of %d cells exhausted (circuit needs more live cells)", m.out.RowSize)
		}
		batch := append([]int(nil), m.dirty...)
		sort.Ints(batch)
		m.out.Steps = append(m.out.Steps, Step{Kind: StepInit, Init: batch})
		m.out.InitCycles++
		m.free, m.dirty = m.dirty, nil
	}
	c := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	m.live++
	if used := m.nl.NumInputs() + m.live; used > m.out.PeakLive {
		m.out.PeakLive = used
	}
	return c, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
