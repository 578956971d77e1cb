package netlist

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildFullAdder returns a 1-bit full adder: inputs a,b,cin; outputs sum,cout.
func buildFullAdder() *Netlist {
	b := NewBuilder("fa")
	a, x, cin := b.Input(), b.Input(), b.Input()
	axb := b.Xor(a, x)
	sum := b.Xor(axb, cin)
	cout := b.Or(b.And(a, x), b.And(axb, cin))
	b.Output(sum)
	b.Output(cout)
	return b.Build()
}

func TestFullAdderTruthTable(t *testing.T) {
	fa := buildFullAdder()
	for v := 0; v < 8; v++ {
		a, x, c := v&1 != 0, v&2 != 0, v&4 != 0
		out := fa.Eval([]bool{a, x, c})
		n := 0
		for _, bit := range []bool{a, x, c} {
			if bit {
				n++
			}
		}
		if out[0] != (n%2 == 1) || out[1] != (n >= 2) {
			t.Fatalf("FA(%v,%v,%v) = %v", a, x, c, out)
		}
	}
}

func TestAllOpsEval(t *testing.T) {
	b := NewBuilder("ops")
	x, y := b.Input(), b.Input()
	outs := []int{
		b.Not(x), b.And(x, y), b.Or(x, y), b.Nand(x, y),
		b.Nor(x, y), b.Xor(x, y), b.Xnor(x, y), b.Mux(x, y, b.Not(y)),
	}
	b.OutputBus(outs)
	nl := b.Build()
	for v := 0; v < 4; v++ {
		xv, yv := v&1 != 0, v&2 != 0
		got := nl.Eval([]bool{xv, yv})
		want := []bool{
			!xv, xv && yv, xv || yv, !(xv && yv),
			!(xv || yv), xv != yv, xv == yv,
			map[bool]bool{true: yv, false: !yv}[xv],
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("v=%d output %d: got %v want %v", v, i, got[i], want[i])
			}
		}
	}
}

func TestStructuralHashingDedupes(t *testing.T) {
	b := NewBuilder("cse")
	x, y := b.Input(), b.Input()
	g1 := b.And(x, y)
	g2 := b.And(x, y)
	g3 := b.And(y, x) // commutative normalization
	if g1 != g2 || g1 != g3 {
		t.Fatalf("CSE failed: %d %d %d", g1, g2, g3)
	}
}

func TestConstantFolding(t *testing.T) {
	b := NewBuilder("fold")
	x := b.Input()
	if b.And(x, b.Const(true)) != x {
		t.Error("x∧1 should fold to x")
	}
	if got := b.And(x, b.Const(false)); got != b.Const(false) {
		t.Error("x∧0 should fold to 0")
	}
	if b.Or(x, b.Const(false)) != x {
		t.Error("x∨0 should fold to x")
	}
	if got := b.Or(x, b.Const(true)); got != b.Const(true) {
		t.Error("x∨1 should fold to 1")
	}
	if b.Xor(x, b.Const(false)) != x {
		t.Error("x⊕0 should fold to x")
	}
	if b.Xor(x, b.Const(true)) != b.Not(x) {
		t.Error("x⊕1 should fold to ¬x")
	}
	if b.Not(b.Not(x)) != x {
		t.Error("¬¬x should fold to x")
	}
	if b.And(x, x) != x {
		t.Error("x∧x should fold to x")
	}
	if b.Xor(x, x) != b.Const(false) {
		t.Error("x⊕x should fold to 0")
	}
}

func TestBuildInsertsBufForInputOutput(t *testing.T) {
	b := NewBuilder("passthrough")
	x := b.Input()
	b.Output(x)
	b.Output(x)
	nl := b.Build()
	if nl.NumOutputs() != 2 {
		t.Fatal("lost an output")
	}
	o0, o1 := nl.Outputs()[0], nl.Outputs()[1]
	if o0 == o1 {
		t.Fatal("aliased outputs were not split")
	}
	for _, o := range []int{o0, o1} {
		if nl.Gate(o).Op != Buf {
			t.Fatalf("output driver is %v, want buf", nl.Gate(o).Op)
		}
	}
	out := nl.Eval([]bool{true})
	if !out[0] || !out[1] {
		t.Fatal("buffered outputs wrong")
	}
}

func TestLowerToNORPreservesSemantics(t *testing.T) {
	fa := buildFullAdder()
	nor := fa.LowerToNOR()
	if !nor.IsNORForm() {
		t.Fatal("lowered netlist is not NOR-form")
	}
	for v := 0; v < 8; v++ {
		in := []bool{v&1 != 0, v&2 != 0, v&4 != 0}
		a, b := fa.Eval(in), nor.Eval(in)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("input %d output %d differs after lowering", v, i)
			}
		}
	}
}

func TestLowerToNORRandomCircuitsProperty(t *testing.T) {
	// Random DAGs of mixed ops must survive lowering bit-exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder("rand")
		nodes := b.InputBus(4 + rng.Intn(5))
		for i := 0; i < 30+rng.Intn(40); i++ {
			x := nodes[rng.Intn(len(nodes))]
			y := nodes[rng.Intn(len(nodes))]
			var id int
			switch rng.Intn(7) {
			case 0:
				id = b.And(x, y)
			case 1:
				id = b.Or(x, y)
			case 2:
				id = b.Xor(x, y)
			case 3:
				id = b.Nand(x, y)
			case 4:
				id = b.Nor(x, y)
			case 5:
				id = b.Xnor(x, y)
			default:
				id = b.Not(x)
			}
			nodes = append(nodes, id)
		}
		for i := 0; i < 5; i++ {
			b.Output(nodes[len(nodes)-1-i])
		}
		nl := b.Build()
		nor := nl.LowerToNOR()
		if !nor.IsNORForm() {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			in := make([]bool, nl.NumInputs())
			for j := range in {
				in[j] = rng.Intn(2) == 0
			}
			a, c := nl.Eval(in), nor.Eval(in)
			for j := range a {
				if a[j] != c[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLowerToNOROutputsHaveDistinctDrivers(t *testing.T) {
	b := NewBuilder("alias")
	x, y := b.Input(), b.Input()
	g := b.And(x, y)
	b.Output(g)
	b.Output(g) // same driver twice
	b.Output(x) // input as output
	nor := b.Build().LowerToNOR()
	seen := make(map[int]bool)
	for _, o := range nor.Outputs() {
		if seen[o] {
			t.Fatal("two outputs share a driver after lowering")
		}
		seen[o] = true
		op := nor.Gate(o).Op
		if op != Nor && op != Not {
			t.Fatalf("output driver op = %v", op)
		}
	}
}

func TestXorLoweringGateBudget(t *testing.T) {
	// XOR should lower to 5 NOR-basis gates, XNOR to 4 (the counts the
	// paper's XOR3-in-8-NORs relies on).
	bx := NewBuilder("x")
	a, c := bx.Input(), bx.Input()
	bx.Output(bx.Xor(a, c))
	if got := bx.Build().LowerToNOR().GateCount(); got != 5 {
		t.Fatalf("XOR lowered to %d gates, want 5", got)
	}
	bn := NewBuilder("xn")
	a, c = bn.Input(), bn.Input()
	bn.Output(bn.Xnor(a, c))
	if got := bn.Build().LowerToNOR().GateCount(); got != 4 {
		t.Fatalf("XNOR lowered to %d gates, want 4", got)
	}
}

func TestLevels(t *testing.T) {
	fa := buildFullAdder()
	_, depth := fa.Levels()
	if depth < 2 || depth > 6 {
		t.Fatalf("full-adder depth = %d, implausible", depth)
	}
}

func TestEvalWrongArityPanics(t *testing.T) {
	fa := buildFullAdder()
	defer func() {
		if recover() == nil {
			t.Fatal("Eval with wrong input count did not panic")
		}
	}()
	fa.Eval([]bool{true})
}

func TestOpString(t *testing.T) {
	if Nor.String() != "nor" || Input.String() != "input" {
		t.Fatal("op names")
	}
}

func TestGateAndOpCounts(t *testing.T) {
	fa := buildFullAdder()
	if fa.GateCount() == 0 || fa.CountOp(Xor) != 2 {
		t.Fatalf("GateCount=%d CountOp(Xor)=%d", fa.GateCount(), fa.CountOp(Xor))
	}
	if fa.NumInputs() != 3 || fa.NumOutputs() != 2 {
		t.Fatal("I/O counts")
	}
}
