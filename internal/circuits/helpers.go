// Package circuits generates the benchmark suite the paper evaluates
// latency on (Table I uses the EPFL combinational benchmarks). The EPFL
// netlist files are not redistributable inside this offline build, so
// each benchmark is regenerated structurally with the same I/O signature
// and comparable gate counts, and — where the EPFL circuit has a crisp
// semantic (adder, bar, dec, max, priority, int2float, voter) — the same
// function. Every benchmark carries a bit-exact Go reference model used
// by the property tests. See DESIGN.md for the substitution rationale.
package circuits

import "repro/internal/netlist"

// --- builder-side helpers ---------------------------------------------------

// addRCA builds a ripple-carry adder over equal-width buses, returning
// the sum bus and the carry-out node.
func addRCA(b *netlist.Builder, a, x []int, cin int) (sum []int, cout int) {
	if len(a) != len(x) {
		panic("circuits: addRCA width mismatch")
	}
	sum = make([]int, len(a))
	carry := cin
	for i := range a {
		axb := b.Xor(a[i], x[i])
		sum[i] = b.Xor(axb, carry)
		carry = b.Or(b.And(a[i], x[i]), b.And(axb, carry))
	}
	return sum, carry
}

// muxBus selects a (s=1) or x (s=0) element-wise.
func muxBus(b *netlist.Builder, s int, a, x []int) []int {
	if len(a) != len(x) {
		panic("circuits: muxBus width mismatch")
	}
	out := make([]int, len(a))
	for i := range a {
		out[i] = b.Mux(s, a[i], x[i])
	}
	return out
}

// geUnsigned returns a ≥ x for equal-width unsigned buses (bit 0 = LSB),
// via the LSB→MSB recurrence ge = (a_i > x_i) ∨ ((a_i = x_i) ∧ ge_prev).
func geUnsigned(b *netlist.Builder, a, x []int) int {
	if len(a) != len(x) {
		panic("circuits: geUnsigned width mismatch")
	}
	ge := b.Const(true) // a ≥ x over the empty prefix
	for i := 0; i < len(a); i++ {
		gt := b.And(a[i], b.Not(x[i]))
		eq := b.Xnor(a[i], x[i])
		ge = b.Or(gt, b.And(eq, ge))
	}
	return ge
}

// rotateLeft builds a logarithmic barrel rotator: out[i] = data[(i+shift)
// mod len(data)]. shift is a binary bus (LSB first); only the bits needed
// to cover the data length are consumed.
func rotateLeft(b *netlist.Builder, data []int, shift []int) []int {
	n := len(data)
	cur := append([]int(nil), data...)
	for s := 0; s < len(shift) && (1<<s) < n; s++ {
		amt := 1 << s
		next := make([]int, n)
		for i := 0; i < n; i++ {
			next[i] = b.Mux(shift[s], cur[(i+amt)%n], cur[i])
		}
		cur = next
	}
	return cur
}

// priorityEncode returns (index bus of width idxW, valid) for the
// lowest-index set bit of req.
func priorityEncode(b *netlist.Builder, req []int, idxW int) ([]int, int) {
	idx := make([]int, idxW)
	for i := range idx {
		idx[i] = b.Const(false)
	}
	valid := b.Const(false)
	// Walk from highest index down so lower indices override.
	for i := len(req) - 1; i >= 0; i-- {
		for j := 0; j < idxW; j++ {
			bit := b.Const(i&(1<<j) != 0)
			idx[j] = b.Mux(req[i], bit, idx[j])
		}
		valid = b.Or(valid, req[i])
	}
	return idx, valid
}

// popcount reduces bits to a binary count using a full-adder compressor
// tree (weight buckets, 3:2 compression) — the structure of the EPFL
// voter's counting core. Compression is interleaved round-robin across
// weights so that carries are consumed soon after they are produced,
// keeping the number of simultaneously live values (and hence the SIMPLER
// row pressure) low.
func popcount(b *netlist.Builder, bits []int, outW int) []int {
	buckets := make([][]int, outW+1)
	buckets[0] = append([]int(nil), bits...)
	for {
		progress := false
		for w := 0; w < outW; w++ {
			if len(buckets[w]) >= 3 {
				x, y, z := buckets[w][0], buckets[w][1], buckets[w][2]
				buckets[w] = buckets[w][3:]
				s, c := fullAdd(b, x, y, z)
				buckets[w] = append(buckets[w], s)
				buckets[w+1] = append(buckets[w+1], c)
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	// Final cleanup: halve any remaining pairs with half adders, lowest
	// weight first (a pair at weight w can create a carry at w+1).
	for w := 0; w < outW; w++ {
		for len(buckets[w]) >= 2 {
			x, y := buckets[w][0], buckets[w][1]
			buckets[w] = buckets[w][2:]
			s := b.Xor(x, y)
			c := b.And(x, y)
			buckets[w] = append(buckets[w], s)
			buckets[w+1] = append(buckets[w+1], c)
			if len(buckets[w]) >= 3 {
				x, y, z := buckets[w][0], buckets[w][1], buckets[w][2]
				buckets[w] = buckets[w][3:]
				s, c := fullAdd(b, x, y, z)
				buckets[w] = append(buckets[w], s)
				buckets[w+1] = append(buckets[w+1], c)
			}
		}
	}
	out := make([]int, outW)
	for w := 0; w < outW; w++ {
		if len(buckets[w]) > 0 {
			out[w] = buckets[w][0]
		} else {
			out[w] = b.Const(false)
		}
	}
	return out
}

func fullAdd(b *netlist.Builder, x, y, z int) (sum, carry int) {
	xy := b.Xor(x, y)
	sum = b.Xor(xy, z)
	carry = b.Or(b.And(x, y), b.And(xy, z))
	return sum, carry
}

// mulUnsigned builds an array multiplier: a (wA bits) × x (wX bits) →
// wA+wX bits.
func mulUnsigned(b *netlist.Builder, a, x []int) []int {
	w := len(a) + len(x)
	acc := make([]int, w)
	for i := range acc {
		acc[i] = b.Const(false)
	}
	for j := range x {
		pp := make([]int, w)
		for i := range pp {
			pp[i] = b.Const(false)
		}
		for i := range a {
			pp[i+j] = b.And(a[i], x[j])
		}
		acc, _ = addRCA(b, acc, pp, b.Const(false))
	}
	return acc
}

// --- reference-side helpers -------------------------------------------------

// bitsToUint interprets bs (LSB first, ≤64 bits) as an unsigned integer.
func bitsToUint(bs []bool) uint64 {
	var v uint64
	for i, b := range bs {
		if b {
			v |= 1 << uint(i)
		}
	}
	return v
}

// uintToBits expands v into w bits, LSB first.
func uintToBits(v uint64, w int) []bool {
	out := make([]bool, w)
	for i := 0; i < w && i < 64; i++ {
		out[i] = v&(1<<uint(i)) != 0
	}
	return out
}

// geBits compares two equal-width unsigned bit slices (LSB first).
func geBits(a, x []bool) bool {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != x[i] {
			return a[i]
		}
	}
	return true
}

// addBits returns a+x (same width) and the carry-out.
func addBits(a, x []bool, cin bool) ([]bool, bool) {
	out := make([]bool, len(a))
	carry := cin
	for i := range a {
		s := a[i] != x[i] != carry
		carry = (a[i] && x[i]) || ((a[i] != x[i]) && carry)
		out[i] = s
	}
	return out, carry
}
