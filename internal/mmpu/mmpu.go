// Package mmpu models the memory-level organization the paper assumes: a
// memristive Memory Processing Unit divided into banks, each consisting of
// many n×n crossbar arrays (Section II-A). The proposed ECC extensions are
// applied per crossbar; this package provides the counting and addressing
// glue used to scale per-crossbar reliability to a full memory (the 1GB
// memory of Fig 6).
package mmpu

import "fmt"

// Organization describes a memory built from identical crossbars.
type Organization struct {
	CrossbarN  int // crossbar side length (bits)
	Banks      int // number of banks
	PerBank    int // crossbars per bank
	TotalBytes int64
}

// GBMemory returns the paper's Fig 6 configuration: enough n×n crossbars
// to hold 1GB (2³³ bits) of data, split across `banks` banks.
func GBMemory(n, banks int) Organization {
	const bits = int64(1) << 33
	per := int64(n) * int64(n)
	count := int((bits + per - 1) / per)
	perBank := (count + banks - 1) / banks
	return Organization{CrossbarN: n, Banks: banks, PerBank: perBank, TotalBytes: 1 << 30}
}

// Crossbars returns the total crossbar count.
func (o Organization) Crossbars() int { return o.Banks * o.PerBank }

// DataBits returns the total data capacity in bits.
func (o Organization) DataBits() int64 {
	return int64(o.Crossbars()) * int64(o.CrossbarN) * int64(o.CrossbarN)
}

// Validate checks the organization is well formed.
func (o Organization) Validate() error {
	if o.CrossbarN <= 0 || o.Banks <= 0 || o.PerBank <= 0 {
		return fmt.Errorf("mmpu: non-positive organization field: %+v", o)
	}
	if o.DataBits() < 8*o.TotalBytes {
		return fmt.Errorf("mmpu: %d crossbars of %d² bits cannot hold %d bytes",
			o.Crossbars(), o.CrossbarN, o.TotalBytes)
	}
	return nil
}

// Address locates a bit within the memory.
type Address struct {
	Bank, Crossbar int // crossbar index within its bank
	Row, Col       int
}

// Locate maps a flat bit index to its physical location, filling crossbars
// row-major, banks outermost.
func (o Organization) Locate(bit int64) (Address, error) {
	if bit < 0 || bit >= o.DataBits() {
		return Address{}, fmt.Errorf("mmpu: bit %d out of range [0,%d)", bit, o.DataBits())
	}
	per := int64(o.CrossbarN) * int64(o.CrossbarN)
	xb := bit / per
	off := bit % per
	return Address{
		Bank:     int(xb) / o.PerBank,
		Crossbar: int(xb) % o.PerBank,
		Row:      int(off) / o.CrossbarN,
		Col:      int(off) % o.CrossbarN,
	}, nil
}

// FlatIndex is the inverse of Locate.
func (o Organization) FlatIndex(a Address) int64 {
	per := int64(o.CrossbarN) * int64(o.CrossbarN)
	xb := int64(a.Bank)*int64(o.PerBank) + int64(a.Crossbar)
	return xb*per + int64(a.Row)*int64(o.CrossbarN) + int64(a.Col)
}

// BankBits returns one bank's data capacity in bits — the span of flat
// addresses each bank owns (banks are outermost in the layout).
func (o Organization) BankBits() int64 {
	return int64(o.PerBank) * int64(o.CrossbarN) * int64(o.CrossbarN)
}

// BankOf returns the bank holding the given flat bit index.
func (o Organization) BankOf(bit int64) (int, error) {
	a, err := o.Locate(bit)
	if err != nil {
		return 0, err
	}
	return a.Bank, nil
}

// Segment is a contiguous run of bits that lies within a single crossbar
// row — the unit at which a flat address range touches physical storage.
type Segment struct {
	Bank, Crossbar int   // crossbar within its bank
	Row, Col       int   // start position within the crossbar
	Bits           int   // run length; Col+Bits <= CrossbarN
	Off            int64 // offset of the run within the requested range
}

// ForEachSegment decomposes the bit range [bit, bit+nbits) into its
// crossbar-row segments, in address order, invoking fn for each. The
// decomposition is exact: segments are disjoint, contiguous, and their
// lengths sum to nbits. Iteration stops early if fn returns an error.
func (o Organization) ForEachSegment(bit, nbits int64, fn func(Segment) error) error {
	if nbits < 0 {
		return fmt.Errorf("mmpu: negative range width %d", nbits)
	}
	// bit > DataBits()-nbits is the overflow-safe form of bit+nbits >
	// DataBits(): adversarial near-MaxInt64 starts must not wrap negative
	// and skate past the guard.
	if bit < 0 || nbits > o.DataBits() || bit > o.DataBits()-nbits {
		return fmt.Errorf("mmpu: range %d+%d outside [0,%d)", bit, nbits, o.DataBits())
	}
	var off int64
	for off < nbits {
		a, err := o.Locate(bit + off)
		if err != nil {
			return err
		}
		run := int64(o.CrossbarN - a.Col) // to the end of this row
		if rem := nbits - off; run > rem {
			run = rem
		}
		if err := fn(Segment{
			Bank: a.Bank, Crossbar: a.Crossbar,
			Row: a.Row, Col: a.Col, Bits: int(run), Off: off,
		}); err != nil {
			return err
		}
		off += run
	}
	return nil
}

// CrossbarID returns the flat crossbar index of (bank, crossbar-in-bank),
// banks outermost — the ordering Locate uses.
func (o Organization) CrossbarID(bank, xb int) int { return bank*o.PerBank + xb }

// CrossbarAt is the inverse of CrossbarID.
func (o Organization) CrossbarAt(id int) (bank, xb int) {
	return id / o.PerBank, id % o.PerBank
}

// ForEachCrossbar invokes fn for every crossbar in flat order.
func (o Organization) ForEachCrossbar(fn func(bank, xb int)) {
	for b := 0; b < o.Banks; b++ {
		for x := 0; x < o.PerBank; x++ {
			fn(b, x)
		}
	}
}

// ShardBanks partitions the bank indices into `shards` balanced contiguous
// groups for per-bank worker pools: every bank appears in exactly one
// shard, so one worker owns all crossbars of its banks and no locking is
// needed. More shards than banks yields trailing empty shards.
func (o Organization) ShardBanks(shards int) [][]int {
	if shards <= 0 {
		shards = 1
	}
	out := make([][]int, shards)
	base, extra := o.Banks/shards, o.Banks%shards
	next := 0
	for s := 0; s < shards; s++ {
		n := base
		if s < extra {
			n++
		}
		for i := 0; i < n; i++ {
			out[s] = append(out[s], next)
			next++
		}
	}
	return out
}

// Custom returns an organization with explicit bank/crossbar counts (no
// capacity target), for fleet simulations at arbitrary scale.
func Custom(n, banks, perBank int) Organization {
	return Organization{CrossbarN: n, Banks: banks, PerBank: perBank}
}

// NodeMap assigns the organization's banks to fleet nodes in balanced
// contiguous ranges — the network-level analogue of ShardBanks. Routing is
// a pure function of (organization, node count): every client and every
// node derives the identical map from the shared geometry flags, so the
// fleet needs no routing metadata service. Contiguity is the invariant
// the address translation leans on: node i owns banks [Range(i)), and a
// global flat bit translates to the node-local address space by
// subtracting the range start's bit offset.
type NodeMap struct {
	org    Organization
	starts []int // starts[i] = first bank of node i; len = nodes+1
}

// ShardNodes splits the banks across `nodes` fleet nodes using the same
// balanced-contiguous split ShardBanks uses for worker pools, so the two
// layers of sharding (banks→nodes across the network, banks→workers
// within a node) compose without overlap.
func (o Organization) ShardNodes(nodes int) NodeMap {
	if nodes <= 0 {
		nodes = 1
	}
	if nodes > o.Banks {
		nodes = o.Banks
	}
	m := NodeMap{org: o, starts: make([]int, nodes+1)}
	base, extra := o.Banks/nodes, o.Banks%nodes
	next := 0
	for i := 0; i < nodes; i++ {
		m.starts[i] = next
		next += base
		if i < extra {
			next++
		}
	}
	m.starts[nodes] = next
	return m
}

// Nodes returns the node count.
func (m NodeMap) Nodes() int { return len(m.starts) - 1 }

// Range returns the contiguous bank range [lo, hi) node i owns.
func (m NodeMap) Range(node int) (lo, hi int) {
	return m.starts[node], m.starts[node+1]
}

// NodeOf returns the node owning the given bank.
func (m NodeMap) NodeOf(bank int) int {
	// Linear scan: node counts are small (a handful of processes), and the
	// starts slice is cache-resident.
	for i := 1; i < len(m.starts); i++ {
		if bank < m.starts[i] {
			return i - 1
		}
	}
	return len(m.starts) - 2
}

// NodeOfBit returns the node owning the given global flat bit index.
func (m NodeMap) NodeOfBit(bit int64) (int, error) {
	bank, err := m.org.BankOf(bit)
	if err != nil {
		return 0, err
	}
	return m.NodeOf(bank), nil
}

// LocalOrg returns the organization of one node's shard: the same
// crossbar geometry over only the banks the node owns. The shard drops
// the capacity target — it is a slice of the global memory, not a full
// one.
func (m NodeMap) LocalOrg(node int) Organization {
	lo, hi := m.Range(node)
	return Organization{CrossbarN: m.org.CrossbarN, Banks: hi - lo, PerBank: m.org.PerBank}
}

// ToLocal translates a global flat bit index into node-local address
// space. The caller must route to the correct node first (NodeOfBit);
// spans that start in the node's range may still leak past its end — the
// node's own bounds checks reject those.
func (m NodeMap) ToLocal(node int, bit int64) int64 {
	lo, _ := m.Range(node)
	return bit - int64(lo)*m.org.BankBits()
}

// ToGlobal is the inverse of ToLocal.
func (m NodeMap) ToGlobal(node int, local int64) int64 {
	lo, _ := m.Range(node)
	return local + int64(lo)*m.org.BankBits()
}
