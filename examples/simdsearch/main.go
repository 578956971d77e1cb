// SIMD associative search: the crossbar acts as a content-addressable
// memory. Every row stores a key; a query-specific match circuit
// (the AND of each key bit or its complement) is synthesized on the fly,
// mapped by SIMPLER, and executed in all rows at once — each row answers
// "is my key equal to the query?" in the same clock cycles. A soft error
// flips a stored key bit; the protected design repairs it during the
// pre-execution input check, so the search still returns exactly the
// right row set, while a baseline would return a wrong match set.
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/machine"
	"repro/internal/netlist"
	"repro/internal/synth"
)

const (
	n    = 45 // crossbar side and number of stored keys
	keyW = 12 // key width in bits
)

func main() {
	// Synthesize the match circuit for a specific query.
	query := uint64(0xA5B & ((1 << keyW) - 1))
	mp := buildMatcher(query)
	fmt.Printf("query 0x%03X → matcher: %d NOR gates, %d cycles, SIMD over %d rows\n\n",
		query, mp.GateCycles, mp.Latency(), n)

	m, err := machine.New(machine.Config{N: n, M: 15, K: 2, ECCEnabled: true})
	if err != nil {
		panic(err)
	}

	// Store keys: three rows intentionally hold the query value.
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, n)
	inputs := make(map[int][]bool, n)
	expect := map[int]bool{}
	for r := 0; r < n; r++ {
		keys[r] = rng.Uint64() & ((1 << keyW) - 1)
		if r == 7 || r == 20 || r == 33 {
			keys[r] = query
		}
		expect[r] = keys[r] == query
		in := make([]bool, keyW)
		for i := 0; i < keyW; i++ {
			in[i] = keys[r]&(1<<uint(i)) != 0
		}
		inputs[r] = in
	}
	m.LoadInputs(mp, inputs)

	// A soft error corrupts one matching row's key in storage.
	m.InjectDataFault(20, 3)
	fmt.Println("injected a soft error into row 20's stored key (a matching row)")

	if err := m.ExecuteSIMD(mp, m.MEM().AllRows()); err != nil {
		panic(err)
	}

	var hits []int
	for r := 0; r < n; r++ {
		if m.ReadOutputs(mp, r)[0] {
			hits = append(hits, r)
		}
	}
	fmt.Printf("matches found: %v (corrections applied: %d)\n", hits, m.Stats().Corrections)

	exact := len(hits) == 3
	for _, h := range hits {
		exact = exact && expect[h]
	}
	if exact {
		fmt.Println("search is exact despite the fault — the input check repaired the key.")
	} else {
		fmt.Println("UNEXPECTED: match set wrong")
	}
}

// buildMatcher returns a SIMPLER mapping of `key == query` for a fixed
// query: each bit contributes the key bit or its complement to an AND
// reduction, which lowering turns into a NOR tree.
func buildMatcher(query uint64) *synth.Mapping {
	b := netlist.NewBuilder("matcher")
	key := b.InputBus(keyW)
	match := b.Const(true)
	for i := 0; i < keyW; i++ {
		lit := key[i]
		if query&(1<<uint(i)) == 0 {
			lit = b.Not(lit)
		}
		match = b.And(match, lit)
	}
	b.Output(match)
	mp, err := synth.Map(b.Build().LowerToNOR(), n)
	if err != nil {
		panic(err)
	}
	return mp
}
