// Quickstart: create a protected crossbar, store data, corrupt it with a
// soft error, and watch the diagonal ECC locate and repair the exact bit.
package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bitmat"
	"repro/internal/core"
	"repro/internal/shifter"
)

func main() {
	// A 45×45 memristive crossbar with 15×15 ECC blocks and 2 processing
	// crossbars — the smallest geometry with a 3×3 grid of blocks.
	m, err := core.NewProtectedMachine(45, 15, 2)
	if err != nil {
		panic(err)
	}

	// Store random data through the controller write path; check bits are
	// maintained along the writes, as in a conventional ECC memory.
	rng := rand.New(rand.NewSource(7))
	for r := 0; r < 45; r++ {
		row := bitmat.NewVec(45)
		for c := 0; c < 45; c++ {
			row.Set(c, rng.Intn(2) == 0)
		}
		m.LoadRow(r, row)
	}
	fmt.Println("loaded 45×45 bits; CMEM consistent:", m.CheckConsistent())

	// A soft error flips a stored bit...
	before := m.MEM().Get(17, 31)
	m.InjectDataFault(17, 31)
	fmt.Printf("injected soft error at (17,31): %v → %v\n", before, m.MEM().Get(17, 31))

	// ...and the periodic scrub finds and repairs it from the block
	// syndromes — the XOR folds the paper's check memory computes with
	// MAGIC XOR3, here evaluated word-parallel.
	corrected, uncorrectable := m.Scrub()
	fmt.Printf("scrub: corrected=%d uncorrectable=%d; bit restored: %v\n",
		corrected, uncorrectable, m.MEM().Get(17, 31) == before)

	// Check bits are themselves memristive and protected too.
	m.InjectCheckFault(shifter.Leading, 3, 1, 1)
	corrected, _ = m.Scrub()
	fmt.Printf("check-bit fault repaired: corrected=%d, consistent=%v\n",
		corrected, m.CheckConsistent())
}
