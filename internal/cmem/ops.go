package cmem

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/ecc"
	"repro/internal/shifter"
	"repro/internal/xbar"
)

// This file implements the two CMEM operations the paper defines:
//
//   - UpdateCritical — steps 1 and 3 of the critical-operation protocol:
//     cancel the old data's effect on the check bits and add the new
//     data's effect, computed as check ⊕ old ⊕ new with one XOR3 per
//     family in a processing crossbar.
//   - CheckLine — the before-execution ECC check of a whole row (column)
//     of blocks: copy the m constituent MEM lines into a processing
//     crossbar, XOR them down to recomputed parities, fold in the stored
//     check bits to form syndromes, flag non-zero syndromes in the
//     checking crossbar, and let the controller decode + correct.

// CriticalUpdate captures the data movement of one critical MEM operation
// for the CMEM: the written line's old and new contents.
type CriticalUpdate struct {
	Orientation shifter.Orientation
	Index       int         // the written column (RowParallel) or row (ColParallel)
	Old, New    *bitmat.Vec // full line contents before/after (length n)
}

// UpdateCritical performs the check-bit update for one critical operation
// on processing crossbar pc. The PC receives the old data, new data and
// current check bits (routed through the shifters / connection unit),
// computes XOR3 in 8 NOR cycles per family, and writes the result back to
// the check-bit crossbars.
func (c *CMEM) UpdateCritical(pcID int, u CriticalUpdate) {
	if pcID < 0 || pcID >= len(c.pcs) {
		panic(fmt.Sprintf("cmem: processing crossbar %d out of range [0,%d)", pcID, len(c.pcs)))
	}
	if u.Old.Len() != c.cfg.N || u.New.Len() != c.cfg.N {
		panic("cmem: critical update vectors must have length n")
	}
	pc := c.pcs[pcID]
	shift := u.Index % c.cfg.M
	blockIdx := u.Index / c.cfg.M

	for _, f := range []shifter.Family{shifter.Leading, shifter.Counter} {
		strip := pc.lead
		if f == shifter.Counter {
			strip = pc.counter
		}
		// Transfers into the PC: old data, new data, check bits. Each is a
		// parallel line transfer through the shifters (MAGIC-NOT-like, one
		// cycle each). Routing stages through a single scratch vector, so
		// each routed line is written to the strip before the next route.
		strip.WriteRow(xbar.XOR3RowA, c.routePacked(u.Old, shift, f, u.Orientation))
		strip.WriteRow(xbar.XOR3RowB, c.routePacked(u.New, shift, f, u.Orientation))
		c.checkVecInto(c.routeScratch, f, u.Orientation, blockIdx)
		strip.WriteRow(xbar.XOR3RowC, c.routeScratch)
		c.xferCyc += 3

		strip.XOR3Cols(0, c.allCols)

		// Write-back through the connection unit (read-only, so the live
		// strip row needs no defensive copy).
		c.writeCheckVec(f, u.Orientation, blockIdx, strip.Mat().Row(xbar.XOR3RowOut))
		c.xferCyc++
	}
}

// PCBusyCycles is the number of cycles a processing crossbar is occupied
// per critical operation under the sequential-family schedule: per family,
// 3 transfer-in cycles + 1 init + 8 NOR cycles + 1 write-back.
const PCBusyCycles = 2 * (3 + 1 + xbar.XOR3CyclesPerBit + 1)

// CriticalUpdateMEMCycles is the number of cycles MEM itself is occupied
// by one critical operation: the old-value and new-value transfers into
// the processing crossbar. The XOR3 delta fold runs inside the PC
// pipeline (PCBusyCycles), overlapped with subsequent MEM operations, so
// from the memory's point of view a critical update costs only the two
// copies — the Θ(1) claim the serving layer's compute cost model charges.
const CriticalUpdateMEMCycles = 2

// CheckLine verifies and repairs one row of blocks (orientation
// RowParallel checks block-column `blockIdx`; ColParallel checks block-row
// `blockIdx`... following the paper we describe the block-row case). The
// m MEM lines of the block line are copied into processing crossbar pcID
// (m MAGIC NOT transfers — the only cycles during which MEM is occupied),
// parities are recomputed with an XOR3 accumulation tree, stored check
// bits are folded in to give syndromes, non-zero block syndromes are
// flagged via the checking crossbar, and single errors are corrected
// directly in mem and in the check-bit crossbars.
//
// It returns the per-block diagnoses for blocks that were not clean.
func (c *CMEM) CheckLine(mem *xbar.Crossbar, o shifter.Orientation, blockIdx int, pcID int) map[int]ecc.Diagnosis {
	if pcID < 0 || pcID >= len(c.pcs) {
		panic(fmt.Sprintf("cmem: processing crossbar %d out of range", pcID))
	}
	m, g := c.cfg.M, c.geom.BlocksPerSide()
	pc := c.pcs[pcID]

	// Recompute parities per family by accumulating the m routed lines.
	var synLead, synCounter *bitmat.Vec
	for _, f := range []shifter.Family{shifter.Leading, shifter.Counter} {
		strip := pc.lead
		if f == shifter.Counter {
			strip = pc.counter
		}
		acc := c.accScratch // parity accumulator (starts zero)
		acc.Zero()
		for l := 0; l < m; l++ {
			var line *bitmat.Vec
			if o == shifter.ColParallel {
				// Checking block-row blockIdx: copy MEM row blockIdx·m+l.
				line = mem.ReadRow(blockIdx*m + l)
			} else {
				// Checking block-column blockIdx: copy MEM column.
				line = mem.Mat().Col(blockIdx*m + l)
				mem.Tick() // column transfer occupies MEM one cycle
			}
			routed := c.routePacked(line, l, f, o)
			c.xferCyc++

			// Fold into the accumulator with XOR3(acc, routed, 0) executed
			// in the PC strip; pairs of lines could share one XOR3, which
			// the cycle model below accounts for.
			strip.WriteRow(xbar.XOR3RowA, acc)
			strip.WriteRow(xbar.XOR3RowB, routed)
			strip.ClearRowInCols(xbar.XOR3RowC, c.allCols)
			strip.XOR3Cols(0, c.allCols)
			acc.CopyFrom(strip.Mat().Row(xbar.XOR3RowOut))
		}
		// Fold in the stored check bits: syndrome = parity ⊕ check.
		c.checkVecInto(c.routeScratch, f, o, blockIdx)
		strip.WriteRow(xbar.XOR3RowA, acc)
		strip.WriteRow(xbar.XOR3RowB, c.routeScratch)
		strip.ClearRowInCols(xbar.XOR3RowC, c.allCols)
		strip.XOR3Cols(0, c.allCols)
		if f == shifter.Leading {
			synLead = strip.Mat().Row(xbar.XOR3RowOut).Clone()
		} else {
			synCounter = strip.Mat().Row(xbar.XOR3RowOut).Clone()
		}
	}

	// Transfer syndromes to the checking crossbar (leading family in cells
	// [0,n), counter in [n,2n)) as two word-level range copies.
	checkRow := c.checking.Mat().Row(0)
	checkRow.CopyRange(0, synLead, 0, c.cfg.N)
	checkRow.CopyRange(c.cfg.N, synCounter, 0, c.cfg.N)
	c.checking.Tick() // syndrome transfer cycle
	// Zero-compare of each block's 2m syndrome bits via a MAGIC NOR
	// reduction tree; modeled as ceil(log2(2m))+1 cycles.
	for k := 1; k < 2*m; k *= 2 {
		c.checking.Tick()
	}
	c.checking.Tick()

	// Controller: decode flagged blocks and correct (Section IV-A4).
	out := make(map[int]ecc.Diagnosis)
	for b := 0; b < g; b++ {
		lead := bitmat.NewVec(m)
		counter := bitmat.NewVec(m)
		for d := 0; d < m; d++ {
			lead.Set(d, synLead.Get(d*g+b))
			counter.Set(d, synCounter.Get(d*g+b))
		}
		if !lead.Any() && !counter.Any() {
			continue
		}
		diag := ecc.Decode(c.geom, lead.Uint64(), counter.Uint64())
		c.correct(mem, o, blockIdx, b, diag)
		out[b] = diag
	}
	return out
}

// correct applies a decoded repair for the block at line position b of the
// checked block line.
func (c *CMEM) correct(mem *xbar.Crossbar, o shifter.Orientation, blockIdx, b int, d ecc.Diagnosis) {
	var br, bc int
	if o == shifter.ColParallel {
		br, bc = blockIdx, b
	} else {
		br, bc = b, blockIdx
	}
	switch d.Kind {
	case ecc.DataError:
		mem.Write(br*c.cfg.M+d.LR, bc*c.cfg.M+d.LC, !mem.Get(br*c.cfg.M+d.LR, bc*c.cfg.M+d.LC))
	case ecc.LeadCheckError:
		c.lead[d.Diag].Write(br, bc, !c.lead[d.Diag].Get(br, bc))
	case ecc.CounterCheckError:
		c.counter[d.Diag].Write(br, bc, !c.counter[d.Diag].Get(br, bc))
	}
}

// CheckLineMEMCycles is the number of cycles MEM is occupied by one
// CheckLine: the m line copies out of MEM. Everything afterwards runs in
// the CMEM pipeline while MEM proceeds with non-critical work.
func CheckLineMEMCycles(m int) int { return m }
