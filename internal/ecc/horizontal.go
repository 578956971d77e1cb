package ecc

// This file profiles the strawman the paper rejects in Section III /
// Fig 2(a) — check bits computed over horizontal groups of data bits (the
// parity and hamming word codes) — against the diagonal placement, so the
// update-cost asymmetry the diagonal code was invented for can be
// demonstrated and tested quantitatively.

// TouchProfile describes how a parallel write maps onto a code's check
// bits: for each affected check bit, how many of its covered data bits
// changed. MaxPerCheck is the quantity that determines update cost — a
// code supports Θ(1) continuous update only if it is ≤ 1 for every
// parallel operation the substrate can perform.
type TouchProfile struct {
	ChecksTouched int // number of check bits with ≥1 changed data bit
	MaxPerCheck   int // worst-case changed data bits for a single check bit
}

// HorizontalTouchRowOp profiles a row-parallel MAGIC op writing column c
// across nRows rows under a horizontal code of width w: each row's group
// c/w sees exactly one changed bit → Θ(1) per check.
func HorizontalTouchRowOp(nRows int) TouchProfile {
	return TouchProfile{ChecksTouched: nRows, MaxPerCheck: 1}
}

// HorizontalTouchColOp profiles a column-parallel op writing row r across
// nCols columns under a horizontal code of width w: every group of that
// row has all w of its data bits changed → Θ(w) per check, the failure
// mode shown in Fig 2(a).
func HorizontalTouchColOp(nCols, w int) TouchProfile {
	return TouchProfile{ChecksTouched: nCols / w, MaxPerCheck: w}
}

// MeasureDiagonalTouch empirically computes the touch profile of an
// arbitrary set of written cells under geometry p, counting changed data
// bits per (family, plane, block) check bit. Used by tests to prove the
// MaxPerCheck ≤ 1 guarantee for real operation shapes.
func MeasureDiagonalTouch(p Params, cells [][2]int) TouchProfile {
	type key struct {
		family, d, br, bc int
	}
	counts := make(map[key]int)
	for _, rc := range cells {
		br, bc, lr, lc := p.BlockOf(rc[0], rc[1])
		counts[key{0, p.LeadIdx(lr, lc), br, bc}]++
		counts[key{1, p.CounterIdx(lr, lc), br, bc}]++
	}
	prof := TouchProfile{ChecksTouched: len(counts)}
	for _, n := range counts {
		if n > prof.MaxPerCheck {
			prof.MaxPerCheck = n
		}
	}
	return prof
}
