package ecc

import (
	"fmt"
	mathbits "math/bits"

	"repro/internal/bitmat"
)

// Kind classifies what a block syndrome says happened.
type Kind int

const (
	// NoError: zero syndrome, block consistent.
	NoError Kind = iota
	// DataError: exactly one leading and one counter syndrome bit set —
	// a single flipped data cell at their unique intersection.
	DataError
	// LeadCheckError: exactly one leading bit, no counter bits — the
	// leading check bit itself flipped.
	LeadCheckError
	// CounterCheckError: exactly one counter bit, no leading bits.
	CounterCheckError
	// Uncorrectable: any other signature; at least two errors landed in
	// the block. Detected but not correctable by per-block parity.
	Uncorrectable
	// CheckError: a stored check bit itself erred, for schemes that do not
	// distinguish diagonal families (the generic scheme layer's analogue
	// of Lead/CounterCheckError). Diag identifies the check bit.
	CheckError
)

// String names the diagnosis kind.
func (k Kind) String() string {
	switch k {
	case NoError:
		return "no-error"
	case DataError:
		return "data-error"
	case LeadCheckError:
		return "lead-check-error"
	case CounterCheckError:
		return "counter-check-error"
	case Uncorrectable:
		return "uncorrectable"
	case CheckError:
		return "check-error"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Diagnosis is the decoded meaning of one block syndrome.
type Diagnosis struct {
	Kind   Kind
	LR, LC int // local data cell, valid when Kind == DataError
	Diag   int // diagonal index, valid for the two check-error kinds
}

// Decode interprets a block syndrome given as packed m-bit masks (bit d =
// diagonal d of its family). This is the logical function the CMEM
// controller evaluates after the checking crossbar flags a non-zero
// syndrome (Section IV-A4).
func Decode(p Params, lead, counter uint64) Diagnosis {
	ln, cn := mathbits.OnesCount64(lead), mathbits.OnesCount64(counter)
	switch {
	case ln == 0 && cn == 0:
		return Diagnosis{Kind: NoError}
	case ln == 1 && cn == 1:
		lr, lc := p.Intersect(mathbits.TrailingZeros64(lead), mathbits.TrailingZeros64(counter))
		return Diagnosis{Kind: DataError, LR: lr, LC: lc}
	case ln == 1 && cn == 0:
		return Diagnosis{Kind: LeadCheckError, Diag: mathbits.TrailingZeros64(lead)}
	case ln == 0 && cn == 1:
		return Diagnosis{Kind: CounterCheckError, Diag: mathbits.TrailingZeros64(counter)}
	default:
		return Diagnosis{Kind: Uncorrectable}
	}
}

// CheckBlock computes and decodes the syndrome of block (br,bc).
func (cb *CheckBits) CheckBlock(mem *bitmat.Mat, br, bc int) Diagnosis {
	lead, counter := cb.Syndrome(mem, br, bc)
	return Decode(cb.p, lead, counter)
}

// CorrectBlock checks block (br,bc) and repairs a single error in place —
// flipping the faulty data memristor or check bit. It returns the
// diagnosis that was acted on.
func (cb *CheckBits) CorrectBlock(mem *bitmat.Mat, br, bc int) Diagnosis {
	lead, counter := cb.Syndrome(mem, br, bc)
	return cb.repair(mem, br, bc, lead, counter)
}

// repair decodes block (br,bc)'s syndrome and repairs a single error.
func (cb *CheckBits) repair(mem *bitmat.Mat, br, bc int, lead, counter uint64) Diagnosis {
	d := Decode(cb.p, lead, counter)
	switch d.Kind {
	case DataError:
		mem.Flip(br*cb.p.M+d.LR, bc*cb.p.M+d.LC)
	case LeadCheckError:
		cb.FlipLead(d.Diag, br, bc)
	case CounterCheckError:
		cb.FlipCounter(d.Diag, br, bc)
	}
	return d
}

// ScrubReport summarizes a full-memory periodic check (the paper's
// T-hour scrub that bounds error accumulation).
type ScrubReport struct {
	BlocksChecked  int
	DataCorrected  int
	CheckCorrected int
	Uncorrectable  int
}

// Scrub checks and corrects every block, block row by block row, and
// returns a summary: the periodic check the reliability analysis assumes.
func (cb *CheckBits) Scrub(mem *bitmat.Mat) ScrubReport {
	var found []Finding
	for br := 0; br < cb.side; br++ {
		found = cb.CheckBlockRow(mem, br, found)
	}
	var n [CheckError + 1]int
	for _, f := range found {
		n[f.Diag.Kind]++
	}
	return ScrubReport{BlocksChecked: cb.side * cb.side, DataCorrected: n[DataError],
		CheckCorrected: n[LeadCheckError] + n[CounterCheckError], Uncorrectable: n[Uncorrectable]}
}

// Finding is one non-clean code unit from a block-line check: its home
// block and the diagnosis acted on (single errors already repaired).
type Finding struct {
	BR, BC int
	Diag   Diagnosis
}

// DataCell returns the repaired data cell's global coordinates (DataError).
func (f Finding) DataCell(m int) (r, c int) {
	return f.BR*m + f.Diag.LR, f.BC*m + f.Diag.LC
}

// CheckBlockRow checks and corrects every block of block row br with one
// line-parallel fold, appending a Finding per non-clean block to out. The
// folded lines XOR the stored ones into the block row's syndrome lines, so
// a clean block row is one whole-line compare, and only blocks with a
// non-zero syndrome segment are decoded.
func (cb *CheckBits) CheckBlockRow(mem *bitmat.Mat, br int, out []Finding) []Finding {
	m, nw := cb.p.M, cb.nw
	l, c := cb.acc[:nw+2], cb.acc[nw+2:2*nw+4]
	cb.foldBlockRow(mem, br, l, c)
	sl, sc := cb.checkLines(br)
	var dirty uint64
	for i := range l {
		l[i] ^= sl[i]
		c[i] ^= sc[i]
		dirty |= l[i] | c[i]
	}
	if dirty == 0 {
		return out
	}
	for bc := 0; bc < cb.side; bc++ {
		if lead, ctrRev := segment(l, bc*m, m), segment(c, bc*m, m); lead|ctrRev != 0 {
			out = append(out, Finding{BR: br, BC: bc, Diag: cb.repair(mem, br, bc, lead, rev(ctrRev, m))})
		}
	}
	return out
}
