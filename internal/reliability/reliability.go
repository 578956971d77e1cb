// Package reliability implements the paper's Section V-A analysis: the
// Mean-Time-To-Failure of a 1GB memristive memory with and without the
// proposed diagonal ECC, as a function of the memristor Soft Error Rate
// (Fig 6).
//
// Model (verbatim from the paper):
//
//   - Soft errors are uniform and independent with constant rate λ
//     [FIT/bit]; the probability a specific memristor errs within the
//     T-hour checking period is p = 1 − exp(−λT/10⁹).
//   - A block succeeds if it accumulates zero or one errors (single-error
//     correction); blocks are independent; an n×n crossbar succeeds iff
//     all its blocks do; the 1GB memory succeeds iff all crossbars do.
//   - The memory failure rate is P(failure in T)·10⁹/T [FIT] and
//     MTTF = 10⁹/FIT = T/P(failure in T) hours.
//
// The probabilities involved span ~30 orders of magnitude, so everything
// is computed in log space: ln S_block = (B−1)·ln(1−p) + ln(1+(B−1)p)
// for a block of B bits, summed over blocks and crossbars, with
// P(fail) = −expm1(ln S_total).
package reliability

import (
	"math"

	"repro/internal/ecc"
	"repro/internal/faults"
	"repro/internal/mmpu"
)

// Model holds the parameters of the Fig 6 sensitivity analysis.
type Model struct {
	Geometry     ecc.Params // per-crossbar geometry (n, m)
	CheckPeriodH float64    // T, hours between full-memory ECC checks
	Org          mmpu.Organization
	CountCheck   bool // include the 2m check bits per block in the error population
}

// PaperModel returns the paper's configuration: n=1020, m=15, T=24h, 1GB
// memory. CountCheck is false: the paper's block-success binomial counts
// the m² = 225 data memristors (back-solving its ">3·10⁸ at 10⁻³ FIT/bit"
// improvement gives 225, not 255); including the 2m check bits is kept as
// an ablation switch.
func PaperModel() Model {
	return Model{
		Geometry:     ecc.PaperParams(),
		CheckPeriodH: 24,
		Org:          mmpu.GBMemory(1020, 16),
		CountCheck:   false,
	}
}

// blockBits returns the number of memristors whose failure matters for one
// block: m² data bits, plus 2m check bits when CountCheck is set (a single
// check-bit error is also corrected by the code, so it belongs in the
// ≤1-error budget).
func (m Model) blockBits() int {
	b := m.Geometry.DataBitsPerBlock()
	if m.CountCheck {
		b += m.Geometry.CheckBitsPerBlock()
	}
	return b
}

// totalBlocks returns the number of independent blocks in the memory.
func (m Model) totalBlocks() float64 {
	return float64(m.Geometry.NumBlocks()) * float64(m.Org.Crossbars())
}

// logBlockSuccess returns ln P(block accumulates ≤1 error in T hours):
// ln[(1−p)^B + B·p·(1−p)^(B−1)] = (B−1)·ln(1−p) + ln(1 + (B−1)·p).
func (m Model) logBlockSuccess(ser float64) float64 {
	p := faults.ErrorProbability(ser, m.CheckPeriodH)
	b := float64(m.blockBits())
	return (b-1)*math.Log1p(-p) + math.Log1p((b-1)*p)
}

// ProposedFailureProbability returns P(the protected memory has an
// uncorrectable error within one checking period) at SER λ [FIT/bit].
func (m Model) ProposedFailureProbability(ser float64) float64 {
	logS := m.totalBlocks() * m.logBlockSuccess(ser)
	return -math.Expm1(logS)
}

// BaselineFailureProbability returns P(any soft error within one checking
// period) for the unprotected memory of the same data capacity.
func (m Model) BaselineFailureProbability(ser float64) float64 {
	p := faults.ErrorProbability(ser, m.CheckPeriodH)
	bits := float64(m.Geometry.DataBitsPerBlock()) * m.totalBlocks()
	return -math.Expm1(bits * math.Log1p(-p))
}

// BaselineFIT returns the unprotected memory's failure rate. Without ECC
// the memory fails at its first soft error, a memoryless Poisson process
// with rate bits·λ — no checking window is involved, so the baseline
// curve of Fig 6 is an unbroken straight line (slope −1) across the whole
// SER range rather than saturating at T.
func (m Model) BaselineFIT(ser float64) float64 {
	bits := float64(m.Geometry.DataBitsPerBlock()) * m.totalBlocks()
	return bits * ser
}

// FITFromFailureProbability converts a per-window failure probability into
// a failure rate in FIT (failures per 10⁹ hours): P·10⁹/T.
func (m Model) FITFromFailureProbability(p float64) float64 {
	return p * faults.FITHours / m.CheckPeriodH
}

// MTTFFromFIT converts a failure rate to MTTF in hours: 10⁹/FIT.
func MTTFFromFIT(fit float64) float64 {
	if fit <= 0 {
		return math.Inf(1)
	}
	return faults.FITHours / fit
}

// ProposedMTTF returns the protected memory's MTTF in hours at SER λ.
func (m Model) ProposedMTTF(ser float64) float64 {
	return MTTFFromFIT(m.FITFromFailureProbability(m.ProposedFailureProbability(ser)))
}

// BaselineMTTF returns the unprotected memory's MTTF in hours at SER λ.
func (m Model) BaselineMTTF(ser float64) float64 {
	return MTTFFromFIT(m.BaselineFIT(ser))
}

// Improvement returns the MTTF ratio proposed/baseline at SER λ — the
// paper's headline metric (over 3·10⁸ at λ = 10⁻³ FIT/bit).
func (m Model) Improvement(ser float64) float64 {
	return m.ProposedMTTF(ser) / m.BaselineMTTF(ser)
}

// Point is one sample of the Fig 6 curves.
type Point struct {
	SER              float64 // FIT/bit
	BaselineMTTF     float64 // hours
	ProposedMTTF     float64 // hours
	Improvement      float64
	BaselineFailProb float64
	ProposedFailProb float64
}

// Sweep evaluates the model over a logarithmic SER grid from serLo to
// serHi (inclusive) with `points` samples — the Fig 6 x-axis is
// 10⁻⁵…10³ FIT/bit.
func (m Model) Sweep(serLo, serHi float64, points int) []Point {
	if points < 2 || serLo <= 0 || serHi <= serLo {
		panic("reliability: bad sweep range")
	}
	out := make([]Point, points)
	logLo, logHi := math.Log10(serLo), math.Log10(serHi)
	for i := range out {
		ser := math.Pow(10, logLo+(logHi-logLo)*float64(i)/float64(points-1))
		out[i] = Point{
			SER:              ser,
			BaselineMTTF:     m.BaselineMTTF(ser),
			ProposedMTTF:     m.ProposedMTTF(ser),
			Improvement:      m.Improvement(ser),
			BaselineFailProb: m.BaselineFailureProbability(ser),
			ProposedFailProb: m.ProposedFailureProbability(ser),
		}
	}
	return out
}

// Fig6Sweep returns the paper's exact axis range: SER from 10⁻⁵ to 10³.
func (m Model) Fig6Sweep(pointsPerDecade int) []Point {
	return m.Sweep(1e-5, 1e3, 8*pointsPerDecade+1)
}
