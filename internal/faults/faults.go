// Package faults models memristor soft errors: unintentional state flips
// caused by oxygen-vacancy diffusion (state drift), ion strikes, and
// environmental factors. Following the paper's reliability analysis
// (Section V-A), errors are uniform and independent across memristors with
// a constant Soft Error Rate (SER) λ expressed in FIT/bit, where 1 FIT/bit
// is one error per 10⁹ device-hours.
package faults

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/xbar"
)

// FITHours is the number of device-hours in one FIT unit.
const FITHours = 1e9

// FlashSERFITPerBit is the reference memristor SER the paper uses for its
// headline comparison: approximately the SER of Flash memory, 10⁻³ FIT/bit.
const FlashSERFITPerBit = 1e-3

// Flip identifies a single soft-error location.
type Flip struct {
	Row, Col int
}

// ErrorProbability returns the probability that a specific memristor
// suffers at least one soft error within `hours` hours at SER λ [FIT/bit]:
// p = 1 − exp(−λ·t/10⁹).
func ErrorProbability(serFITPerBit, hours float64) float64 {
	return -math.Expm1(-serFITPerBit * hours / FITHours)
}

// Injector draws soft errors over a crossbar according to the uniform,
// independent SER model. It is deterministic given its seed, which keeps
// campaigns reproducible.
type Injector struct {
	SER float64 // FIT/bit
	rng *rand.Rand
}

// NewInjector returns an injector at the given SER [FIT/bit] and seed.
func NewInjector(serFITPerBit float64, seed int64) *Injector {
	if serFITPerBit < 0 {
		panic("faults: negative SER")
	}
	return &Injector{SER: serFITPerBit, rng: rand.New(rand.NewSource(seed))}
}

// SampleCount draws the number of bit flips occurring in `bits` memristors
// over `hours` hours at the injector's SER.
func (in *Injector) SampleCount(bits int, hours float64) int {
	return sampleCount(in.rng, in.SER, bits, hours)
}

// sampleCount draws the number of fault events occurring across `bits`
// independent sites over `hours` hours at rate ser [FIT/site]. Each site
// fires with probability ErrorProbability; the count is binomial, sampled
// exactly site-by-site for small populations and via a Poisson
// approximation (λ_total = bits·p, valid when p ≪ 1) for large ones. It is
// the shared sampling core of the Injector and every fault Model.
func sampleCount(rng *rand.Rand, ser float64, bits int, hours float64) int {
	p := ErrorProbability(ser, hours)
	if p <= 0 || bits <= 0 {
		return 0
	}
	if bits <= 4096 {
		n := 0
		for i := 0; i < bits; i++ {
			if rng.Float64() < p {
				n++
			}
		}
		return n
	}
	return poissonSample(rng, float64(bits)*p)
}

// poissonSample draws Poisson(mean) with Knuth's method for small means
// and a normal approximation for large ones.
func poissonSample(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k, p := 0, 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	n := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
	if n < 0 {
		n = 0
	}
	return n
}

// InjectExactly flips exactly n uniformly-chosen distinct bits — the
// controlled campaign used by correction tests and examples.
func (in *Injector) InjectExactly(x *xbar.Crossbar, n int) []Flip {
	total := x.Rows() * x.Cols()
	if n > total {
		panic(fmt.Sprintf("faults: cannot place %d distinct flips in %d bits", n, total))
	}
	seen := make(map[int]bool, n)
	flips := make([]Flip, 0, n)
	for len(flips) < n {
		idx := in.rng.Intn(total)
		if seen[idx] {
			continue
		}
		seen[idx] = true
		f := Flip{Row: idx / x.Cols(), Col: idx % x.Cols()}
		x.Flip(f.Row, f.Col)
		flips = append(flips, f)
	}
	return flips
}

// UniformCell returns a uniformly random cell coordinate in an r×c array.
func (in *Injector) UniformCell(r, c int) (int, int) {
	return in.rng.Intn(r), in.rng.Intn(c)
}

// DeriveSeed mixes a campaign base seed with a (bank, crossbar) position
// into an independent per-crossbar stream seed (splitmix64 finalizer).
// Deterministic in its arguments, so a fleet campaign reproduces exactly
// regardless of how crossbars are scheduled across workers, and nearby
// positions get uncorrelated streams.
func DeriveSeed(base int64, bank, crossbar int) int64 {
	// Two full mixing rounds: base alone, then the position XORed into the
	// mixed base. A single additive round lets (base, crossbar) deltas
	// cancel, correlating neighbors.
	x := splitmix64(uint64(base))
	x = splitmix64(x ^ uint64(uint32(bank))<<32 ^ uint64(uint32(crossbar)))
	return int64(x)
}

// splitmix64 is the SplitMix64 finalizer: a bijective 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
