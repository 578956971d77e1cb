package faults

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/xbar"
)

func TestErrorProbabilityBasics(t *testing.T) {
	if p := ErrorProbability(0, 24); p != 0 {
		t.Fatalf("SER=0 gives p=%g, want 0", p)
	}
	// λT/1e9 small: p ≈ λT/1e9.
	p := ErrorProbability(1e-3, 24)
	want := 1e-3 * 24 / 1e9
	if math.Abs(p-want)/want > 1e-6 {
		t.Fatalf("p = %g, want ≈ %g", p, want)
	}
	// Monotone in SER.
	if ErrorProbability(1, 24) <= ErrorProbability(1e-3, 24) {
		t.Fatal("probability not monotone in SER")
	}
	// Never exceeds 1.
	if p := ErrorProbability(1e12, 1e6); p > 1 {
		t.Fatalf("p = %g > 1", p)
	}
}

func TestErrorProbabilityNumericallyStable(t *testing.T) {
	// For tiny rates 1-exp(-x) must not round to zero.
	p := ErrorProbability(1e-5, 24)
	if p <= 0 {
		t.Fatalf("tiny-rate probability underflowed to %g", p)
	}
}

func TestInjectExactly(t *testing.T) {
	x := xbar.New(16, 16)
	in := NewInjector(1e-3, 42)
	flips := in.InjectExactly(x, 5)
	if len(flips) != 5 {
		t.Fatalf("got %d flips, want 5", len(flips))
	}
	if x.Mat().Popcount() != 5 {
		t.Fatalf("popcount = %d, want 5 distinct flips from zero state", x.Mat().Popcount())
	}
	for _, f := range flips {
		if !x.Get(f.Row, f.Col) {
			t.Fatalf("reported flip at (%d,%d) but bit is clear", f.Row, f.Col)
		}
	}
}

func TestInjectExactlyTooMany(t *testing.T) {
	x := xbar.New(2, 2)
	in := NewInjector(1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for more flips than cells")
		}
	}()
	in.InjectExactly(x, 5)
}

func TestInjectZeroRate(t *testing.T) {
	x := xbar.New(32, 32)
	flips := Transient{SER: 0}.Apply(x, nil, rand.New(rand.NewSource(7)), 1e9)
	if len(flips) != 0 || x.Mat().Popcount() != 0 {
		t.Fatal("zero SER produced flips")
	}
}

func TestInjectDeterministicWithSeed(t *testing.T) {
	run := func() []Fault {
		x := xbar.New(64, 64)
		// A high rate guarantees flips.
		return Transient{SER: 5e5}.Apply(x, nil, rand.New(rand.NewSource(123)), 24)
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no flips drawn")
	}
	if len(a) != len(b) {
		t.Fatalf("non-deterministic flip count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flip %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSampleCountMatchesExpectation(t *testing.T) {
	// Mean of the sampled count should be close to bits·p over many trials.
	in := NewInjector(1e6, 99) // p = 1e6*24/1e9 = 0.024
	bits, hours := 1000, 24.0
	p := ErrorProbability(in.SER, hours)
	trials := 2000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += in.SampleCount(bits, hours)
	}
	mean := float64(sum) / float64(trials)
	want := float64(bits) * p
	if math.Abs(mean-want) > 0.15*want {
		t.Fatalf("sampled mean %.2f, want ≈ %.2f", mean, want)
	}
}

func TestSampleCountLargePopulationPoissonPath(t *testing.T) {
	in := NewInjector(1e3, 5)
	bits := 1 << 20 // forces the Poisson path
	hours := 24.0
	want := float64(bits) * ErrorProbability(in.SER, hours) // ≈ 25
	trials := 500
	sum := 0
	for i := 0; i < trials; i++ {
		sum += in.SampleCount(bits, hours)
	}
	mean := float64(sum) / float64(trials)
	if math.Abs(mean-want) > 0.15*want {
		t.Fatalf("poisson-path mean %.2f, want ≈ %.2f", mean, want)
	}
}

func TestUniformCellInRange(t *testing.T) {
	in := NewInjector(1, 3)
	for i := 0; i < 100; i++ {
		r, c := in.UniformCell(7, 13)
		if r < 0 || r >= 7 || c < 0 || c >= 13 {
			t.Fatalf("cell (%d,%d) out of range", r, c)
		}
	}
}

func TestDeriveSeedDeterministic(t *testing.T) {
	if DeriveSeed(42, 3, 7) != DeriveSeed(42, 3, 7) {
		t.Fatal("DeriveSeed not deterministic")
	}
}

func TestDeriveSeedSeparatesStreams(t *testing.T) {
	// Nearby positions and bases must yield distinct seeds: a fleet gives
	// every crossbar its own stream, and collisions would correlate the
	// soft errors of neighboring crossbars.
	seen := make(map[int64][3]int64)
	for base := int64(0); base < 4; base++ {
		for bank := 0; bank < 16; bank++ {
			for xb := 0; xb < 16; xb++ {
				s := DeriveSeed(base, bank, xb)
				if prev, dup := seen[s]; dup {
					t.Fatalf("seed collision: (%d,%d,%d) and %v → %d", base, bank, xb, prev, s)
				}
				seen[s] = [3]int64{base, int64(bank), int64(xb)}
			}
		}
	}
}
