package pmem

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/mmpu"
)

// smallCfg is a 4-crossbar memory of 45×45 arrays (2×2 banks).
func smallCfg(ecc bool) Config {
	return Config{
		Org:        mmpu.Organization{CrossbarN: 45, Banks: 2, PerBank: 2},
		M:          15,
		K:          2,
		ECCEnabled: ecc,
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	m, err := New(smallCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	addrs := []int64{0, 1, 44, 45, 1000, 45*45 - 1, 45 * 45, 3*45*45 + 17}
	for i, a := range addrs {
		if err := m.WriteWord(a, uint64(1-i%2), 1); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range addrs {
		got, err := m.ReadWord(a, 1)
		if err != nil {
			t.Fatal(err)
		}
		if (got == 1) != (i%2 == 0) {
			t.Fatalf("bit %d round trip failed", a)
		}
	}
}

func TestWordRoundTrip(t *testing.T) {
	m, err := New(smallCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	// Straddles a crossbar boundary (45*45 = 2025).
	if err := m.WriteWord(2000, 0xDEADBEEF, 48); err != nil {
		t.Fatal(err)
	}
	w, err := m.ReadWord(2000, 48)
	if err != nil {
		t.Fatal(err)
	}
	if w != 0xDEADBEEF {
		t.Fatalf("word = %#x", w)
	}
}

func TestOutOfRangeAddress(t *testing.T) {
	m, err := New(smallCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteWord(m.Config().Org.DataBits(), 1, 1); err == nil {
		t.Fatal("out-of-range write accepted")
	}
	if _, err := m.ReadWord(-1, 1); err == nil {
		t.Fatal("negative read accepted")
	}
}

func TestCampaignWindowSurvivesSparseErrors(t *testing.T) {
	// One checking window at an SER low enough that blocks see ≤1 error:
	// all errors corrected, data intact — the per-window success event of
	// the Fig 6 model, executed for real.
	m, err := New(smallCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	const bits = 4 * 45 * 45
	verify, err := m.LoadPattern(bits, 7)
	if err != nil {
		t.Fatal(err)
	}
	// ser·hours/1e9 ≈ 5e-4 per bit → ~4 errors over 8100 bits, spread
	// across the 36 blocks (seeded deterministically so no two errors
	// share a block).
	res := m.RunWindow(5e2, 1e3, 42, verify)
	if res.Injected == 0 {
		t.Fatal("campaign injected nothing — not meaningful")
	}
	if !res.DataIntact {
		t.Fatalf("data corrupted despite sparse errors: %+v", res)
	}
	if res.Uncorrectable != 0 {
		t.Fatalf("unexpected uncorrectable blocks: %+v", res)
	}
	if res.Corrected < res.Injected-1 { // two hits may cancel on one cell
		t.Fatalf("corrected %d of %d injected", res.Corrected, res.Injected)
	}
}

func TestCampaignWindowBaselineCorrupts(t *testing.T) {
	m, err := New(smallCfg(false))
	if err != nil {
		t.Fatal(err)
	}
	const bits = 4 * 45 * 45
	verify, err := m.LoadPattern(bits, 7)
	if err != nil {
		t.Fatal(err)
	}
	res := m.RunWindow(1e3, 1e3, 42, verify)
	if res.Injected == 0 {
		t.Fatal("nothing injected")
	}
	if res.DataIntact {
		t.Fatal("baseline memory survived — injection broken?")
	}
	if res.Corrected != 0 {
		t.Fatal("baseline corrected something without ECC")
	}
}

func TestDenseErrorsFlaggedUncorrectable(t *testing.T) {
	// Crank the rate until blocks collect multiple errors: the protected
	// memory must flag uncorrectable damage rather than pretend success.
	m, err := New(smallCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	verify, err := m.LoadPattern(4*45*45, 3)
	if err != nil {
		t.Fatal(err)
	}
	// ~5% of bits flip: nearly every block has ≥2 errors.
	res := m.RunWindow(5e7, 1e3, 9, verify)
	if res.Uncorrectable == 0 {
		t.Fatalf("dense damage not flagged: %+v", res)
	}
	if res.DataIntact {
		t.Fatal("dense damage cannot leave data intact")
	}
}

func TestRepeatedWindowsStayConsistent(t *testing.T) {
	m, err := New(smallCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	verify, err := m.LoadPattern(4*45*45, 11)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 5; w++ {
		res := m.RunWindow(5e2, 1e3, int64(100+w), verify)
		if !res.DataIntact || res.Uncorrectable != 0 {
			t.Fatalf("window %d: %+v", w, res)
		}
		for i := 0; i < m.Config().Org.Crossbars(); i++ {
			if !m.Crossbar(i).CheckConsistent() {
				t.Fatalf("window %d: crossbar %d inconsistent", w, i)
			}
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := smallCfg(true)
	bad.M = 14
	if _, err := New(bad); err == nil {
		t.Fatal("even block size accepted")
	}
	bad = smallCfg(true)
	bad.Org.CrossbarN = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero crossbar accepted")
	}
	bad = smallCfg(true)
	bad.M = 0 // reported as an error, not a division by zero
	if _, err := New(bad); err == nil {
		t.Fatal("zero block size accepted")
	}
}

// TestErrorPaths pins the contract of every validating entry point: out of
// range wraps ErrRange, malformed spans wrap ErrSpan, and every message
// carries the "pmem:" prefix so wrapped errors stay attributable.
func TestErrorPaths(t *testing.T) {
	m, err := New(smallCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	end := m.Config().Org.DataBits()
	cases := []struct {
		name string
		call func() error
		want error
	}{
		// A single bit is a width-1 word.
		{"ReadBit negative", func() error { _, err := m.ReadWord(-1, 1); return err }, ErrRange},
		{"ReadBit past end", func() error { _, err := m.ReadWord(end, 1); return err }, ErrRange},
		{"WriteBit past end", func() error { return m.WriteWord(end, 1, 1) }, ErrRange},
		{"ReadWord width 65", func() error { _, err := m.ReadWord(0, 65); return err }, ErrSpan},
		{"ReadWord negative width", func() error { _, err := m.ReadWord(0, -1); return err }, ErrSpan},
		{"WriteWord width 65", func() error { return m.WriteWord(0, 1, 65) }, ErrSpan},
		{"WriteWord overruns end", func() error { return m.WriteWord(end-10, 1, 11) }, ErrRange},
		{"ReadWord overruns end", func() error { _, err := m.ReadWord(end-10, 11); return err }, ErrRange},
		{"ReadRange negative width", func() error { _, err := m.ReadRange(5, -3); return err }, ErrSpan},
		{"ReadRange overruns end", func() error { _, err := m.ReadRange(end-1, 2); return err }, ErrRange},
		{"WriteRange negative start", func() error { return m.WriteRange(-1, []uint64{0}, 1) }, ErrRange},
		{"WriteRange short buffer", func() error { return m.WriteRange(0, []uint64{0}, 65) }, ErrSpan},
		{"AccessRow bad bank", func() error { return m.AccessRow(9, 0, 0, nil) }, ErrRange},
		{"AccessRow bad row", func() error { return m.AccessRow(0, 0, 45, nil) }, ErrRange},
		// bit+nbits near MaxInt64 must not wrap negative past the guard.
		{"ReadRange overflowing span", func() error { _, err := m.ReadRange(math.MaxInt64-4, 8); return err }, ErrRange},
		{"WriteRange overflowing span", func() error { return m.WriteRange(math.MaxInt64-4, []uint64{0}, 8) }, ErrRange},
		{"ExecuteSIMD bad bank", func() error { return m.ExecuteSIMD(9, 0, nil, nil) }, ErrRange},
		{"ExecuteSIMD bad crossbar", func() error { return m.ExecuteSIMD(0, 9, nil, nil) }, ErrRange},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "pmem:") {
				t.Fatalf("message %q lacks pmem: prefix", err)
			}
		})
	}
	// Width-0 accesses are valid no-ops, not errors.
	if err := m.WriteWord(0, 1, 0); err != nil {
		t.Fatalf("zero-width write: %v", err)
	}
	if w, err := m.ReadWord(end-1, 0); err != nil || w != 0 {
		t.Fatalf("zero-width read = %d, %v", w, err)
	}
}

// TestRangeRoundTripAcrossBoundaries drives WriteRange/ReadRange over a
// span covering three crossbars in two banks and cross-checks per bit.
func TestRangeRoundTripAcrossBoundaries(t *testing.T) {
	m, err := New(smallCfg(true))
	if err != nil {
		t.Fatal(err)
	}
	const start, nbits = 45*45 - 30, 2*45*45 + 60 // crossbar 0 into crossbar 3
	src := make([]uint64, (nbits+63)/64)
	for i := range src {
		src[i] = 0x9E3779B97F4A7C15 * uint64(i+1)
	}
	if err := m.WriteRange(start, src, nbits); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadRange(start, nbits)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < nbits; i++ {
		want := src[i>>6]>>(uint(i)&63)&1 != 0
		if got[i>>6]>>(uint(i)&63)&1 != 0 != want {
			t.Fatalf("bit %d mismatched after range round trip", i)
		}
		b, err := m.ReadWord(start+i, 1)
		if err != nil || (b == 1) != want {
			t.Fatalf("ReadWord(%d, 1) = %v, %v, want %v", start+i, b, err, want)
		}
	}
	// Trailing garbage must not leak into the tail word.
	if tail := got[len(got)-1] >> (uint(nbits) & 63); nbits%64 != 0 && tail != 0 {
		t.Fatalf("tail bits set: %#x", tail)
	}
	// Every crossbar's check bits survived the segment writes.
	for i := 0; i < m.Config().Org.Crossbars(); i++ {
		if !m.Crossbar(i).CheckConsistent() {
			t.Fatalf("crossbar %d ECC stale after range write", i)
		}
	}
}
