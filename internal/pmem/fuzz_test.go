package pmem

import (
	"testing"
)

// fuzzMem is the shared memory under fuzz: building crossbars is the
// dominant cost, so the round-trip property is checked against one
// instance. Each fuzz case owns a disjoint verification (the property is
// local to the span it touches plus its guard bits), so reuse is sound.
var fuzzMem *Memory

func fuzzMemory(t testing.TB) *Memory {
	if fuzzMem == nil {
		m, err := New(smallCfg(true))
		if err != nil {
			t.Fatal(err)
		}
		fuzzMem = m
	}
	return fuzzMem
}

// splitmix steps a splitmix64 state — a tiny deterministic word stream.
func splitmix(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// FuzzPmemAddressRoundTrip fuzzes the flat-address mapping through range
// writes and reads: any span — word-unaligned, row-crossing,
// crossbar-crossing, bank-crossing — must round-trip exactly, agree with
// width-1 word reads, leave its guard bits untouched, and keep mmpu's
// Locate and FlatIndex exact inverses at the span edges.
func FuzzPmemAddressRoundTrip(f *testing.F) {
	per := int64(45 * 45)
	f.Add(int64(0), 1, uint64(1))
	f.Add(int64(40), 10, uint64(2))       // row boundary
	f.Add(per-3, 70, uint64(3))           // crossbar boundary
	f.Add(2*per-5, 130, uint64(4))        // bank boundary
	f.Add(4*per-64, 64, uint64(5))        // end of memory
	f.Add(int64(17), 3, uint64(6))        // sub-word
	f.Add(per-1, int(2*per+2), uint64(7)) // three crossbars
	f.Fuzz(func(t *testing.T, addr int64, nbits int, seed uint64) {
		m := fuzzMemory(t)
		total := m.Config().Org.DataBits()
		// Clamp the fuzzed span into the memory.
		if addr < 0 {
			addr = -addr
		}
		addr %= total
		if nbits < 0 {
			nbits = -nbits
		}
		nbits %= 4 * 45 * 45
		if int64(nbits) > total-addr {
			nbits = int(total - addr)
		}
		span := int64(nbits)

		// Locate/FlatIndex must be exact inverses across the span edges.
		org := m.Config().Org
		for _, bit := range []int64{addr, addr + span - 1} {
			if bit < 0 || bit >= total {
				continue
			}
			a, err := org.Locate(bit)
			if err != nil {
				t.Fatalf("Locate(%d): %v", bit, err)
			}
			if back := org.FlatIndex(a); back != bit {
				t.Fatalf("FlatIndex(Locate(%d)) = %d", bit, back)
			}
		}

		// Snapshot guard bits just outside the span.
		guards := []int64{addr - 1, addr + span}
		guardVals := make([]uint64, len(guards))
		for i, g := range guards {
			if g < 0 || g >= total {
				continue
			}
			v, err := m.ReadWord(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			guardVals[i] = v
		}

		src := make([]uint64, (nbits+63)/64)
		state := seed
		for i := range src {
			src[i] = splitmix(&state)
		}
		if err := m.WriteRange(addr, src, span); err != nil {
			t.Fatalf("WriteRange(%d,%d): %v", addr, nbits, err)
		}
		got, err := m.ReadRange(addr, span)
		if err != nil {
			t.Fatalf("ReadRange(%d,%d): %v", addr, nbits, err)
		}
		for i := int64(0); i < span; i++ {
			want := src[i>>6]>>(uint(i)&63)&1 != 0
			if got[i>>6]>>(uint(i)&63)&1 != 0 != want {
				t.Fatalf("addr=%d nbits=%d: bit %d corrupted in range read", addr, nbits, i)
			}
		}
		// Bit-granular path (width-1 words) agrees with the range path on
		// a sample.
		step := span/17 + 1
		for i := int64(0); i < span; i += step {
			want := src[i>>6] >> (uint(i) & 63) & 1
			b, err := m.ReadWord(addr+i, 1)
			if err != nil || b != want {
				t.Fatalf("addr=%d nbits=%d: ReadWord(+%d, 1) = %v, %v, want %v", addr, nbits, i, b, err, want)
			}
		}
		// Guard bits outside the span are untouched.
		for i, g := range guards {
			if g < 0 || g >= total {
				continue
			}
			v, err := m.ReadWord(g, 1)
			if err != nil {
				t.Fatal(err)
			}
			if v != guardVals[i] {
				t.Fatalf("addr=%d nbits=%d: guard bit %d clobbered", addr, nbits, g)
			}
		}
	})
}
