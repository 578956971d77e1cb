package ecc

import (
	mathbits "math/bits"
	"testing"
)

// Native fuzz targets. Under plain `go test` the seed corpus runs as
// regression tests; `go test -fuzz=FuzzX ./internal/ecc` explores further.

// FuzzSingleErrorCorrection: any (seed, position) pair must round-trip
// through inject→decode→correct exactly.
func FuzzSingleErrorCorrection(f *testing.F) {
	f.Add(int64(1), uint16(0))
	f.Add(int64(2), uint16(224))
	f.Add(int64(99), uint16(113))
	f.Fuzz(func(t *testing.T, seed int64, posRaw uint16) {
		p := Params{N: 15, M: 15}
		mem := randomMemory(seed, p)
		cb := Build(p, mem)
		want := mem.Clone()
		pos := int(posRaw) % 225
		mem.Flip(pos/15, pos%15)
		d := cb.CorrectBlock(mem, 0, 0)
		if d.Kind != DataError {
			t.Fatalf("diagnosis %v", d.Kind)
		}
		if !mem.Equal(want) {
			t.Fatal("not repaired")
		}
	})
}

// FuzzDecodeNeverPanics: arbitrary syndrome bit patterns must decode to
// *some* diagnosis without panicking, and (1,1)-weight syndromes must
// return in-range cells.
func FuzzDecodeNeverPanics(f *testing.F) {
	f.Add(uint32(0), uint32(0))
	f.Add(uint32(1), uint32(1))
	f.Add(uint32(0x7FFF), uint32(0x7FFF))
	f.Fuzz(func(t *testing.T, leadRaw, counterRaw uint32) {
		p := Params{N: 15, M: 15}
		lead, counter := uint64(leadRaw)&0x7FFF, uint64(counterRaw)&0x7FFF
		d := Decode(p, lead, counter)
		if d.Kind == DataError {
			if d.LR < 0 || d.LR >= 15 || d.LC < 0 || d.LC >= 15 {
				t.Fatalf("decoded cell out of range: %+v", d)
			}
			if p.LeadIdx(d.LR, d.LC) != mathbits.TrailingZeros64(lead) {
				t.Fatal("decoded cell not on the flagged leading diagonal")
			}
		}
	})
}

// FuzzDeltaUpdateEquivalence: any write sequence encoded in the fuzz
// bytes keeps continuous updates equal to a rebuild.
func FuzzDeltaUpdateEquivalence(f *testing.F) {
	f.Add(int64(3), []byte{0x00, 0x12, 0xFF})
	f.Add(int64(4), []byte{7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		p := Params{N: 15, M: 15}
		mem := randomMemory(seed, p)
		cb := Build(p, mem)
		for i := 0; i+1 < len(script) && i < 64; i += 2 {
			r := int(script[i]) % 15
			c := int(script[i+1]) % 15
			old := mem.Get(r, c)
			newV := script[i]&0x80 != 0
			cb.UpdateWrite(r, c, old, newV)
			mem.Set(r, c, newV)
		}
		if !cb.Equal(Build(p, mem)) {
			t.Fatal("delta updates diverged from rebuild")
		}
	})
}

// FuzzECCRoundTripUnderFaults is the conformance fuzz target behind the
// campaign engine's guarantee: on random memory images across word-
// unaligned geometries, any single flip at any codeword position is
// corrected exactly, and any double flip is detected — same-block doubles
// are flagged uncorrectable with the memory left untouched (never
// miscorrected into silent corruption), different-block doubles are two
// independent single errors and both repaired.
func FuzzECCRoundTripUnderFaults(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0), uint16(1), false)
	f.Add(int64(2), uint8(1), uint16(224), uint16(225), true)
	f.Add(int64(3), uint8(2), uint16(100), uint16(100), true)
	f.Add(int64(4), uint8(3), uint16(44), uint16(1980), true)
	f.Fuzz(func(t *testing.T, seed int64, geomSel uint8, p1Raw, p2Raw uint16, double bool) {
		// Row lengths 45, 33, 27, 75 all straddle 64-bit word boundaries
		// mid-block; 64 hits alignment edge cases on the word itself.
		geoms := []Params{{N: 45, M: 15}, {N: 33, M: 11}, {N: 27, M: 9}, {N: 75, M: 15}, {N: 45, M: 9}}
		p := geoms[int(geomSel)%len(geoms)]
		mem := randomMemory(seed, p)
		cb := Build(p, mem)
		want := mem.Clone()

		total := p.N * p.N
		pos1 := int(p1Raw) % total
		r1, c1 := pos1/p.N, pos1%p.N
		mem.Flip(r1, c1)

		if !double || int(p2Raw)%total == pos1 {
			if double {
				mem.Flip(r1, c1) // double hit on one cell: no error at all
			}
			rep := cb.Scrub(mem)
			wantData := 1
			if double {
				wantData = 0
			}
			if rep.DataCorrected != wantData || rep.CheckCorrected != 0 || rep.Uncorrectable != 0 {
				t.Fatalf("scrub report %+v, want %d data corrections only", rep, wantData)
			}
			if !mem.Equal(want) {
				t.Fatal("single error not repaired exactly")
			}
			if !cb.Equal(Build(p, mem)) {
				t.Fatal("check bits inconsistent after repair")
			}
			return
		}

		pos2 := int(p2Raw) % total
		r2, c2 := pos2/p.N, pos2%p.N
		mem.Flip(r2, c2)
		sameBlock := r1/p.M == r2/p.M && c1/p.M == c2/p.M
		rep := cb.Scrub(mem)
		if sameBlock {
			if rep.Uncorrectable != 1 || rep.DataCorrected != 0 || rep.CheckCorrected != 0 {
				t.Fatalf("same-block double: report %+v, want exactly 1 uncorrectable", rep)
			}
			// Never miscorrected: the two flipped cells are untouched and
			// no third cell was "repaired" into silent corruption.
			check := mem.Clone()
			check.Flip(r1, c1)
			check.Flip(r2, c2)
			if !check.Equal(want) {
				t.Fatal("uncorrectable block was mutated — miscorrection")
			}
		} else {
			if rep.DataCorrected != 2 || rep.Uncorrectable != 0 || rep.CheckCorrected != 0 {
				t.Fatalf("cross-block double: report %+v, want 2 data corrections", rep)
			}
			if !mem.Equal(want) {
				t.Fatal("cross-block double not fully repaired")
			}
		}
		// Detection invariant: memory differs from truth after a scrub only
		// if something was flagged uncorrectable.
		if !mem.Equal(want) && rep.Uncorrectable == 0 {
			t.Fatal("silent corruption: memory wrong and nothing flagged")
		}
	})
}
