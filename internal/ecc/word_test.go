package ecc

import (
	"fmt"
	"testing"
)

// TestWordCodesExhaustive drives each word code at its edge and paper
// widths through every pattern of ≤Detects flipped positions among one
// word's data bits and stored check bits: CheckBlock must equal the
// bit-serial ReferenceCheck and flag every pattern; CorrectBlock must
// restore memory and check state exactly for ≤Corrects positions and,
// beyond that budget, change neither. The word sits in block (1,1) of a
// 2m-wide crossbar, so wide words straddle 64-bit row windows.
func TestWordCodesExhaustive(t *testing.T) {
	for _, tc := range []struct {
		name string
		ms   []int
	}{
		{SchemeParity, []int{1, 15, 65}},
		{SchemeHamming, []int{2, 15, 64}},
		{SchemeDEC, []int{2, 15, 21}},
	} {
		spec, err := SchemeByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range tc.ms {
			p := Params{N: 2 * m, M: m}
			mem := randomMemory(int64(m), p)
			s := spec.New(p, mem).(*wordScheme)
			want, clean := mem.Clone(), s.Clone()
			r := m + m/2 // the word under test: row r, word 1
			flip := func(i int) {
				if i < m {
					mem.Flip(r, m+i)
				} else {
					s.check[r*s.words+1] ^= 1 << uint(i-m)
				}
			}
			patterns := 0
			var walk func(first int, pos []int)
			walk = func(first int, pos []int) {
				patterns++
				for _, i := range pos {
					flip(i)
				}
				got, ref := s.CheckBlock(mem, 1, 1), s.ReferenceCheck(mem, 1, 1)
				if fmt.Sprint(got) != fmt.Sprint(ref) {
					t.Fatalf("%s m=%d flips %v: CheckBlock %v, ReferenceCheck %v", tc.name, m, pos, got, ref)
				}
				if (len(got) == 0) != (len(pos) == 0) {
					t.Fatalf("%s m=%d flips %v: diagnosed %v", tc.name, m, pos, got)
				}
				dirtyMem, dirtyS := mem.Clone(), s.Clone()
				s.CorrectBlock(mem, 1, 1)
				if len(pos) <= spec.Corrects {
					if !mem.Equal(want) || !s.Equal(clean) {
						t.Fatalf("%s m=%d flips %v: not repaired exactly", tc.name, m, pos)
					}
				} else {
					if !mem.Equal(dirtyMem) || !s.Equal(dirtyS) {
						t.Fatalf("%s m=%d flips %v: beyond-budget error was mutated", tc.name, m, pos)
					}
					for _, i := range pos {
						flip(i)
					}
				}
				if len(pos) == spec.Detects {
					return
				}
				for i := first; i < m+s.code.checks; i++ {
					walk(i+1, append(pos, i))
				}
			}
			walk(0, nil)
			if patterns < 2 {
				t.Fatalf("%s m=%d: only %d patterns", tc.name, m, patterns)
			}
		}
	}
}
