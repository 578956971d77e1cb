package bitmat

import (
	"math/rand"
	"testing"
)

// Differential tests: every word-parallel primitive must agree bit-exactly
// with its retained bit-serial reference, across word-unaligned lengths and
// (where meaningful) aliased receivers. oddLengths deliberately straddles
// the 64-bit word boundaries.
var oddLengths = []int{1, 2, 63, 64, 65, 127, 128, 129, 255, 1020}

func randomVec(t testing.TB, n int, rng *rand.Rand) *Vec {
	t.Helper()
	v := NewVec(n)
	for i := range v.w {
		v.w[i] = rng.Uint64()
	}
	v.trim()
	return v
}

func TestRotateLeftMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range oddLengths {
		v := randomVec(t, n, rng)
		for _, k := range []int{0, 1, 7, n - 1, n, n + 3, -1, -n - 5, 3 * n} {
			got, want := v.RotateLeft(k), rotateLeftRef(v, k)
			if !got.Equal(want) {
				t.Fatalf("RotateLeft(n=%d, k=%d):\n got %s\nwant %s", n, k, got, want)
			}
		}
	}
}

func TestSliceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range oddLengths {
		v := randomVec(t, n, rng)
		for trial := 0; trial < 20; trial++ {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n+1-lo)
			got, want := v.Slice(lo, hi), sliceRef(v, lo, hi)
			if !got.Equal(want) {
				t.Fatalf("Slice(n=%d, [%d,%d)):\n got %s\nwant %s", n, lo, hi, got, want)
			}
		}
	}
}

func TestCopyRangeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range oddLengths {
		for trial := 0; trial < 20; trial++ {
			dst := randomVec(t, n, rng)
			src := randomVec(t, rng.Intn(n)+1, rng)
			cnt := rng.Intn(src.Len() + 1)
			srcLo := rng.Intn(src.Len() + 1 - cnt)
			dstLo := rng.Intn(n + 1 - cnt)

			got, want := dst.Clone(), dst.Clone()
			got.CopyRange(dstLo, src, srcLo, cnt)
			copyRangeRef(want, dstLo, src, srcLo, cnt)
			if !got.Equal(want) {
				t.Fatalf("CopyRange(n=%d, dstLo=%d, srcLo=%d, cnt=%d):\n got %s\nwant %s",
					n, dstLo, srcLo, cnt, got, want)
			}
		}
	}
}

func TestCopyRangeAliased(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range oddLengths {
		for trial := 0; trial < 20; trial++ {
			v := randomVec(t, n, rng)
			cnt := rng.Intn(n + 1)
			srcLo := rng.Intn(n + 1 - cnt)
			dstLo := rng.Intn(n + 1 - cnt)

			got, want := v.Clone(), v.Clone()
			got.CopyRange(dstLo, got, srcLo, cnt)
			copyRangeRef(want, dstLo, want, srcLo, cnt)
			if !got.Equal(want) {
				t.Fatalf("aliased CopyRange(n=%d, dstLo=%d, srcLo=%d, cnt=%d):\n got %s\nwant %s",
					n, dstLo, srcLo, cnt, got, want)
			}
		}
	}
}

func TestMaskedMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range oddLengths {
		v := randomVec(t, n, rng)
		a := randomVec(t, n, rng)
		mask := randomVec(t, n, rng)

		got, want := v.Clone(), v.Clone()
		got.MaskedMerge(a, mask)
		maskedMergeRef(want, a, mask)
		if !got.Equal(want) {
			t.Fatalf("MaskedMerge(n=%d):\n got %s\nwant %s", n, got, want)
		}

		// Aliased: v merged with itself is a no-op regardless of mask.
		self := v.Clone()
		self.MaskedMerge(self, mask)
		if !self.Equal(v) {
			t.Fatalf("self MaskedMerge(n=%d) changed the vector", n)
		}
	}
}

func TestNextOneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range oddLengths {
		v := randomVec(t, n, rng)
		v.And(v, randomVec(t, n, rng)) // sparser, so gaps are exercised
		for i := -1; i <= n+1; i++ {
			if got, want := v.NextOne(i), nextOneRef(v, i); got != want {
				t.Fatalf("NextOne(n=%d, %d) = %d, want %d", n, i, got, want)
			}
		}
	}
}

func TestForEachOneMatchesOnesIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range oddLengths {
		v := randomVec(t, n, rng)
		var got []int
		v.ForEachOne(func(i int) { got = append(got, i) })
		want := v.OnesIndices()
		if len(got) != len(want) {
			t.Fatalf("ForEachOne(n=%d) visited %d bits, want %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ForEachOne(n=%d)[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestUint64AtMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, n := range oddLengths {
		v := randomVec(t, n, rng)
		for trial := 0; trial < 30; trial++ {
			k := rng.Intn(min(n, 64) + 1)
			lo := rng.Intn(n + 1 - k)
			if got, want := v.Uint64At(lo, k), uint64AtRef(v, lo, k); got != want {
				t.Fatalf("Uint64At(n=%d, lo=%d, k=%d) = %#x, want %#x", n, lo, k, got, want)
			}
		}
	}
}

func TestSetUint64AtMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range oddLengths {
		for trial := 0; trial < 30; trial++ {
			var k int
			switch trial {
			case 0:
				k = 0
			case 1:
				k = min(n, 64)
			default:
				k = rng.Intn(min(n, 64) + 1)
			}
			lo := rng.Intn(n + 1 - k)
			if trial == 2 && n > 64 {
				// A window straddling the first word boundary.
				k = min(n-33, 64)
				lo = 33
			}
			x := rng.Uint64()
			got := randomVec(t, n, rng)
			want := got.Clone()
			got.SetUint64At(lo, k, x)
			setUint64AtRef(want, lo, k, x)
			if !got.Equal(want) {
				t.Fatalf("SetUint64At(n=%d, lo=%d, k=%d, %#x):\n got %s\nwant %s", n, lo, k, x, got, want)
			}
			if k > 0 && got.Uint64At(lo, k) != x&maskLow(k) {
				t.Fatalf("SetUint64At(n=%d, lo=%d, k=%d) does not read back", n, lo, k)
			}
		}
	}
}

func TestTransposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dims := []int{1, 3, 63, 64, 65, 127, 129, 200}
	for _, rows := range dims {
		for _, cols := range dims {
			m := NewMat(rows, cols)
			m.Randomize(rng)
			got, want := m.Transpose(), transposeRef(m)
			if !got.Equal(want) {
				t.Fatalf("Transpose(%dx%d) mismatch", rows, cols)
			}
		}
	}
}

func TestColSetColMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	m := NewMat(129, 200)
	m.Randomize(rng)
	for _, c := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if !m.Col(c).Equal(colRef(m, c)) {
			t.Fatalf("Col(%d) mismatch", c)
		}
		src := randomVec(t, 129, rng)
		got, want := m.Clone(), m.Clone()
		got.SetCol(c, src)
		setColRef(want, c, src)
		if !got.Equal(want) {
			t.Fatalf("SetCol(%d) mismatch", c)
		}
	}
}

func TestBlockSetBlockMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := NewMat(130, 130)
	m.Randomize(rng)
	cases := [][4]int{{0, 0, 130, 130}, {1, 1, 64, 64}, {63, 65, 66, 65}, {5, 7, 0, 0}, {100, 9, 30, 121}}
	for _, tc := range cases {
		r0, c0, h, w := tc[0], tc[1], tc[2], tc[3]
		got, want := m.Block(r0, c0, h, w), blockRef(m, r0, c0, h, w)
		if !got.Equal(want) {
			t.Fatalf("Block(%v) mismatch", tc)
		}
		src := NewMat(h, w)
		src.Randomize(rng)
		gm, wm := m.Clone(), m.Clone()
		gm.SetBlock(r0, c0, src)
		setBlockRef(wm, r0, c0, src)
		if !gm.Equal(wm) {
			t.Fatalf("SetBlock(%v) mismatch", tc)
		}
	}
}

// TestTrimPreserved asserts the packing invariant: no optimized op may
// leave garbage in the unused high bits of the last word (word-level
// Equal/Popcount depend on it).
func TestTrimPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range oddLengths {
		if n%64 == 0 {
			continue
		}
		v := randomVec(t, n, rng)
		outs := []*Vec{
			v.RotateLeft(3),
			v.Slice(0, n),
			v.Clone(),
		}
		outs[2].MaskedMerge(v, v)
		for i, o := range outs {
			if o.w[len(o.w)-1]&^maskLow(n&63) != 0 {
				t.Fatalf("case %d (n=%d): high bits not trimmed", i, n)
			}
		}
	}
}
