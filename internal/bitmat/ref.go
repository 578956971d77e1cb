package bitmat

// This file retains the original bit-serial implementations of every
// primitive that was rewritten word-parallel. They are the semantic ground
// truth: the differential tests and the FuzzVecOpsEquivalence target run
// each optimized routine against its reference here and require bit-exact
// agreement. Keep them simple and obviously correct — they are allowed to
// be slow.

// rotateLeftRef is the bit-serial RotateLeft.
func rotateLeftRef(v *Vec, k int) *Vec {
	n := v.n
	out := NewVec(n)
	if n == 0 {
		return out
	}
	k = ((k % n) + n) % n
	for i := 0; i < n; i++ {
		out.Set(i, v.Get((i+k)%n))
	}
	return out
}

// sliceRef is the bit-serial Slice.
func sliceRef(v *Vec, lo, hi int) *Vec {
	out := NewVec(hi - lo)
	for i := lo; i < hi; i++ {
		out.Set(i-lo, v.Get(i))
	}
	return out
}

// copyRangeRef is the bit-serial CopyRange (reads src through a clone so
// that aliased calls have copy-first semantics, matching the optimized
// implementation).
func copyRangeRef(v *Vec, dstLo int, src *Vec, srcLo, n int) {
	from := src.Clone()
	for i := 0; i < n; i++ {
		v.Set(dstLo+i, from.Get(srcLo+i))
	}
}

// maskedMergeRef is the bit-serial MaskedMerge.
func maskedMergeRef(v, a, mask *Vec) {
	for i := 0; i < v.n; i++ {
		if mask.Get(i) {
			v.Set(i, a.Get(i))
		}
	}
}

// nextOneRef is the linear-scan NextOne.
func nextOneRef(v *Vec, i int) int {
	if i < 0 {
		i = 0
	}
	for ; i < v.n; i++ {
		if v.Get(i) {
			return i
		}
	}
	return -1
}

// uint64AtRef is the bit-serial Uint64At.
func uint64AtRef(v *Vec, lo, k int) uint64 {
	var out uint64
	for i := 0; i < k; i++ {
		if v.Get(lo + i) {
			out |= 1 << uint(i)
		}
	}
	return out
}

// setUint64AtRef is the bit-serial SetUint64At.
func setUint64AtRef(v *Vec, lo, k int, x uint64) {
	for i := 0; i < k; i++ {
		v.Set(lo+i, x>>uint(i)&1 != 0)
	}
}

// transposeRef is the bit-serial Transpose.
func transposeRef(m *Mat) *Mat {
	out := NewMat(m.cols, m.rows)
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			if m.Get(r, c) {
				out.Set(c, r, true)
			}
		}
	}
	return out
}

// colRef is the bit-serial Col.
func colRef(m *Mat, c int) *Vec {
	out := NewVec(m.rows)
	for r := 0; r < m.rows; r++ {
		out.Set(r, m.Get(r, c))
	}
	return out
}

// setColRef is the bit-serial SetCol.
func setColRef(m *Mat, c int, src *Vec) {
	for r := 0; r < m.rows; r++ {
		m.Set(r, c, src.Get(r))
	}
}

// blockRef is the bit-serial Block.
func blockRef(m *Mat, r0, c0, h, w int) *Mat {
	out := NewMat(h, w)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			out.Set(r, c, m.Get(r0+r, c0+c))
		}
	}
	return out
}

// setBlockRef is the bit-serial SetBlock.
func setBlockRef(m *Mat, r0, c0 int, src *Mat) {
	for r := 0; r < src.rows; r++ {
		for c := 0; c < src.cols; c++ {
			m.Set(r0+r, c0+c, src.Get(r, c))
		}
	}
}
