package bitmat

import (
	"fmt"
	"math/rand"
	"strings"
)

// Mat is a dense bit matrix stored row-major. All rows share one flat
// word array (each row Vec is a view into it), so building a matrix costs
// O(1) allocations and row walks are cache-sequential instead of chasing
// one heap object per row.
type Mat struct {
	rows, cols int
	r          []*Vec
	w          []uint64 // the flat array, row after row
}

// NewMat returns an all-zero rows×cols bit matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("bitmat: negative matrix dimension")
	}
	wpr := (cols + 63) / 64
	flat := make([]uint64, rows*wpr)
	m := &Mat{rows: rows, cols: cols, r: make([]*Vec, rows), w: flat}
	vs := make([]Vec, rows)
	for i := range vs {
		vs[i] = Vec{n: cols, w: flat[i*wpr : (i+1)*wpr : (i+1)*wpr]}
		m.r[i] = &vs[i]
	}
	return m
}

// Rows returns the number of rows.
func (m *Mat) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Mat) Cols() int { return m.cols }

// Get returns the bit at row r, column c.
func (m *Mat) Get(r, c int) bool {
	m.checkRow(r)
	return m.r[r].Get(c)
}

// Set writes the bit at row r, column c.
func (m *Mat) Set(r, c int, b bool) {
	m.checkRow(r)
	m.r[r].Set(c, b)
}

// Flip inverts the bit at row r, column c and returns the new value.
func (m *Mat) Flip(r, c int) bool {
	m.checkRow(r)
	return m.r[r].Flip(c)
}

func (m *Mat) checkRow(r int) {
	if r < 0 || r >= m.rows {
		panic(rangeError{"bitmat: row %d out of range [0,%d)", r, m.rows})
	}
}

func (m *Mat) checkCol(c int) {
	if c < 0 || c >= m.cols {
		panic(rangeError{"bitmat: column %d out of range [0,%d)", c, m.cols})
	}
}

// Row returns the live row vector (mutations are visible in the matrix).
func (m *Mat) Row(r int) *Vec {
	m.checkRow(r)
	return m.r[r]
}

// RowWords returns the live words of rows [lo,hi) as one slice, row after
// row, (Cols+63)/64 words each — the flat array the row vectors view, for
// walks over consecutive rows.
func (m *Mat) RowWords(lo, hi int) []uint64 {
	if lo < 0 || lo > hi || hi > m.rows {
		panic(rangeError{"bitmat: rows [%d,%d) out of range", lo, hi})
	}
	wpr := (m.cols + 63) >> 6
	return m.w[lo*wpr : hi*wpr : hi*wpr]
}

// SetRow copies src into row r.
func (m *Mat) SetRow(r int, src *Vec) {
	m.checkRow(r)
	m.r[r].CopyFrom(src)
}

// Col returns a copy of column c as a vector of length Rows.
func (m *Mat) Col(c int) *Vec {
	m.checkCol(c)
	out := NewVec(m.rows)
	wi, sh := c>>6, uint(c&63)
	for r := 0; r < m.rows; r++ {
		out.w[r>>6] |= (m.r[r].w[wi] >> sh & 1) << uint(r&63)
	}
	return out
}

// SetCol writes src (length Rows) into column c.
func (m *Mat) SetCol(c int, src *Vec) {
	m.checkCol(c)
	if src.Len() != m.rows {
		panic("bitmat: SetCol length mismatch")
	}
	wi, bit := c>>6, uint64(1)<<uint(c&63)
	for r := 0; r < m.rows; r++ {
		if src.w[r>>6]>>uint(r&63)&1 != 0 {
			m.r[r].w[wi] |= bit
		} else {
			m.r[r].w[wi] &^= bit
		}
	}
}

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.rows, m.cols)
	for i, v := range m.r {
		out.r[i].CopyFrom(v)
	}
	return out
}

// Equal reports whether two matrices hold identical bits.
func (m *Mat) Equal(o *Mat) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.r {
		if !m.r[i].Equal(o.r[i]) {
			return false
		}
	}
	return true
}

// Zero clears the matrix.
func (m *Mat) Zero() {
	for _, v := range m.r {
		v.Zero()
	}
}

// Fill sets every bit to b.
func (m *Mat) Fill(b bool) {
	for _, v := range m.r {
		v.Fill(b)
	}
}

// Popcount returns the number of set bits in the matrix.
func (m *Mat) Popcount() int {
	c := 0
	for _, v := range m.r {
		c += v.Popcount()
	}
	return c
}

// Transpose returns a new cols×rows matrix with axes swapped. It works in
// 64×64 tiles: each tile is loaded as 64 words, transposed in registers
// with the log₂64-step swap network, and stored as whole words — O(n²/64)
// word operations instead of one Get/Set round trip per set bit.
func (m *Mat) Transpose() *Mat {
	out := NewMat(m.cols, m.rows)
	var tile [64]uint64
	for tr := 0; tr < m.rows; tr += 64 {
		th := m.rows - tr
		if th > 64 {
			th = 64
		}
		for tc := 0; tc < m.cols; tc += 64 {
			tw := m.cols - tc
			if tw > 64 {
				tw = 64
			}
			wi := tc >> 6
			for i := 0; i < th; i++ {
				tile[i] = m.r[tr+i].w[wi]
			}
			for i := th; i < 64; i++ {
				tile[i] = 0
			}
			transpose64(&tile)
			wo := tr >> 6
			for i := 0; i < tw; i++ {
				out.r[tc+i].w[wo] = tile[i]
			}
		}
	}
	return out
}

// transpose64 transposes a 64×64 bit block held as 64 row words (bit c of
// word r is cell (r,c)) using the recursive block-swap network.
func transpose64(a *[64]uint64) {
	j := uint(32)
	mask := uint64(0x00000000FFFFFFFF)
	for ; j != 0; j, mask = j>>1, mask^(mask<<(j>>1)) {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>j ^ a[k+j]) & mask
			a[k+j] ^= t
			a[k] ^= t << j
		}
	}
}

// Block returns a copy of the h×w submatrix whose top-left corner is (r0,c0).
func (m *Mat) Block(r0, c0, h, w int) *Mat {
	if r0 < 0 || c0 < 0 || r0+h > m.rows || c0+w > m.cols {
		panic(fmt.Sprintf("bitmat: block (%d,%d,%d,%d) out of %dx%d", r0, c0, h, w, m.rows, m.cols))
	}
	out := NewMat(h, w)
	for r := 0; r < h; r++ {
		copyBits(out.r[r].w, 0, m.r[r0+r].w, c0, w)
	}
	return out
}

// SetBlock writes src into m with top-left corner at (r0,c0).
func (m *Mat) SetBlock(r0, c0 int, src *Mat) {
	if r0 < 0 || c0 < 0 || r0+src.rows > m.rows || c0+src.cols > m.cols {
		panic("bitmat: SetBlock out of range")
	}
	for r := 0; r < src.rows; r++ {
		copyBits(m.r[r0+r].w, c0, src.r[r].w, 0, src.cols)
	}
}

// Randomize fills the matrix with uniform random bits from rng.
func (m *Mat) Randomize(rng *rand.Rand) {
	for _, v := range m.r {
		for i := range v.w {
			v.w[i] = rng.Uint64()
		}
		v.trim()
	}
}

// LeadingDiagonal returns, for an m×m square matrix, the cells of
// wrap-around leading diagonal d: all (r,c) with (r+c) mod m == d.
// The returned vector has element r equal to the bit at (r, (d-r) mod m).
func (m *Mat) LeadingDiagonal(d int) *Vec {
	if m.rows != m.cols {
		panic("bitmat: LeadingDiagonal requires a square matrix")
	}
	n := m.rows
	out := NewVec(n)
	for r := 0; r < n; r++ {
		c := ((d-r)%n + n) % n
		out.w[r>>6] |= (m.r[r].w[c>>6] >> uint(c&63) & 1) << uint(r&63)
	}
	return out
}

// CounterDiagonal returns, for an m×m square matrix, the cells of
// wrap-around counter diagonal d: all (r,c) with (r-c) mod m == d.
// The returned vector has element r equal to the bit at (r, (r-d) mod m).
func (m *Mat) CounterDiagonal(d int) *Vec {
	if m.rows != m.cols {
		panic("bitmat: CounterDiagonal requires a square matrix")
	}
	n := m.rows
	out := NewVec(n)
	for r := 0; r < n; r++ {
		c := ((r-d)%n + n) % n
		out.w[r>>6] |= (m.r[r].w[c>>6] >> uint(c&63) & 1) << uint(r&63)
	}
	return out
}

// String renders the matrix one row per line.
func (m *Mat) String() string {
	var sb strings.Builder
	for r := 0; r < m.rows; r++ {
		sb.WriteString(m.r[r].String())
		if r != m.rows-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
