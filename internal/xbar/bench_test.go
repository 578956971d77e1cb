package xbar

import (
	"math/rand"
	"testing"

	"repro/internal/bitmat"
)

// BenchmarkXbarGates measures the MAGIC gate execution paths: one cycle of
// each gate family on a 512-column (rows) crossbar with every line
// selected — the configuration where the hardware does 512 gates in one
// cycle and the simulator should do ~8 word operations, not 512 bit
// round-trips. These paths must also be allocation-free.
func BenchmarkXbarGates(b *testing.B) {
	const n = 512
	rng := rand.New(rand.NewSource(1))

	b.Run("NORCols", func(b *testing.B) {
		x := New(n, n)
		x.Mat().Randomize(rng)
		cols := x.AllCols()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x.NORCols(1, 2, 3, cols)
		}
	})

	b.Run("NOTCols", func(b *testing.B) {
		x := New(n, n)
		x.Mat().Randomize(rng)
		cols := x.AllCols()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x.NOTCols(1, 3, cols)
		}
	})

	b.Run("NORRows", func(b *testing.B) {
		x := New(n, n)
		x.Mat().Randomize(rng)
		rows := x.AllRows()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x.NORRows(1, 2, 3, rows)
		}
	})

	b.Run("NOTRows", func(b *testing.B) {
		x := New(n, n)
		x.Mat().Randomize(rng)
		rows := x.AllRows()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x.NOTRows(1, 3, rows)
		}
	})

	b.Run("InitRowsInCols", func(b *testing.B) {
		x := New(n, n)
		cols := x.AllCols()
		rowIdx := []int{4, 5, 6, 7}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x.InitRowsInCols(rowIdx, cols)
		}
	})

	b.Run("InitColumnsInRows", func(b *testing.B) {
		x := New(n, n)
		rows := x.AllRows()
		colIdx := []int{4, 5, 6, 7}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x.InitColumnsInRows(colIdx, rows)
		}
	})

	b.Run("WriteRow", func(b *testing.B) {
		x := New(n, n)
		v := bitmat.NewVec(n)
		v.Fill(true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x.WriteRow(i%n, v)
		}
	})

	b.Run("XOR3Cols", func(b *testing.B) {
		x := New(XOR3WorkRows, n)
		x.Mat().Randomize(rng)
		cols := x.AllCols()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x.XOR3Cols(0, cols)
		}
	})
}
