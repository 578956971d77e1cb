package ecc

// Scheme-tagged benchmarks: every sub-benchmark carries a `/scheme=NAME`
// component, which cmd/benchjson parses into a `scheme` field so the
// BENCH_<date>.json snapshots compare backends by name. The custom
// check-bits metric records each scheme's storage overhead alongside its
// time — the E10 table's raw numbers.

import (
	"testing"

	"repro/internal/bitmat"
)

// benchScheme builds a scheme over a random 60×60 image — a geometry
// every registered scheme accepts (60 is divisible by the x2/x4
// interleave widths and m=15 fits the DEC word decoder).
func benchScheme(b *testing.B, name string) (Scheme, *bitmat.Mat, Params) {
	b.Helper()
	p := Params{N: 60, M: 15}
	mem := randomMemory(1, p)
	spec, err := SchemeByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return spec.New(p, mem), mem, p
}

// BenchmarkSchemeScrub: full-crossbar check-and-correct sweep per scheme
// (the scrub cost of the E10 table), on a clean image, one block row per
// CorrectLine as the machine's scrub sweeps it.
func BenchmarkSchemeScrub(b *testing.B) {
	for _, name := range SchemeNames() {
		b.Run("scheme="+name, func(b *testing.B) {
			s, mem, p := benchScheme(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for br := 0; br < p.BlocksPerSide(); br++ {
					s.CorrectLine(mem, true, br, nil)
				}
			}
			// After the loop: ResetTimer discards earlier ReportMetric calls.
			b.ReportMetric(float64(s.OverheadBits()), "check-bits")
		})
	}
}

// BenchmarkSchemeUpdateRow: the continuous delta update for one whole-row
// write (the serving layer's hot commit path) per scheme.
func BenchmarkSchemeUpdateRow(b *testing.B) {
	for _, name := range SchemeNames() {
		b.Run("scheme="+name, func(b *testing.B) {
			s, mem, p := benchScheme(b, name)
			cols := bitmat.NewVec(p.N)
			cols.Fill(true)
			old := mem.Row(7).Clone()
			cur := old.Clone()
			for i := 0; i < p.N; i += 3 {
				cur.Flip(i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Two symmetric updates return the state to its start, so
				// the loop is steady-state.
				s.UpdateRowWrite(7, old, cur, cols)
				s.UpdateRowWrite(7, cur, old, cols)
			}
			b.ReportMetric(float64(s.LineUpdateReads(p.N)), "line-update-reads")
		})
	}
}

// BenchmarkSchemeCorrectSingle: locate-and-repair latency for one flipped
// cell per scheme (parity only detects; it measures the detect path).
func BenchmarkSchemeCorrectSingle(b *testing.B) {
	for _, name := range SchemeNames() {
		b.Run("scheme="+name, func(b *testing.B) {
			s, mem, _ := benchScheme(b, name)
			// The covering unit's home block — block (1,2) itself for
			// column-local schemes, the stripe's home for interleaved.
			ubr, ubc, _ := s.UnitOf(17, 31)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mem.Flip(17, 31)
				s.CorrectBlock(mem, ubr, ubc)
				if name == SchemeParity {
					mem.Flip(17, 31) // detect-only: undo by hand
				}
			}
		})
	}
}
