package faults

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/xbar"
)

func TestModelByName(t *testing.T) {
	for _, name := range ModelNames() {
		m, err := ModelByName(name, 1e5)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Fatalf("%q resolved to %q", name, m.Name())
		}
	}
	// The span-bounded line model round-trips through its Name.
	m, err := ModelByName("lines:4", 1e5)
	if err != nil {
		t.Fatal(err)
	}
	lc, ok := m.(LineCluster)
	if !ok || lc.Span != 4 || m.Name() != "lines:4" {
		t.Fatalf("lines:4 resolved to %#v (name %q)", m, m.Name())
	}
	for _, bad := range []string{"nope", "lines:", "lines:0", "lines:-2", "lines:x"} {
		if _, err := ModelByName(bad, 1); err == nil {
			t.Fatalf("bad model %q accepted", bad)
		}
	}
	if _, err := ModelByName("transient", -1); err == nil {
		t.Fatal("negative SER accepted")
	}
}

// TestStuckAtReassertsAfterOverwrite is the satellite contract: a stuck
// cell swallows every later write and re-asserts its stuck value.
func TestStuckAtReassertsAfterOverwrite(t *testing.T) {
	x := xbar.New(16, 16)
	stuck := NewStuckSet()
	rng := rand.New(rand.NewSource(3))
	m := StuckAt{SER: 5e6, Value: true}
	faults := m.Apply(x, stuck, rng, 24)
	if len(faults) == 0 {
		t.Fatal("no stuck cells injected — raise SER")
	}
	if stuck.Len() != len(faults) {
		t.Fatalf("stuck set has %d cells, %d faults reported", stuck.Len(), len(faults))
	}
	for _, f := range faults {
		if f.Kind != Stuck1 {
			t.Fatalf("fault kind %v, want %v", f.Kind, Stuck1)
		}
		if !x.Get(f.Row, f.Col) {
			t.Fatalf("cell (%d,%d) not forced to stuck value", f.Row, f.Col)
		}
		// Overwrite through the controller path; the defect must win.
		x.Write(f.Row, f.Col, false)
		if x.Get(f.Row, f.Col) {
			t.Fatal("write did not land in the simulated array")
		}
	}
	if changed := stuck.Reassert(x); changed != len(faults) {
		t.Fatalf("reassert changed %d cells, want %d", changed, len(faults))
	}
	for _, f := range faults {
		if !x.Get(f.Row, f.Col) {
			t.Fatalf("cell (%d,%d) did not re-assert", f.Row, f.Col)
		}
	}
	// Already-asserted cells are not rewritten.
	if changed := stuck.Reassert(x); changed != 0 {
		t.Fatalf("idempotent reassert changed %d cells", changed)
	}
}

// TestStuckSetEvictStopsReassertion is the repair-satellite contract:
// evicting a cell (the model-side effect of sparing out the physical
// line) stops its defect from re-asserting, while every unrepaired cell
// keeps re-asserting exactly as before.
func TestStuckSetEvictStopsReassertion(t *testing.T) {
	x := xbar.New(8, 8)
	s := NewStuckSet()
	s.Add(1, 1, true)
	s.Add(2, 2, true)
	s.Add(3, 3, true)

	if !s.Evict(2, 2) {
		t.Fatal("evicting a stuck cell must succeed")
	}
	if s.Evict(2, 2) || s.Evict(5, 5) {
		t.Fatal("evicting a non-stuck cell must return false")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d after evict, want 2", s.Len())
	}
	// Insertion order of survivors is preserved (determinism contract).
	cells := s.Cells()
	if cells[0].Row != 1 || cells[1].Row != 3 {
		t.Fatalf("survivor order corrupted: %+v", cells)
	}
	if _, ok := s.Stuck(2, 2); ok {
		t.Fatal("evicted cell still reported stuck")
	}
	if v, ok := s.Stuck(3, 3); !ok || !v {
		t.Fatal("unrepaired cell lost from the set")
	}

	// The evicted cell holds host data; unrepaired cells still re-assert.
	if changed := s.Reassert(x); changed != 2 {
		t.Fatalf("reassert changed %d cells, want 2", changed)
	}
	if x.Get(2, 2) {
		t.Fatal("evicted defect re-asserted")
	}
	if !x.Get(1, 1) || !x.Get(3, 3) {
		t.Fatal("unrepaired defects failed to re-assert")
	}

	// Eviction keeps the index consistent: re-adding and evicting the
	// head exercises the reindex path.
	s.Add(2, 2, false)
	if !s.Evict(1, 1) {
		t.Fatal("evicting head failed")
	}
	if v, ok := s.Stuck(2, 2); !ok || v {
		t.Fatal("index corrupted after head eviction")
	}
}

// TestStuckSetReassertRow pins the write-path physics: committing a row
// re-asserts only that row's defects.
func TestStuckSetReassertRow(t *testing.T) {
	x := xbar.New(8, 8)
	s := NewStuckSet()
	s.Add(4, 0, true)
	s.Add(4, 7, true)
	s.Add(5, 3, true)
	if changed := s.ReassertRow(x, 4); changed != 2 {
		t.Fatalf("ReassertRow(4) changed %d cells, want 2", changed)
	}
	if !x.Get(4, 0) || !x.Get(4, 7) {
		t.Fatal("row-4 defects not re-asserted")
	}
	if x.Get(5, 3) {
		t.Fatal("row-5 defect re-asserted by a row-4 write")
	}
	if changed := s.ReassertRow(x, 4); changed != 0 {
		t.Fatalf("idempotent ReassertRow changed %d cells", changed)
	}
}

func TestStuckSetFirstDefectWins(t *testing.T) {
	s := NewStuckSet()
	if !s.Add(1, 2, true) {
		t.Fatal("first add rejected")
	}
	if s.Add(1, 2, false) {
		t.Fatal("second defect at same cell accepted")
	}
	if s.Len() != 1 || !s.Cells()[0].Value {
		t.Fatalf("stuck set corrupted: %+v", s.Cells())
	}
}

// TestLineClusterSpansExactlyOneLine is the satellite contract: every
// clustered event stays within exactly one row or one column.
func TestLineClusterSpansExactlyOneLine(t *testing.T) {
	const rows, cols = 24, 40
	for _, span := range []int{0, 1, 5, 1000} {
		x := xbar.New(rows, cols)
		rng := rand.New(rand.NewSource(11))
		faults := LineCluster{SER: 2e7, Span: span}.Apply(x, nil, rng, 24)
		if len(faults) == 0 {
			t.Fatalf("span=%d: no line events — raise SER", span)
		}
		for _, f := range faults {
			lineLen := cols
			if f.Kind == ColLine {
				lineLen = rows
			} else if f.Kind != RowLine {
				t.Fatalf("unexpected kind %v", f.Kind)
			}
			wantSpan := span
			if span <= 0 || span > lineLen {
				wantSpan = lineLen
			}
			if f.Span != wantSpan {
				t.Fatalf("span=%d %v fault has span %d, want %d", span, f.Kind, f.Span, wantSpan)
			}
			cells := 0
			f.Cells(func(r, c int) {
				cells++
				if r < 0 || r >= rows || c < 0 || c >= cols {
					t.Fatalf("cell (%d,%d) out of bounds", r, c)
				}
				if f.Kind == RowLine && r != f.Row {
					t.Fatalf("row-line fault left row %d for %d", f.Row, r)
				}
				if f.Kind == ColLine && c != f.Col {
					t.Fatalf("col-line fault left column %d for %d", f.Col, c)
				}
			})
			if cells != wantSpan {
				t.Fatalf("fault visited %d cells, want %d", cells, wantSpan)
			}
		}
	}
}

// TestInjectPoissonPathStatistics is the satellite coverage for the large-
// population Poisson path of the Transient model: on a crossbar big enough
// to bypass exact binomial sampling, the injected count must match the
// binomial mean and Poisson-like variance.
func TestInjectPoissonPathStatistics(t *testing.T) {
	const rows, cols = 128, 64 // 8192 bits > the 4096 exact-sampling cutoff
	model, rng := Transient{SER: 1e6}, rand.New(rand.NewSource(77))
	hours := 24.0
	want := float64(rows*cols) * ErrorProbability(model.SER, hours) // ≈ 196
	const trials = 400
	counts := make([]float64, trials)
	sum := 0.0
	for i := range counts {
		x := xbar.New(rows, cols)
		flips := model.Apply(x, nil, rng, hours)
		for _, f := range flips {
			if f.Row < 0 || f.Row >= rows || f.Col < 0 || f.Col >= cols {
				t.Fatalf("flip (%d,%d) out of range", f.Row, f.Col)
			}
		}
		counts[i] = float64(len(flips))
		sum += counts[i]
	}
	mean := sum / trials
	if math.Abs(mean-want) > 0.1*want {
		t.Fatalf("poisson-path mean %.1f, want ≈ %.1f", mean, want)
	}
	varSum := 0.0
	for _, c := range counts {
		varSum += (c - mean) * (c - mean)
	}
	variance := varSum / (trials - 1)
	// Poisson variance equals its mean; allow generous sampling slack.
	if variance < 0.5*want || variance > 1.6*want {
		t.Fatalf("poisson-path variance %.1f, want ≈ %.1f", variance, want)
	}
}
