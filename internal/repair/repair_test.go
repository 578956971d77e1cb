package repair

import (
	"fmt"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in      string
		want    Policy
		wantErr bool
	}{
		{"off", Off, false},
		{"verify", Verify, false},
		{"verify+spare", VerifySpare, false},
		// Only the PolicyNames spellings parse.
		{"", Off, true},
		{"none", Off, true},
		{"false", Off, true},
		{"Verify", Off, true},
		{"verify-only", Off, true},
		{"spare", Off, true},
		{"full", Off, true},
		{"true", Off, true},
		{" verify+spare ", Off, true},
		{"bogus", Off, true},
		{"verify spare", Off, true},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParsePolicy(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestPolicyStringRoundTrip(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		if p.String() != name {
			t.Errorf("Policy %q round-trips to %q", name, p.String())
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Error("zero Config must be Off")
	}
	if got := c.SpareBudget(); got != DefaultSpares {
		t.Errorf("SpareBudget default = %d, want %d", got, DefaultSpares)
	}
	if got := (Config{Spares: -1}).SpareBudget(); got != 0 {
		t.Errorf("SpareBudget explicit-none = %d, want 0", got)
	}
	if got := c.RetireThreshold(); got != DefaultRetireAfter {
		t.Errorf("RetireThreshold default = %d, want %d", got, DefaultRetireAfter)
	}
	if got := c.OffenderCap(); got != DefaultMaxOffenders {
		t.Errorf("OffenderCap default = %d, want %d", got, DefaultMaxOffenders)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("zero Config must validate: %v", err)
	}
	if err := (Config{Policy: Policy(9)}).Validate(); err == nil {
		t.Error("invalid policy must fail Validate")
	}
}

func TestRetireBudgetAndRemapLookup(t *testing.T) {
	tbl := NewTable(Config{Policy: VerifySpare, Spares: 2})
	if tbl.Retired(7, 3) {
		t.Fatal("fresh table must have no remaps")
	}
	if _, ok := tbl.Retire(7, 3); !ok {
		t.Fatal("first retire must succeed")
	}
	if _, ok := tbl.Retire(70, 5); !ok {
		t.Fatal("second retire must succeed within budget")
	}
	// Duplicate retire: returns existing mapping, consumes no budget.
	if s, ok := tbl.Retire(7, 3); !ok || s != 0 {
		t.Fatalf("duplicate retire = (%d,%v), want (0,true)", s, ok)
	}
	if tbl.SparesUsed() != 2 || tbl.SparesLeft() != 0 {
		t.Fatalf("used=%d left=%d, want 2/0", tbl.SparesUsed(), tbl.SparesLeft())
	}
	// Budget exhausted: refused and tallied.
	if _, ok := tbl.Retire(9, 9); ok {
		t.Fatal("retire beyond budget must be refused")
	}
	st := tbl.Stats()
	if st.Retired != 2 || st.Exhausted != 1 {
		t.Fatalf("stats = %+v, want Retired=2 Exhausted=1", st)
	}
	// Remap lookups.
	if !tbl.Retired(7, 3) || !tbl.Retired(70, 5) || tbl.Retired(9, 9) {
		t.Error("Retired lookups wrong")
	}
}

func TestNoteOffenderThreshold(t *testing.T) {
	tbl := NewTable(Config{Policy: VerifySpare, RetireAfter: 3})
	if tbl.NoteOffender(4, 4) || tbl.NoteOffender(4, 4) {
		t.Fatal("below threshold must not retire")
	}
	if !tbl.NoteOffender(4, 4) {
		t.Fatal("third strike must cross RetireAfter=3")
	}
	if got := tbl.OffenderCount(4, 4); got != 3 {
		t.Fatalf("OffenderCount = %d, want 3", got)
	}
	// Once retired, the cell is dropped from tracking and never re-flagged.
	if _, ok := tbl.Retire(4, 4); !ok {
		t.Fatal("retire after threshold must succeed")
	}
	if tbl.OffenderCount(4, 4) != 0 {
		t.Error("retired cell must leave the offender table")
	}
	if tbl.NoteOffender(4, 4) {
		t.Error("retired cell must never be re-flagged")
	}
}

func TestNoteOffenderVerifyOnlyNeverRetires(t *testing.T) {
	tbl := NewTable(Config{Policy: Verify, RetireAfter: 1})
	for i := 0; i < 5; i++ {
		if tbl.NoteOffender(1, 1) {
			t.Fatal("verify-only policy must never request retirement")
		}
	}
	if got := tbl.OffenderCount(1, 1); got != 5 {
		t.Fatalf("OffenderCount = %d, want 5 (tracking still active)", got)
	}
}

func TestOffenderTableBounded(t *testing.T) {
	tbl := NewTable(Config{Policy: VerifySpare, MaxOffenders: 3, RetireAfter: 100})
	for c := 0; c < 5; c++ {
		tbl.NoteOffender(0, c)
	}
	// FIFO eviction: cells 0 and 1 were evicted to admit 3 and 4.
	for c, want := range []int{0, 0, 1, 1, 1} {
		if got := tbl.OffenderCount(0, c); got != want {
			t.Errorf("OffenderCount(0,%d) = %d, want %d", c, got, want)
		}
	}
	// Eviction resets the strike count: the evicted cell re-enters fresh.
	tbl.NoteOffender(0, 0)
	if got := tbl.OffenderCount(0, 0); got != 1 {
		t.Errorf("re-admitted cell count = %d, want 1", got)
	}
}

func TestStatsAddCommutative(t *testing.T) {
	a := Stats{VerifyReads: 10, Mismatches: 3, Retired: 2, Exhausted: 1}
	b := Stats{VerifyReads: 7, Mismatches: 1, Retired: 4, Exhausted: 0}
	ab, ba := a.Add(b), b.Add(a)
	if ab != ba {
		t.Fatalf("Add not commutative: %+v vs %+v", ab, ba)
	}
	want := Stats{VerifyReads: 17, Mismatches: 4, Retired: 6, Exhausted: 1}
	if ab != want {
		t.Fatalf("Add = %+v, want %+v", ab, want)
	}
}

func TestTableStatsCounters(t *testing.T) {
	tbl := NewTable(Config{Policy: Verify})
	tbl.NoteVerifyRead()
	tbl.NoteVerifyRead()
	tbl.NoteMismatch()
	st := tbl.Stats()
	if st.VerifyReads != 2 || st.Mismatches != 1 {
		t.Fatalf("stats = %+v, want VerifyReads=2 Mismatches=1", st)
	}
}

func ExamplePolicy_String() {
	fmt.Println(Off, Verify, VerifySpare)
	// Output: off verify verify+spare
}
