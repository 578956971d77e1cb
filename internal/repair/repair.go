// Package repair is the self-healing layer over protected crossbars: it
// closes the stuck-at silent-corruption hole the fault campaign pinned
// (TestStuckWriteLaunderingEscapesECC) by pairing the paper's delta-update
// ECC with the two mechanisms real memory controllers deploy against
// permanent defects — write-verify and post-package-repair-style sparing.
//
// The campaign's negative result: a permanently stuck cell defeats any
// purely parity-based scheme, because a host write of the non-stuck value
// reads the stuck cell as "old", folds a phantom delta into the check
// bits, and leaves them consistent with the defect instead of the data.
// No code over the stored image can see this — the information that the
// write did not land exists only at write time. Write-verify captures
// exactly that information (re-read the committed line, compare against
// intent), and sparing removes the defective cell from the data path so
// the laundering can never recur.
//
// This package owns the bookkeeping: the repair policy, the per-crossbar
// spare-allocation table, and the bounded repeat-offender table that
// drives scrub-triggered retirement. The physics — re-asserting defects,
// evicting them once spared (faults.StuckSet.Evict), fixing the committed
// line — lives in internal/machine, which drives a Table from its write
// and scrub paths.
package repair

import "fmt"

// Policy selects how much self-healing the write and scrub paths perform.
type Policy int

const (
	// Off is the paper's baseline: writes commit unverified, stuck cells
	// launder check bits into silent corruption.
	Off Policy = iota
	// Verify enables write-verify only: every committed line is re-read
	// and persistent mismatches are escalated as defect reports (typed
	// machine.VerifyError, telemetry events) — corruption is detected at
	// the write, never silent, but the defective cell stays in service.
	Verify
	// VerifySpare adds remapping: persistent write-verify mismatches and
	// scrub repeat-offenders are retired onto spare lines (DRAM
	// post-package-repair style) from a bounded per-crossbar budget.
	VerifySpare
)

// String names the policy with its CLI spelling.
func (p Policy) String() string {
	switch p {
	case Off:
		return "off"
	case Verify:
		return "verify"
	case VerifySpare:
		return "verify+spare"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// PolicyNames lists the policies for CLI usage text.
func PolicyNames() []string { return []string{"off", "verify", "verify+spare"} }

// ParsePolicy resolves a -repair flag value: exactly one of PolicyNames.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "off":
		return Off, nil
	case "verify":
		return Verify, nil
	case "verify+spare":
		return VerifySpare, nil
	}
	return Off, fmt.Errorf("repair: unknown policy %q (have %v)", s, PolicyNames())
}

// Default knob values. A handful of spares per crossbar mirrors real
// post-package repair (a few spare rows per bank); two strikes before
// scrub-triggered retirement tolerates one transient masquerading as a
// defect while still retiring a genuinely stuck cell within two scrubs.
const (
	DefaultSpares       = 8
	DefaultRetireAfter  = 2
	DefaultMaxOffenders = 64
)

// Config parameterizes the repair subsystem of one crossbar (and, threaded
// through machine/pmem/fleet configuration, of a whole organization). The
// zero value is the Off policy. All fields are plain integers so configs
// stay comparable and mergeable through the existing fleet plumbing.
type Config struct {
	Policy Policy

	// Spares is the per-crossbar spare-cell budget (0 = DefaultSpares;
	// negative = explicitly none, every retirement refused — the
	// spelling the CLIs use for -spares 0). Beyond it, retirement
	// requests are tallied as exhausted and the defect stays in service —
	// detected by verify, never silent.
	Spares int

	// RetireAfter is the scrub-triggered retirement threshold: a cell the
	// scrub repairs this many times is declared a repeat offender and
	// remapped (<=0 = DefaultRetireAfter). Write-verify mismatches that
	// survive a rewrite retire immediately — the read-back is direct
	// evidence of a stuck cell, no repetition needed.
	RetireAfter int

	// MaxOffenders bounds the per-crossbar offender table (<=0 =
	// DefaultMaxOffenders). When full, the oldest entry is evicted —
	// tracking stays O(1) memory over arbitrarily long runs.
	MaxOffenders int
}

// Enabled reports whether any repair mechanism is active.
func (c Config) Enabled() bool { return c.Policy != Off }

// SpareBudget resolves the effective spare budget.
func (c Config) SpareBudget() int {
	if c.Spares == 0 {
		return DefaultSpares
	}
	if c.Spares < 0 {
		return 0
	}
	return c.Spares
}

// RetireThreshold resolves the effective scrub-retirement threshold.
func (c Config) RetireThreshold() int {
	if c.RetireAfter <= 0 {
		return DefaultRetireAfter
	}
	return c.RetireAfter
}

// OffenderCap resolves the effective offender-table bound.
func (c Config) OffenderCap() int {
	if c.MaxOffenders <= 0 {
		return DefaultMaxOffenders
	}
	return c.MaxOffenders
}

// Validate rejects malformed configurations (unknown policy values).
func (c Config) Validate() error {
	if c.Policy < Off || c.Policy > VerifySpare {
		return fmt.Errorf("repair: invalid policy %d", int(c.Policy))
	}
	return nil
}

// Stats is the mergeable repair activity summary of one or more crossbars.
type Stats struct {
	// VerifyReads counts committed-line read-backs performed.
	VerifyReads int64
	// Mismatches counts persistent write-verify mismatches (post-rewrite).
	Mismatches int64
	// Retired counts cells remapped onto spares (write-verify and
	// scrub-triggered retirements both land here).
	Retired int64
	// Exhausted counts retirement requests refused for lack of spares.
	Exhausted int64
}

// Add returns the field-wise sum — commutative and associative, so
// per-crossbar stats aggregate in any order.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		VerifyReads: s.VerifyReads + o.VerifyReads,
		Mismatches:  s.Mismatches + o.Mismatches,
		Retired:     s.Retired + o.Retired,
		Exhausted:   s.Exhausted + o.Exhausted,
	}
}

// Table is one crossbar's repair state: the spare remap table and the
// bounded repeat-offender tracker. It is pure bookkeeping — the caller
// performs the physical eviction and data fix — and is not safe for
// concurrent use (machine access is already serialized per bank).
type Table struct {
	cfg Config

	// remap records retired cells and the spare each occupies.
	remap map[[2]int]int

	// offenders is the bounded scrub-repeat tracker: counts per cell with
	// FIFO eviction of the oldest entry once cap is reached, so the order
	// (and therefore every retirement decision) is deterministic.
	offenders map[[2]int]int
	order     [][2]int

	stats Stats
}

// NewTable builds the repair state for one crossbar.
func NewTable(cfg Config) *Table {
	return &Table{
		cfg:       cfg,
		remap:     make(map[[2]int]int),
		offenders: make(map[[2]int]int),
	}
}

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

// Stats returns the accumulated repair statistics.
func (t *Table) Stats() Stats { return t.stats }

// NoteVerifyRead charges one committed-line read-back.
func (t *Table) NoteVerifyRead() { t.stats.VerifyReads++ }

// NoteMismatch records one persistent write-verify mismatch.
func (t *Table) NoteMismatch() { t.stats.Mismatches++ }

// SparesUsed returns the number of spares allocated so far.
func (t *Table) SparesUsed() int { return len(t.remap) }

// SparesLeft returns the remaining spare budget.
func (t *Table) SparesLeft() int { return t.cfg.SpareBudget() - len(t.remap) }

// Retired reports whether cell (r,c) has been remapped to a spare.
func (t *Table) Retired(r, c int) bool {
	_, ok := t.remap[[2]int{r, c}]
	return ok
}

// Retire allocates a spare for cell (r,c). It returns the spare index and
// true on success; on a duplicate it returns the existing mapping without
// consuming budget, and with the budget exhausted it returns (-1, false)
// and tallies the refusal — the caller escalates but does not remap.
func (t *Table) Retire(r, c int) (spare int, ok bool) {
	key := [2]int{r, c}
	if s, dup := t.remap[key]; dup {
		return s, true
	}
	if len(t.remap) >= t.cfg.SpareBudget() {
		t.stats.Exhausted++
		return -1, false
	}
	spare = len(t.remap)
	t.remap[key] = spare
	t.stats.Retired++
	delete(t.offenders, key) // a retired cell needs no further tracking
	return spare, true
}

// NoteOffender records one scrub repair of cell (r,c) and reports whether
// the cell has crossed the retirement threshold (only ever true under the
// VerifySpare policy; already-retired cells are never re-flagged). The
// offender table is bounded: at capacity the oldest tracked cell is
// evicted first.
func (t *Table) NoteOffender(r, c int) (retire bool) {
	key := [2]int{r, c}
	if _, retired := t.remap[key]; retired {
		return false
	}
	if _, tracked := t.offenders[key]; !tracked {
		if cap := t.cfg.OffenderCap(); len(t.order) >= cap {
			oldest := t.order[0]
			t.order = t.order[1:]
			delete(t.offenders, oldest)
		}
		t.order = append(t.order, key)
	}
	t.offenders[key]++
	return t.cfg.Policy == VerifySpare && t.offenders[key] >= t.cfg.RetireThreshold()
}

// OffenderCount returns the tracked scrub-repair count for cell (r,c).
func (t *Table) OffenderCount(r, c int) int { return t.offenders[[2]int{r, c}] }
