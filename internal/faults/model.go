package faults

// This file extends the uniform-transient error model of the original
// reliability analysis (Section V-A) into a fault taxonomy: the paper's
// correction guarantee is "any single error per block between scrubs", and
// proving that claim end-to-end requires adversarial models that stress the
// guarantee differently — point flips, permanently stuck cells that
// re-assert after every overwrite, and clustered wordline/bitline faults
// that concentrate many flips on one line. Each model is a stateless spec
// implementing Model; per-crossbar mutable state (the stuck-cell set) is
// owned by the caller so one model value can drive a whole fleet.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/xbar"
)

// Kind enumerates the fault taxonomy.
type Kind int

const (
	// TransientFlip is a one-shot bit flip (state drift, particle strike).
	TransientFlip Kind = iota
	// Stuck0 is a cell permanently stuck at logic '0' (HRS): every write
	// is silently lost and the cell re-asserts 0.
	Stuck0
	// Stuck1 is a cell permanently stuck at logic '1' (LRS).
	Stuck1
	// RowLine is a clustered disturbance flipping a contiguous span of
	// cells along exactly one row (a wordline event).
	RowLine
	// ColLine is the bitline dual: a contiguous span within one column.
	ColLine

	// NumKinds is the number of fault kinds (for histogram sizing).
	NumKinds int = iota
)

// String names the fault kind.
func (k Kind) String() string {
	switch k {
	case TransientFlip:
		return "transient"
	case Stuck0:
		return "stuck0"
	case Stuck1:
		return "stuck1"
	case RowLine:
		return "rowline"
	case ColLine:
		return "colline"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Fault is one injected fault event. Point faults affect the single cell
// (Row,Col); line faults affect Span contiguous cells starting there and
// running along the row (RowLine) or column (ColLine) — never crossing
// into another line.
type Fault struct {
	Kind     Kind
	Row, Col int
	Span     int // affected cells; 1 for point faults
}

// Cells calls fn for every cell the fault touches, in line order.
func (f Fault) Cells(fn func(r, c int)) {
	span := f.Span
	if span < 1 {
		span = 1
	}
	for i := 0; i < span; i++ {
		switch f.Kind {
		case RowLine:
			fn(f.Row, f.Col+i)
		case ColLine:
			fn(f.Row+i, f.Col)
		default:
			fn(f.Row, f.Col)
			return
		}
	}
}

// StuckCell is one permanently stuck memristor.
type StuckCell struct {
	Row, Col int
	Value    bool
}

// StuckSet tracks the stuck cells of one crossbar. Iteration order is
// insertion order, so campaigns replay deterministically.
type StuckSet struct {
	cells []StuckCell
	idx   map[[2]int]int
}

// NewStuckSet returns an empty stuck-cell set.
func NewStuckSet() *StuckSet {
	return &StuckSet{idx: make(map[[2]int]int)}
}

// Add marks cell (r,c) stuck at v. The first fault wins: adding an
// already-stuck cell is a no-op returning false.
func (s *StuckSet) Add(r, c int, v bool) bool {
	k := [2]int{r, c}
	if _, dup := s.idx[k]; dup {
		return false
	}
	s.idx[k] = len(s.cells)
	s.cells = append(s.cells, StuckCell{Row: r, Col: c, Value: v})
	return true
}

// Evict removes cell (r,c) from the set so it stops re-asserting — the
// model-side half of repair: once the physical line is spared out
// (post-package-repair style remap), the defect is no longer in the data
// path and must not overwrite the replacement cell. Returns false if the
// cell was not stuck. Insertion order of the surviving cells is preserved,
// so campaigns with repair active still replay deterministically.
func (s *StuckSet) Evict(r, c int) bool {
	k := [2]int{r, c}
	i, ok := s.idx[k]
	if !ok {
		return false
	}
	s.cells = append(s.cells[:i], s.cells[i+1:]...)
	delete(s.idx, k)
	for j := i; j < len(s.cells); j++ {
		s.idx[[2]int{s.cells[j].Row, s.cells[j].Col}] = j
	}
	return true
}

// Stuck reports whether cell (r,c) is stuck, and at which value.
func (s *StuckSet) Stuck(r, c int) (v bool, ok bool) {
	i, ok := s.idx[[2]int{r, c}]
	if !ok {
		return false, false
	}
	return s.cells[i].Value, true
}

// Len returns the number of stuck cells.
func (s *StuckSet) Len() int { return len(s.cells) }

// Cells returns the stuck cells in insertion order. The slice is live;
// callers must not modify it.
func (s *StuckSet) Cells() []StuckCell { return s.cells }

// Reassert forces every stuck cell back to its stuck value — the physics
// of a stuck-at defect: writes land electrically but the device state
// never changes, so after any overwrite the stored bit reads back as the
// stuck value. It returns the number of cells whose content changed.
func (s *StuckSet) Reassert(x *xbar.Crossbar) int {
	changed := 0
	for _, c := range s.cells {
		if x.Get(c.Row, c.Col) != c.Value {
			x.Set(c.Row, c.Col, c.Value)
			changed++
		}
	}
	return changed
}

// ReassertRow re-asserts only the stuck cells lying in row r — the write
// path's view of the physics: committing a row drives every cell of that
// line, and the defective ones snap straight back. Returns the number of
// cells whose content changed.
func (s *StuckSet) ReassertRow(x *xbar.Crossbar, r int) int {
	changed := 0
	for _, c := range s.cells {
		if c.Row == r && x.Get(c.Row, c.Col) != c.Value {
			x.Set(c.Row, c.Col, c.Value)
			changed++
		}
	}
	return changed
}

// Model is a fault model: Apply injects the faults of one exposure window
// of `hours` hours into x, drawing randomness only from rng and recording
// any permanently stuck cells in stuck. Implementations must be stateless
// (safe to share across crossbars) and must consume rng deterministically,
// so fleet campaigns replay identically under any worker count.
type Model interface {
	Name() string
	Apply(x *xbar.Crossbar, stuck *StuckSet, rng *rand.Rand, hours float64) []Fault
}

// Transient is the paper's uniform independent model: each bit flips with
// probability 1−exp(−SER·t/10⁹), locations uniform, double hits cancel.
type Transient struct {
	SER float64 // FIT/bit
}

// Name implements Model.
func (m Transient) Name() string { return "transient" }

// Apply implements Model.
func (m Transient) Apply(x *xbar.Crossbar, _ *StuckSet, rng *rand.Rand, hours float64) []Fault {
	n := sampleCount(rng, m.SER, x.Rows()*x.Cols(), hours)
	faults := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		f := Fault{Kind: TransientFlip, Row: rng.Intn(x.Rows()), Col: rng.Intn(x.Cols()), Span: 1}
		x.Flip(f.Row, f.Col)
		faults = append(faults, f)
	}
	return faults
}

// StuckAt models permanent manufacturing or wear-out defects appearing at
// rate SER [FIT/bit]: an affected cell snaps to Value and stays there —
// the caller's StuckSet re-asserts it after every subsequent overwrite.
type StuckAt struct {
	SER   float64 // FIT/bit — rate at which cells become stuck
	Value bool
}

// Name implements Model.
func (m StuckAt) Name() string {
	if m.Value {
		return "stuck1"
	}
	return "stuck0"
}

// Kind returns the fault kind this model injects.
func (m StuckAt) Kind() Kind {
	if m.Value {
		return Stuck1
	}
	return Stuck0
}

// Apply implements Model.
func (m StuckAt) Apply(x *xbar.Crossbar, stuck *StuckSet, rng *rand.Rand, hours float64) []Fault {
	n := sampleCount(rng, m.SER, x.Rows()*x.Cols(), hours)
	faults := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		r, c := rng.Intn(x.Rows()), rng.Intn(x.Cols())
		if stuck == nil {
			panic("faults: StuckAt model needs a StuckSet")
		}
		if !stuck.Add(r, c, m.Value) {
			continue // already stuck; first defect wins
		}
		x.Set(r, c, m.Value)
		faults = append(faults, Fault{Kind: m.Kind(), Row: r, Col: c, Span: 1})
	}
	return faults
}

// LineCluster models clustered disturbances: a wordline or bitline event
// flips a contiguous span of cells along exactly one line. Events occur at
// rate SER [FIT/line] across the rows+cols line sites; each event picks a
// uniformly random line and a uniformly placed span within it.
type LineCluster struct {
	SER  float64 // FIT/line
	Span int     // cells flipped per event; <=0 = the full line
}

// Name implements Model.
func (m LineCluster) Name() string {
	if m.Span > 0 {
		return fmt.Sprintf("lines:%d", m.Span)
	}
	return "lines"
}

// Apply implements Model.
func (m LineCluster) Apply(x *xbar.Crossbar, _ *StuckSet, rng *rand.Rand, hours float64) []Fault {
	sites := x.Rows() + x.Cols()
	n := sampleCount(rng, m.SER, sites, hours)
	faults := make([]Fault, 0, n)
	for i := 0; i < n; i++ {
		site := rng.Intn(sites)
		var f Fault
		if site < x.Rows() { // wordline event along row `site`
			span := clampSpan(m.Span, x.Cols())
			f = Fault{Kind: RowLine, Row: site, Col: rng.Intn(x.Cols() - span + 1), Span: span}
		} else { // bitline event along column `site-rows`
			span := clampSpan(m.Span, x.Rows())
			f = Fault{Kind: ColLine, Row: rng.Intn(x.Rows() - span + 1), Col: site - x.Rows(), Span: span}
		}
		f.Cells(func(r, c int) { x.Flip(r, c) })
		faults = append(faults, f)
	}
	return faults
}

func clampSpan(span, lineLen int) int {
	if span <= 0 || span > lineLen {
		return lineLen
	}
	return span
}

// ModelNames lists the named fault models for CLI usage text. "lines"
// additionally accepts a span suffix ("lines:<span>", resolved by
// ModelByName) bounding each line event to that many consecutive cells.
func ModelNames() []string { return []string{"transient", "stuck0", "stuck1", "lines"} }

// ModelByName resolves a named fault model at rate ser (FIT/bit for point
// models, FIT/line for "lines"). "lines:<span>" yields a LineCluster whose
// events touch at most span consecutive cells — the clustered-burst regime
// an interleaved code decomposes into per-sub-code singles.
func ModelByName(name string, ser float64) (Model, error) {
	if ser < 0 {
		return nil, fmt.Errorf("faults: negative SER %g", ser)
	}
	switch name {
	case "transient":
		return Transient{SER: ser}, nil
	case "stuck0":
		return StuckAt{SER: ser, Value: false}, nil
	case "stuck1":
		return StuckAt{SER: ser, Value: true}, nil
	case "lines":
		return LineCluster{SER: ser}, nil
	}
	if spanStr, ok := strings.CutPrefix(name, "lines:"); ok {
		span, err := strconv.Atoi(spanStr)
		if err != nil || span < 1 {
			return nil, fmt.Errorf("faults: bad line span in model %q (want lines:<span> with span ≥ 1)", name)
		}
		return LineCluster{SER: ser, Span: span}, nil
	}
	return nil, fmt.Errorf("faults: unknown fault model %q (have %v)", name, ModelNames())
}
