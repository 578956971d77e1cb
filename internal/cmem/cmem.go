// Package cmem simulates the Check Memory of the proposed architecture
// (Fig 3 and Fig 4 of the paper): the memory-side half of the diagonal ECC
// mechanism.
//
// Components, mirroring the paper's Section IV:
//
//   - Check-bit crossbars: m crossbar arrays per diagonal family, each
//     (n/m)×(n/m). Cell (br,bc) of crossbar d stores the parity of
//     diagonal d of the block in block-row br, block-column bc. The split
//     into m crossbars is forced by MEM supporting both in-row and
//     in-column operations.
//   - Processing crossbars (PCs): dedicated 11×n crossbar pairs (one per
//     family) that execute XOR3 = 8 MAGIC NORs, pipelined so MEM and the
//     check-bit crossbars stay free during the computation.
//   - Checking crossbar: a 2n-cell row that holds block syndromes during
//     an ECC check and flags non-zero ones for the controller.
//   - Connection unit + shifters: routing between all of the above
//     (modeled by internal/shifter; the connection unit adds transistor
//     cost only, see internal/area).
//
// The simulation is functional *and* cycle-counted: data actually moves
// through simulated MAGIC operations, and each component accumulates the
// cycles it spends, so tests can verify both that the CMEM state matches
// the mathematical code (internal/ecc) and that operation costs match the
// architecture's claims.
package cmem

import (
	"fmt"

	"repro/internal/bitmat"
	"repro/internal/ecc"
	"repro/internal/shifter"
	"repro/internal/xbar"
)

// Config sizes a CMEM.
type Config struct {
	N int // MEM side length
	M int // block side length (odd, divides N, at most 63)
	K int // number of processing crossbars
}

// PaperConfig returns the case-study configuration n=1020, m=15, k=3.
func PaperConfig() Config { return Config{N: 1020, M: 15, K: 3} }

// Validate checks the configuration.
func (c Config) Validate() error {
	// The diagonal code's own geometry gate, whose m bound lets Image and
	// LoadImage exchange word-packed ecc.CheckBits.
	diag, _ := ecc.SchemeByName(ecc.SchemeDiagonal) // always registered
	if err := diag.Validate(ecc.Params{N: c.N, M: c.M}); err != nil {
		return err
	}
	if c.K < 1 {
		return fmt.Errorf("cmem: need at least one processing crossbar, got %d", c.K)
	}
	return nil
}

// ProcessingCrossbar is one XOR3 engine: an 11-row strip per diagonal
// family, n columns wide, executing XOR3 column-parallel in 8 NOR cycles.
type ProcessingCrossbar struct {
	lead, counter *xbar.Crossbar
}

func newPC(n int) *ProcessingCrossbar {
	return &ProcessingCrossbar{
		lead:    xbar.New(xbar.XOR3WorkRows, n),
		counter: xbar.New(xbar.XOR3WorkRows, n),
	}
}

// Cycles returns the total cycles this PC has consumed (both strips run in
// lockstep, so the leading strip's clock is the PC clock).
func (pc *ProcessingCrossbar) Cycles() int { return pc.lead.Stats().Cycles }

// CMEM is the simulated check memory for one MEM crossbar.
type CMEM struct {
	cfg      Config
	geom     ecc.Params
	sh       *shifter.Shifter
	lead     []*xbar.Crossbar // [M] check-bit crossbars, leading family
	counter  []*xbar.Crossbar // [M] counter family
	pcs      []*ProcessingCrossbar
	checking *xbar.Crossbar // 1×2n syndrome row
	xferCyc  int            // connection-unit / shifter transfer cycles

	// Scratch state for the hot operations (a CMEM serves one MEM and is
	// driven sequentially, so reuse is safe): routed/check-bit staging
	// vectors, the XOR3 parity accumulator, and the all-columns PC mask.
	routeScratch *bitmat.Vec
	accScratch   *bitmat.Vec
	allCols      *bitmat.Vec
}

// New builds an all-zero CMEM (correct for an all-zero MEM).
func New(cfg Config) *CMEM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	geom := ecc.Params{N: cfg.N, M: cfg.M}
	s := geom.BlocksPerSide()
	c := &CMEM{
		cfg:      cfg,
		geom:     geom,
		sh:       shifter.New(cfg.N, cfg.M),
		lead:     make([]*xbar.Crossbar, cfg.M),
		counter:  make([]*xbar.Crossbar, cfg.M),
		pcs:      make([]*ProcessingCrossbar, cfg.K),
		checking: xbar.New(1, 2*cfg.N),

		routeScratch: bitmat.NewVec(cfg.N),
		accScratch:   bitmat.NewVec(cfg.N),
		allCols:      bitmat.NewVec(cfg.N),
	}
	c.allCols.Fill(true)
	for d := 0; d < cfg.M; d++ {
		c.lead[d] = xbar.New(s, s)
		c.counter[d] = xbar.New(s, s)
	}
	for i := range c.pcs {
		c.pcs[i] = newPC(cfg.N)
	}
	return c
}

// Config returns the CMEM configuration.
func (c *CMEM) Config() Config { return c.cfg }

// Geometry returns the ECC geometry the CMEM protects.
func (c *CMEM) Geometry() ecc.Params { return c.geom }

// LoadFrom initializes the check-bit crossbars for an existing MEM image —
// the write path of a freshly programmed protected memory.
func (c *CMEM) LoadFrom(mem *bitmat.Mat) { c.LoadImage(ecc.Build(c.geom, mem)) }

// LoadImage sets the check-bit crossbars to a logical check-bit state (the
// dual of Image); the geometries must match.
func (c *CMEM) LoadImage(cb *ecc.CheckBits) {
	if cb.Params() != c.geom {
		panic(fmt.Sprintf("cmem: check bits for %+v, CMEM protects %+v", cb.Params(), c.geom))
	}
	s := c.geom.BlocksPerSide()
	for d := 0; d < c.cfg.M; d++ {
		for br := 0; br < s; br++ {
			for bc := 0; bc < s; bc++ {
				c.lead[d].Set(br, bc, cb.Lead(d, br, bc))
				c.counter[d].Set(br, bc, cb.Counter(d, br, bc))
			}
		}
	}
}

// Image exports the logical check-bit state, for comparison against the
// mathematical code in internal/ecc.
func (c *CMEM) Image() *ecc.CheckBits {
	cb := ecc.NewCheckBits(c.geom)
	s := c.geom.BlocksPerSide()
	for d := 0; d < c.cfg.M; d++ {
		for br := 0; br < s; br++ {
			for bc := 0; bc < s; bc++ {
				cb.SetLead(d, br, bc, c.lead[d].Get(br, bc))
				cb.SetCounter(d, br, bc, c.counter[d].Get(br, bc))
			}
		}
	}
	return cb
}

// FlipCheckBit injects a soft error into a stored check bit.
func (c *CMEM) FlipCheckBit(f shifter.Family, d, br, bc int) {
	if f == shifter.Leading {
		c.lead[d].Flip(br, bc)
	} else {
		c.counter[d].Flip(br, bc)
	}
}

// Stats aggregates cycle counts across CMEM components.
type Stats struct {
	CheckXbarCycles int // cycles spent by check-bit crossbars (read/write)
	PCCycles        int // total processing-crossbar cycles (summed over PCs)
	CheckingCycles  int // checking-crossbar cycles
	TransferCycles  int // shifter/connection-unit transfer cycles
}

// Stats returns the accumulated cycle counts.
func (c *CMEM) Stats() Stats {
	var st Stats
	for d := 0; d < c.cfg.M; d++ {
		st.CheckXbarCycles += c.lead[d].Stats().Cycles + c.counter[d].Stats().Cycles
	}
	for _, pc := range c.pcs {
		st.PCCycles += pc.lead.Stats().Cycles + pc.counter.Stats().Cycles
	}
	st.CheckingCycles = c.checking.Stats().Cycles
	st.TransferCycles = c.xferCyc
	return st
}

// --- check-bit crossbar vector access (through the connection unit) -------

// checkVecInto reads, for a row-parallel op on block-column bc, the n check
// bits {family, d, br, bc} for all d and br into dst, packed d-major (index
// d·(n/m)+br) — the order the shifters produce. Costs one read cycle per
// check-bit crossbar (they are read in parallel; the clock advance is
// modeled on each crossbar independently).
func (c *CMEM) checkVecInto(dst *bitmat.Vec, f shifter.Family, o shifter.Orientation, blockIdx int) {
	xs := c.family(f)
	g := c.geom.BlocksPerSide()
	for d := 0; d < c.cfg.M; d++ {
		if o == shifter.RowParallel {
			// Column blockIdx, rows = block-rows: a strided gather.
			for i := 0; i < g; i++ {
				dst.Set(d*g+i, xs[d].Get(i, blockIdx))
			}
		} else {
			// Row blockIdx, cols = block-cols: one word-level range copy.
			dst.CopyRange(d*g, xs[d].Mat().Row(blockIdx), 0, g)
		}
		xs[d].Tick() // one access cycle per crossbar
	}
}

// writeCheckVec writes the packed d-major vector back (dual of checkVec).
func (c *CMEM) writeCheckVec(f shifter.Family, o shifter.Orientation, blockIdx int, v *bitmat.Vec) {
	xs := c.family(f)
	g := c.geom.BlocksPerSide()
	for d := 0; d < c.cfg.M; d++ {
		for i := 0; i < g; i++ {
			bit := v.Get(d*g + i)
			if o == shifter.RowParallel {
				xs[d].Set(i, blockIdx, bit)
			} else {
				xs[d].Set(blockIdx, i, bit)
			}
		}
		xs[d].Tick()
	}
}

func (c *CMEM) family(f shifter.Family) []*xbar.Crossbar {
	if f == shifter.Leading {
		return c.lead
	}
	return c.counter
}

// routePacked runs a MEM-order vector through the shifter and packs the m
// diagonal vectors d-major into the CMEM's routing scratch vector (valid
// until the next routePacked call).
func (c *CMEM) routePacked(data *bitmat.Vec, shift int, f shifter.Family, o shifter.Orientation) *bitmat.Vec {
	c.sh.RoutePacked(c.routeScratch, data, shift, f, o)
	return c.routeScratch
}
