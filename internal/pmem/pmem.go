// Package pmem assembles protected crossbars (internal/machine) into a
// byte-addressable memory following the mMPU organization
// (internal/mmpu): banks of n×n crossbars, each with its own check bits. It is
// the level at which the paper's Fig 6 experiment is *performed* rather
// than modeled: data lives across many crossbars, soft errors arrive per
// the SER, periodic scrubs run, and the memory either survives (all
// errors corrected) or reports uncorrectable damage.
//
// # Concurrency
//
// Memory is safe for concurrent use through its exported access methods:
// every bank is guarded by its own mutex, so accesses to different banks
// proceed in parallel (the serving layer's lanes own disjoint banks and
// never contend) while accesses to the same bank serialize. Range
// operations spanning several banks lock one bank at a time, segment by
// segment in ascending address order — each segment is applied
// atomically, the range as a whole is not. Crossbar hands out the raw machine with no
// synchronization; it is for single-threaded setup and inspection only.
package pmem

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/bitmat"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mmpu"
	"repro/internal/repair"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// ErrRange flags an address or span outside the memory's data capacity.
var ErrRange = errors.New("address out of range")

// ErrSpan flags a malformed span: negative width, a word wider than 64
// bits, or a source buffer too short for the requested bits.
var ErrSpan = errors.New("malformed span")

// Config sizes a protected memory.
type Config struct {
	Org        mmpu.Organization
	M          int // ECC block side
	K          int // processing crossbars per crossbar array
	ECCEnabled bool

	// Scheme selects the protection code for every crossbar
	// (ecc.SchemeByName; empty = the paper's diagonal code).
	Scheme string

	// Repair configures each crossbar's self-healing layer (write-verify,
	// spare remapping, scrub-triggered retirement — internal/repair). With
	// it enabled every crossbar gets its own defect set, so stuck-at
	// faults injected through InjectModel re-assert on writes and can be
	// retired online. The zero value is off.
	Repair repair.Config
}

// Memory is a bank-organized set of protected crossbars.
type Memory struct {
	cfg   Config
	xbs   []*machine.Machine // flattened [bank*PerBank + crossbar]
	banks []sync.Mutex       // one lock per bank, guarding its crossbars

	// tel holds per-bank probes (nil slice = telemetry off); ring is the
	// shared event trace. Attached by Instrument.
	tel  []bankProbes
	ring *telemetry.Ring
}

// bankProbes is one bank's counter set. All handles no-op when nil, so
// the access paths update them unconditionally.
type bankProbes struct {
	reads         *telemetry.Counter // row-segment reads served
	writes        *telemetry.Counter // row-segment writes committed
	rmw           *telemetry.Counter // coalesced AccessRow read-modify-writes
	scrubs        *telemetry.Counter // crossbar scrubs run
	corrected     *telemetry.Counter // scrub corrections applied
	uncorrectable *telemetry.Counter // scrub uncorrectable blocks
	injected      *telemetry.Counter // fault-overlay bit flips
	computes      *telemetry.Counter // SIMD pipelines executed
}

// Instrument attaches a telemetry registry: per-bank access/RMW/scrub
// counter series (labeled bank="i"), scrub and injection events on the
// registry's ring, and the per-scheme machine probes (ecc_*_total) on
// every crossbar. Call before serving traffic — attaching is not
// synchronized with concurrent access. A nil registry detaches.
func (m *Memory) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		m.tel, m.ring = nil, nil
		for _, xb := range m.xbs {
			xb.Instrument(machine.Telemetry{})
		}
		return
	}
	m.tel = make([]bankProbes, m.cfg.Org.Banks)
	m.ring = reg.Events()
	for b := range m.tel {
		id := fmt.Sprint(b)
		m.tel[b] = bankProbes{
			reads:         reg.Counter("pmem_reads_total", "bank", id),
			writes:        reg.Counter("pmem_writes_total", "bank", id),
			rmw:           reg.Counter("pmem_rmw_total", "bank", id),
			scrubs:        reg.Counter("pmem_scrubs_total", "bank", id),
			corrected:     reg.Counter("pmem_scrub_corrected_total", "bank", id),
			uncorrectable: reg.Counter("pmem_scrub_uncorrectable_total", "bank", id),
			injected:      reg.Counter("pmem_injected_total", "bank", id),
			computes:      reg.Counter("pmem_compute_total", "bank", id),
		}
	}
	scheme := "none"
	if m.cfg.ECCEnabled {
		scheme = (machine.Config{Scheme: m.cfg.Scheme}).SchemeName()
	}
	m.cfg.Org.ForEachCrossbar(func(bank, xb int) {
		t := machine.TelemetryFor(reg, scheme)
		t.Bank, t.Xbar = bank, xb
		m.at(bank, xb).Instrument(t)
	})
}

// probe returns the bank's probe set (the zero value when detached).
func (m *Memory) probe(bank int) bankProbes {
	if m.tel == nil {
		return bankProbes{}
	}
	return m.tel[bank]
}

// New builds the memory. All crossbars start zeroed with consistent ECC.
func New(cfg Config) (*Memory, error) {
	if err := cfg.Org.Validate(); err != nil {
		return nil, err
	}
	if cfg.ECCEnabled && cfg.Org.CrossbarN%cfg.M != 0 {
		return nil, fmt.Errorf("pmem: block side %d does not divide crossbar side %d", cfg.M, cfg.Org.CrossbarN)
	}
	m := &Memory{
		cfg:   cfg,
		xbs:   make([]*machine.Machine, cfg.Org.Crossbars()),
		banks: make([]sync.Mutex, cfg.Org.Banks),
	}
	for i := range m.xbs {
		xb, err := machine.New(machine.Config{
			N: cfg.Org.CrossbarN, M: cfg.M, K: cfg.K, ECCEnabled: cfg.ECCEnabled,
			Scheme: cfg.Scheme, Repair: cfg.Repair,
		})
		if err != nil {
			return nil, err
		}
		// Each crossbar owns a defect set: stuck-at faults injected by
		// the model-based overlay land here and re-assert on every write
		// (an empty set costs nothing). With repair enabled, write-verify
		// observes them and retirement evicts them.
		xb.AttachDefects(faults.NewStuckSet())
		m.xbs[i] = xb
	}
	return m, nil
}

// RepairStats aggregates the repair-layer activity of every crossbar
// (zero with the repair policy off).
func (m *Memory) RepairStats() repair.Stats {
	var s repair.Stats
	for b := 0; b < m.cfg.Org.Banks; b++ {
		m.banks[b].Lock()
		for x := 0; x < m.cfg.Org.PerBank; x++ {
			s = s.Add(m.at(b, x).RepairStats())
		}
		m.banks[b].Unlock()
	}
	return s
}

// Config returns the memory configuration.
func (m *Memory) Config() Config { return m.cfg }

// Crossbar returns the machine holding the given flat crossbar index.
// The machine is returned without synchronization — callers own the
// coordination (single-threaded setup, or an externally quiesced memory).
func (m *Memory) Crossbar(i int) *machine.Machine { return m.xbs[i] }

// at returns the machine at (bank, crossbar-in-bank).
func (m *Memory) at(bank, xb int) *machine.Machine {
	return m.xbs[m.cfg.Org.CrossbarID(bank, xb)]
}

// checkSpan validates the bit range [bit, bit+nbits) against the memory.
func (m *Memory) checkSpan(bit, nbits int64) error {
	if nbits < 0 {
		return fmt.Errorf("pmem: span of %d bits at %d: %w", nbits, bit, ErrSpan)
	}
	// bit > DataBits()-nbits is the overflow-safe form of bit+nbits >
	// DataBits(): near-MaxInt64 starts must not wrap negative and pass.
	if bit < 0 || nbits > m.cfg.Org.DataBits() || bit > m.cfg.Org.DataBits()-nbits {
		return fmt.Errorf("pmem: range %d+%d outside [0,%d): %w",
			bit, nbits, m.cfg.Org.DataBits(), ErrRange)
	}
	return nil
}

// locate maps a flat bit address to (crossbar, bank, row, col).
func (m *Memory) locate(bit int64) (xb *machine.Machine, bank, row, col int, err error) {
	if err := m.checkSpan(bit, 1); err != nil {
		return nil, 0, 0, 0, err
	}
	a, err := m.cfg.Org.Locate(bit)
	if err != nil {
		return nil, 0, 0, 0, fmt.Errorf("pmem: locate bit %d: %w", bit, err)
	}
	return m.at(a.Bank, a.Crossbar), a.Bank, a.Row, a.Col, nil
}

// AccessRow locks the owning bank and passes a copy of the addressed
// crossbar row to fn; if fn reports the row dirty, the row is committed
// through the protected write path — one ECC delta update for the whole
// coalesced mutation. It is the primitive the serving layer batches
// same-row requests into. The row passed to fn is valid only during the
// call. With a repair policy active the committed row is write-verified;
// a persistent mismatch surfaces as a machine.VerifyError (errors.Is-able
// against machine.ErrVerify) after the write has been escalated per
// policy.
func (m *Memory) AccessRow(bank, xb, row int, fn func(v *bitmat.Vec) (dirty bool)) error {
	if bank < 0 || bank >= m.cfg.Org.Banks || xb < 0 || xb >= m.cfg.Org.PerBank ||
		row < 0 || row >= m.cfg.Org.CrossbarN {
		return fmt.Errorf("pmem: row (bank %d, crossbar %d, row %d) outside organization: %w",
			bank, xb, row, ErrRange)
	}
	m.banks[bank].Lock()
	defer m.banks[bank].Unlock()
	_, err := m.at(bank, xb).UpdateRow(row, fn)
	m.probe(bank).rmw.Inc()
	return err
}

// ExecuteSIMD runs a SIMPLER mapping on one crossbar with MAGIC row
// parallelism, under the owning bank's lock — the online compute
// primitive the serving layer routes OpCompute requests to. The
// crossbar's cells [0, mapping.RowSize) in every selected row become the
// pipeline's working region (inputs are whatever the rows currently
// hold; intermediate cells are scratch); with ECC enabled the machine
// checks input block-columns first, keeps check bits current through the
// critical-update protocol, and reconciles the working region afterward,
// so a subsequent scrub finds the crossbar clean.
func (m *Memory) ExecuteSIMD(bank, xb int, mp *synth.Mapping, rows *bitmat.Vec) error {
	if bank < 0 || bank >= m.cfg.Org.Banks || xb < 0 || xb >= m.cfg.Org.PerBank {
		return fmt.Errorf("pmem: compute target (bank %d, crossbar %d) outside organization: %w",
			bank, xb, ErrRange)
	}
	m.banks[bank].Lock()
	defer m.banks[bank].Unlock()
	mach := m.at(bank, xb)
	if err := mach.ExecuteSIMD(mp, rows); err != nil {
		return err
	}
	m.probe(bank).computes.Inc()
	m.ring.Emit(telemetry.EvCompute, int64(mach.MEM().Stats().Cycles),
		bank, xb, int64(mp.Latency()), int64(mp.CriticalOps()))
	return nil
}

// WriteBit stores one bit, keeping the owning crossbar's check bits
// current (the write path computes ECC, as in conventional memories).
func (m *Memory) WriteBit(bit int64, v bool) error {
	xb, bank, row, col, err := m.locate(bit)
	if err != nil {
		return err
	}
	m.banks[bank].Lock()
	defer m.banks[bank].Unlock()
	_, err = xb.UpdateRow(row, func(r *bitmat.Vec) bool {
		r.Set(col, v)
		return true
	})
	m.probe(bank).writes.Inc()
	return err
}

// ReadBit returns one stored bit (no correction on the read path; the
// scrub and pre-compute checks handle errors, per the paper's model).
func (m *Memory) ReadBit(bit int64) (bool, error) {
	xb, bank, row, col, err := m.locate(bit)
	if err != nil {
		return false, err
	}
	m.banks[bank].Lock()
	defer m.banks[bank].Unlock()
	m.probe(bank).reads.Inc()
	return xb.MEM().Get(row, col), nil
}

// checkWord validates a word access of the given width.
func (m *Memory) checkWord(bit int64, width int) error {
	if width < 0 || width > 64 {
		return fmt.Errorf("pmem: word width %d not in [0,64]: %w", width, ErrSpan)
	}
	return m.checkSpan(bit, int64(width))
}

// WriteWord stores up to 64 bits (LSB first) starting at a bit address.
func (m *Memory) WriteWord(bit int64, w uint64, width int) error {
	if err := m.checkWord(bit, width); err != nil {
		return err
	}
	return m.writeSegments(bit, int64(width), []uint64{w})
}

// ReadWord reads up to 64 bits (LSB first) starting at a bit address.
func (m *Memory) ReadWord(bit int64, width int) (uint64, error) {
	if err := m.checkWord(bit, width); err != nil {
		return 0, err
	}
	dst := []uint64{0}
	if err := m.readSegments(bit, int64(width), dst); err != nil {
		return 0, err
	}
	return dst[0], nil
}

// WriteRange stores nbits from src (LSB-first within each word) starting
// at a bit address. The range may span rows, crossbars, and banks; each
// crossbar-row segment commits as one protected write.
func (m *Memory) WriteRange(bit int64, src []uint64, nbits int64) error {
	if err := m.checkSpan(bit, nbits); err != nil {
		return err
	}
	if int64(len(src))*64 < nbits {
		return fmt.Errorf("pmem: %d source words hold fewer than %d bits: %w", len(src), nbits, ErrSpan)
	}
	return m.writeSegments(bit, nbits, src)
}

// ReadRange reads nbits starting at a bit address into a fresh LSB-first
// word slice.
func (m *Memory) ReadRange(bit int64, nbits int64) ([]uint64, error) {
	if err := m.checkSpan(bit, nbits); err != nil {
		return nil, err
	}
	dst := make([]uint64, (nbits+63)/64)
	if err := m.readSegments(bit, nbits, dst); err != nil {
		return nil, err
	}
	return dst, nil
}

// writeSegments applies a validated range write segment by segment, taking
// each owning bank's lock in ascending address order.
func (m *Memory) writeSegments(bit, nbits int64, src []uint64) error {
	return m.cfg.Org.ForEachSegment(bit, nbits, func(s mmpu.Segment) error {
		m.banks[s.Bank].Lock()
		defer m.banks[s.Bank].Unlock()
		_, err := m.at(s.Bank, s.Crossbar).UpdateRow(s.Row, func(r *bitmat.Vec) bool {
			for put := 0; put < s.Bits; {
				k := s.Bits - put
				if k > 64 {
					k = 64
				}
				j := s.Off + int64(put)
				w := src[j>>6] >> (uint(j) & 63)
				if spill := int(uint(j)&63) + k - 64; spill > 0 {
					w |= src[j>>6+1] << uint(k-spill)
				}
				r.SetUint64At(s.Col+put, k, w)
				put += k
			}
			return true
		})
		m.probe(s.Bank).writes.Inc()
		return err
	})
}

// readSegments fills dst from a validated range, segment by segment.
func (m *Memory) readSegments(bit, nbits int64, dst []uint64) error {
	return m.cfg.Org.ForEachSegment(bit, nbits, func(s mmpu.Segment) error {
		m.banks[s.Bank].Lock()
		defer m.banks[s.Bank].Unlock()
		row := m.at(s.Bank, s.Crossbar).MEM().Mat().Row(s.Row)
		for got := 0; got < s.Bits; {
			k := s.Bits - got
			if k > 64 {
				k = 64
			}
			w := row.Uint64At(s.Col+got, k)
			j := s.Off + int64(got)
			dst[j>>6] |= w << (uint(j) & 63)
			if spill := int(uint(j)&63) + k - 64; spill > 0 {
				dst[j>>6+1] |= w >> uint(k-spill)
			}
			got += k
		}
		m.probe(s.Bank).reads.Inc()
		return nil
	})
}

// LoadPattern fills the memory's first `bits` positions from a seeded
// generator (for campaign setup) and returns a verifier closure.
func (m *Memory) LoadPattern(bits int64, seed int64) (verify func() (bad int64), err error) {
	// A cheap deterministic pattern: bit i = mixed hash of (i, seed).
	val := func(i int64) bool {
		x := uint64(i)*2654435761 + uint64(seed)
		x ^= x >> 33
		return x&1 != 0
	}
	for i := int64(0); i < bits; i++ {
		if err := m.WriteBit(i, val(i)); err != nil {
			return nil, err
		}
	}
	return func() (bad int64) {
		for i := int64(0); i < bits; i++ {
			got, err := m.ReadBit(i)
			if err != nil || got != val(i) {
				bad++
			}
		}
		return bad
	}, nil
}

// ScrubCrossbar runs the periodic check over one crossbar, holding its
// bank's lock — the unit the serving layer's scrub scheduler admits
// between request batches.
func (m *Memory) ScrubCrossbar(bank, xb int) (corrected, uncorrectable int) {
	m.banks[bank].Lock()
	defer m.banks[bank].Unlock()
	return m.scrubOne(bank, xb)
}

// scrubOne scrubs one crossbar (bank lock held) and tallies the result.
func (m *Memory) scrubOne(bank, xb int) (corrected, uncorrectable int) {
	mach := m.at(bank, xb)
	corrected, uncorrectable = mach.Scrub()
	p := m.probe(bank)
	p.scrubs.Inc()
	p.corrected.Add(int64(corrected))
	p.uncorrectable.Add(int64(uncorrectable))
	m.ring.Emit(telemetry.EvScrub, int64(mach.MEM().Stats().Cycles),
		bank, xb, int64(corrected), int64(uncorrectable))
	return corrected, uncorrectable
}

// ScrubBank runs the periodic check over every crossbar of one bank.
func (m *Memory) ScrubBank(bank int) (corrected, uncorrectable int) {
	m.banks[bank].Lock()
	defer m.banks[bank].Unlock()
	for x := 0; x < m.cfg.Org.PerBank; x++ {
		c, u := m.scrubOne(bank, x)
		corrected += c
		uncorrectable += u
	}
	return corrected, uncorrectable
}

// ScrubAll runs the periodic full-memory check over every crossbar.
func (m *Memory) ScrubAll() (corrected, uncorrectable int) {
	for b := 0; b < m.cfg.Org.Banks; b++ {
		c, u := m.ScrubBank(b)
		corrected += c
		uncorrectable += u
	}
	return corrected, uncorrectable
}

// InjectModel exposes one crossbar to a fault model for `hours` under the
// bank lock, drawing from rng — the fault-overlay primitive of the serving
// layer. Transient models flip bits exactly as a faults.Injector with the
// same seed does; stuck-at models additionally land in the crossbar's
// defect set, so the cells re-assert on every write and the repair layer
// can observe and retire them. Returns the number of affected cells.
func (m *Memory) InjectModel(bank, xb int, model faults.Model, rng *rand.Rand, hours float64) int {
	m.banks[bank].Lock()
	defer m.banks[bank].Unlock()
	mach := m.at(bank, xb)
	cells := 0
	for _, f := range model.Apply(mach.MEM(), mach.Defects(), rng, hours) {
		f.Cells(func(r, c int) { cells++ })
	}
	if cells > 0 {
		m.probe(bank).injected.Add(int64(cells))
		m.ring.Emit(telemetry.EvInject, int64(mach.MEM().Stats().Cycles),
			bank, xb, int64(cells), 0)
	}
	return cells
}

// CampaignResult summarizes one error-injection window.
type CampaignResult struct {
	Injected      int
	Corrected     int
	Uncorrectable int
	DataIntact    bool
}

// RunWindow models one checking period: soft errors are injected across
// the whole memory at the given SER for `hours` of exposure, then the
// periodic scrub runs. verify (from LoadPattern) is used to confirm data
// integrity afterwards.
func (m *Memory) RunWindow(ser, hours float64, seed int64, verify func() int64) CampaignResult {
	rng := rand.New(rand.NewSource(seed))
	injected := 0
	m.cfg.Org.ForEachCrossbar(func(bank, xb int) {
		injected += m.InjectModel(bank, xb, faults.Transient{SER: ser}, rng, hours)
	})
	corrected, unc := m.ScrubAll()
	res := CampaignResult{
		Injected: injected, Corrected: corrected, Uncorrectable: unc,
	}
	if verify != nil {
		res.DataIntact = verify() == 0
	}
	return res
}
