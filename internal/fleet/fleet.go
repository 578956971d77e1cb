// Package fleet executes workloads across a fleet of protected crossbar
// machines organized as a full mMPU (internal/mmpu): the paper evaluates
// its diagonal-ECC mechanism at the scale of a 1GB memory built from
// thousands of n×n crossbars (Fig 6), and this package is the engine that
// actually runs multi-bank traffic against that organization.
//
// Execution is sharded per bank: banks are partitioned across workers
// (mmpu.ShardBanks), one goroutine per shard, each owning every crossbar
// of its banks — so no machine is ever shared between goroutines and no
// locking is needed. Job batches flow to shards over channels; each shard
// tallies a local Result and the engine merges them.
//
// Determinism is a hard guarantee: a Workload's plan is a pure function of
// (organization, seed), per-crossbar randomness comes from seeds derived
// with faults.DeriveSeed, jobs for one crossbar execute in plan order, and
// Result.Merge is commutative — so the same run produces an identical
// Result under any worker count.
package fleet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/bitmat"
	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/mmpu"
	"repro/internal/netlist"
	"repro/internal/repair"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// Config sizes a fleet run.
type Config struct {
	Org        mmpu.Organization
	M          int  // ECC block side
	K          int  // processing crossbars per machine
	ECCEnabled bool // false = the paper's unprotected baseline

	// Scheme selects the protection code for every machine in the fleet
	// (ecc.SchemeByName; empty = the paper's diagonal code).
	Scheme string

	// Repair is the self-healing policy applied to every machine in the
	// fleet (write-verify, spare remap, retirement); the zero value is off.
	Repair repair.Config

	Workers int   // shard count; <=0 uses GOMAXPROCS, capped at Banks
	Seed    int64 // campaign base seed

	// KernelWidth selects the SIMD kernel: a ripple-carry adder of this
	// width, SIMPLER-mapped into one crossbar row. <=0 uses 8 bits (fits
	// the 45-cell minimum geometry).
	KernelWidth int

	// Telemetry, when non-nil, receives the fleet series (per-bank job
	// counters, scrub/correction/injection totals, campaign outcome
	// counters) and instruments every lazily created machine with its
	// per-scheme ECC probes. Because all updates commute, the resulting
	// snapshot — like the Result — is identical for every worker count.
	Telemetry *telemetry.Registry
}

// jobBatch is the number of jobs per channel send to a shard.
const jobBatch = 16

// EffectiveWorkers resolves the shard count actually used: Workers,
// defaulted to GOMAXPROCS and capped at the bank count (a bank is never
// split across shards).
func (c Config) EffectiveWorkers() int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > c.Org.Banks {
		w = c.Org.Banks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// machineConfig is the per-crossbar machine geometry.
func (c Config) machineConfig() machine.Config {
	return machine.Config{N: c.Org.CrossbarN, M: c.M, K: c.K, ECCEnabled: c.ECCEnabled, Scheme: c.Scheme, Repair: c.Repair}
}

// AdderKernel builds the fleet's SIMD kernel: a width-bit ripple-carry
// adder lowered to NOR and SIMPLER-mapped into a rowSize-cell row.
func AdderKernel(width, rowSize int) (*synth.Mapping, error) {
	b := netlist.NewBuilder(fmt.Sprintf("fleetadder%d", width))
	a := b.InputBus(width)
	x := b.InputBus(width)
	carry := b.Const(false)
	for i := 0; i < width; i++ {
		axb := b.Xor(a[i], x[i])
		b.Output(b.Xor(axb, carry))
		carry = b.Or(b.And(a[i], x[i]), b.And(axb, carry))
	}
	b.Output(carry)
	return synth.Map(b.Build().LowerToNOR(), rowSize)
}

// xbarState is a worker's lazily-created per-crossbar execution state.
// The machine and the campaign runner are each created on first use, so a
// campaign-only job stream does not pay for an idle protected machine and
// vice versa.
type xbarState struct {
	bank, xb int
	m        *machine.Machine
	inj      *faults.Injector  // fault-burst stream, seeded per crossbar
	rng      *rand.Rand        // load-pattern stream, seeded per crossbar
	camp     *campaign.Runner  // fault-campaign conformance state
	tel      machine.Telemetry // attached at machine creation (zero = off)
}

// machine returns the crossbar's machine, creating it on first use. mcfg
// was validated in Run, so MustNew cannot panic here.
func (st *xbarState) machine(mcfg machine.Config) *machine.Machine {
	if st.m == nil {
		st.m = machine.MustNew(mcfg)
		st.m.Instrument(st.tel)
	}
	return st.m
}

// runner returns the crossbar's campaign runner, creating it on first use
// from the op's model spec. Model names and rates were validated in Run.
func (st *xbarState) runner(cfg Config, mcfg machine.Config, op Op) *campaign.Runner {
	if st.camp == nil {
		model, err := faults.ModelByName(op.Model, op.SER)
		if err != nil {
			panic(err)
		}
		r, err := campaign.New(campaign.Config{
			Machine: mcfg, Model: model, Hours: op.Hours, Verify: true,
		}, faults.DeriveSeed(cfg.Seed^0xca3b, st.bank, st.xb))
		if err != nil {
			panic(err)
		}
		st.camp = r
	}
	return st.camp
}

// Run executes the workload across the fleet and returns the merged
// result. With the same configuration, workload, and seed the Result is
// identical for every worker count.
func Run(cfg Config, w Workload) (Result, error) {
	if err := cfg.Org.Validate(); err != nil {
		return Result{}, err
	}
	mcfg := cfg.machineConfig()
	if err := mcfg.Validate(); err != nil {
		return Result{}, err
	}
	width := cfg.KernelWidth
	if width <= 0 {
		width = 8
	}
	kernel, err := AdderKernel(width, cfg.Org.CrossbarN)
	if err != nil {
		return Result{}, fmt.Errorf("fleet: kernel does not fit crossbar: %w", err)
	}

	jobs := w.Plan(cfg.Org, cfg.Seed)
	// A crossbar's campaign runner is seeded once, from its first
	// OpCampaign; defect state (stuck cells) persists across its rounds,
	// so one crossbar cannot switch model or rate mid-campaign. Reject
	// heterogeneous specs up front instead of silently ignoring them.
	campaignSpec := make(map[int]Op)
	for i, j := range jobs {
		if j.Bank < 0 || j.Bank >= cfg.Org.Banks || j.Crossbar < 0 || j.Crossbar >= cfg.Org.PerBank {
			return Result{}, fmt.Errorf("fleet: job %d addresses (bank %d, crossbar %d) outside %dx%d organization",
				i, j.Bank, j.Crossbar, cfg.Org.Banks, cfg.Org.PerBank)
		}
		for _, op := range j.Ops {
			if op.Kind != OpCampaign {
				continue
			}
			if _, err := faults.ModelByName(op.Model, op.SER); err != nil {
				return Result{}, fmt.Errorf("fleet: job %d: %w", i, err)
			}
			id := cfg.Org.CrossbarID(j.Bank, j.Crossbar)
			spec := Op{Kind: OpCampaign, Model: op.Model, SER: op.SER, Hours: op.Hours}
			if first, seen := campaignSpec[id]; !seen {
				campaignSpec[id] = spec
			} else if first != spec {
				return Result{}, fmt.Errorf("fleet: job %d changes crossbar (%d,%d) campaign spec from %s/%g/%gh to %s/%g/%gh mid-run",
					i, j.Bank, j.Crossbar, first.Model, first.SER, first.Hours, op.Model, op.SER, op.Hours)
			}
		}
	}

	workers := cfg.EffectiveWorkers()

	// bankShard maps each bank to the one shard that owns it.
	bankShard := make([]int, cfg.Org.Banks)
	for s, banks := range cfg.Org.ShardBanks(workers) {
		for _, b := range banks {
			bankShard[b] = s
		}
	}

	chans := make([]chan []Job, workers)
	results := make([]Result, workers)
	tel := fleetProbesFor(cfg.Telemetry, cfg.Org.Banks)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		chans[s] = make(chan []Job, 4)
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s] = runShard(cfg, mcfg, kernel, chans[s], tel)
		}(s)
	}

	// Feed job batches to the owning shards in plan order, preserving
	// per-crossbar ordering (all of a bank's jobs go to one shard).
	pending := make([][]Job, workers)
	for _, j := range jobs {
		s := bankShard[j.Bank]
		pending[s] = append(pending[s], j)
		if len(pending[s]) >= jobBatch {
			chans[s] <- pending[s]
			pending[s] = nil
		}
	}
	for s := 0; s < workers; s++ {
		if len(pending[s]) > 0 {
			chans[s] <- pending[s]
		}
		close(chans[s])
	}
	wg.Wait()

	total := Result{Scenario: w.Name(), PerBank: make([]BankTally, cfg.Org.Banks)}
	for _, r := range results {
		total = total.Merge(r)
	}
	return total, nil
}

// runShard owns a subset of banks: it executes every job batch sent to it,
// creating machines lazily, and tallies a shard-local result.
func runShard(cfg Config, mcfg machine.Config, kernel *synth.Mapping, in <-chan []Job, tel fleetProbes) Result {
	res := Result{PerBank: make([]BankTally, cfg.Org.Banks)}
	states := make(map[int]*xbarState)
	for batch := range in {
		for _, job := range batch {
			id := cfg.Org.CrossbarID(job.Bank, job.Crossbar)
			st := states[id]
			if st == nil {
				st = &xbarState{
					bank: job.Bank, xb: job.Crossbar,
					inj: faults.NewInjector(0, faults.DeriveSeed(cfg.Seed, job.Bank, job.Crossbar)),
					rng: rand.New(rand.NewSource(faults.DeriveSeed(cfg.Seed^0x10ad, job.Bank, job.Crossbar))),
					tel: machineTelemetry(cfg.Telemetry, cfg, job.Bank, job.Crossbar),
				}
				states[id] = st
			}
			execJob(cfg, mcfg, kernel, st, job, &res, tel)
		}
	}
	res.CrossbarsTouched = len(states)
	for _, st := range states {
		if st.m != nil {
			res.Machine = res.Machine.Add(st.m.Stats())
		}
		if st.camp != nil {
			res.Machine = res.Machine.Add(st.camp.Stats())
			res.Campaign = res.Campaign.Add(st.camp.Tally())
		}
	}
	return res
}

// execJob runs one job's ops in order on its crossbar.
func execJob(cfg Config, mcfg machine.Config, kernel *synth.Mapping, st *xbarState, job Job, res *Result, tel fleetProbes) {
	bank := &res.PerBank[job.Bank]
	res.Jobs++
	bank.Jobs++
	if tel.enabled {
		tel.jobs[job.Bank].Inc()
	}
	for _, op := range job.Ops {
		res.Ops++
		bank.Ops++
		switch op.Kind {
		case OpSIMD:
			m := st.machine(mcfg)
			// Geometry is pre-validated; ExecuteSIMD cannot fail here.
			if err := m.ExecuteSIMD(kernel, m.MEM().AllRows()); err != nil {
				panic(err)
			}
			res.SIMDOps++
			tel.simdOps.Inc()
		case OpScrub:
			c, u := st.machine(mcfg).Scrub()
			res.Scrubs++
			res.Corrected += int64(c)
			res.Uncorrectable += int64(u)
			bank.Corrected += int64(c)
			bank.Uncorrectable += int64(u)
			tel.scrubs.Inc()
			tel.corrected.Add(int64(c))
			tel.uncorrectable.Add(int64(u))
		case OpLoad:
			n := cfg.Org.CrossbarN
			row := bitmat.NewVec(n)
			for i := 0; i < n; i++ {
				row.Set(i, st.rng.Intn(2) == 0)
			}
			st.machine(mcfg).LoadRow(((op.Row%n)+n)%n, row)
			res.Loads++
			tel.loads.Inc()
		case OpFaultBurst:
			st.inj.SER = op.SER
			m := st.machine(mcfg)
			flips := st.inj.Inject(m.MEM(), op.Hours)
			res.FaultBursts++
			res.Injected += int64(len(flips))
			bank.Injected += int64(len(flips))
			tel.injected.Add(int64(len(flips)))
		case OpCampaign:
			rep := st.runner(cfg, mcfg, op).Round()
			res.CampaignRounds++
			res.Injected += int64(rep.Injected)
			bank.Injected += int64(rep.Injected)
			res.Corrected += rep.Counts[campaign.Corrected]
			bank.Corrected += rep.Counts[campaign.Corrected]
			res.Uncorrectable += rep.Counts[campaign.DetectedUncorrectable]
			bank.Uncorrectable += rep.Counts[campaign.DetectedUncorrectable]
			tel.campaignRounds.Inc()
			tel.injected.Add(int64(rep.Injected))
			if tel.enabled {
				for o := 0; o < campaign.NumOutcomes; o++ {
					tel.outcomes[o].Add(rep.Counts[o])
				}
			}
		}
	}
}
