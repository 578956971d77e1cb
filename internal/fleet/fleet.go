// Package fleet executes workloads across a protected memory organized as
// a full mMPU (internal/mmpu): the paper evaluates its diagonal-ECC
// mechanism at the scale of a 1GB memory built from thousands of n×n
// crossbars (Fig 6), and this package is the offline engine that runs
// multi-bank job plans against that organization.
//
// Every run builds one pmem.Memory from its Config, the same memory the
// serving engines run on: SIMD runs, scrubs, row loads and fault bursts
// are its ExecuteSIMD, ScrubCrossbar, AccessRow and InjectModel calls, and
// its per-bank series record them when a registry is attached.
//
// Execution is sharded per bank: banks are partitioned across workers
// (mmpu.ShardBanks), one goroutine per shard, each walking its own slice
// of the plan in plan order, so a crossbar is only ever touched by the
// shard owning its bank. Each shard tallies a local Result and the engine
// merges them.
//
// Determinism is a hard guarantee: a Workload's plan is a pure function of
// (organization, seed), a crossbar's random streams are seeded with
// faults.DeriveSeed on their first use, jobs for one crossbar execute in
// plan order, and Result.Merge is commutative — so the same run produces
// an identical Result under any worker count.
package fleet

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/bitmat"
	"repro/internal/campaign"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/pmem"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// Config sizes a fleet run.
type Config struct {
	pmem.Config // the memory every job runs on

	Workers int   // shard count; <=0 uses GOMAXPROCS, capped at Banks
	Seed    int64 // campaign base seed

	// KernelWidth selects the SIMD kernel: a ripple-carry adder of this
	// width, SIMPLER-mapped into one crossbar row. <=0 uses 8 bits (fits
	// the 45-cell minimum geometry).
	KernelWidth int

	// Telemetry, when non-nil, is attached to the run's memory (its
	// per-bank pmem_* series and per-scheme ECC probes), and receives
	// the per-bank job counters and campaign outcome counters of each
	// run's Result. Because all updates commute, the resulting snapshot —
	// like the Result — is identical for every worker count.
	Telemetry *telemetry.Registry
}

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

// xbarState is one crossbar's per-run state: whether a job reached it,
// its load-pattern and fault-burst streams, and its campaign runner, each
// created on first use. Only the shard owning the crossbar's bank
// touches it.
type xbarState struct {
	touched     bool
	load, burst *rand.Rand
	camp        *campaign.Runner
}

// stream returns *r, seeding it on first use.
func stream(r **rand.Rand, seed int64) *rand.Rand {
	if *r == nil {
		*r = rand.New(rand.NewSource(seed))
	}
	return *r
}

// Run executes the workload across the fleet and returns the merged
// result. With the same configuration, workload, and seed the Result is
// identical for every worker count.
func Run(cfg Config, w Workload) (Result, error) {
	mem, err := pmem.New(cfg.Config)
	if err != nil {
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
	mem.Instrument(cfg.Telemetry)

	// Each shard walks the plan's jobs for the banks it owns, in plan
	// order, which preserves per-crossbar ordering.
	shards := cfg.Org.ShardBanks(cfg.EffectiveWorkers())
	bankShard := make([]int, cfg.Org.Banks)
	for s, banks := range shards {
		for _, b := range banks {
			bankShard[b] = s
		}
	}
	plans := make([][]Job, len(shards))
	for _, j := range jobs {
		plans[bankShard[j.Bank]] = append(plans[bankShard[j.Bank]], j)
	}
	rows := bitmat.NewVec(cfg.Org.CrossbarN)
	rows.Fill(true)
	states := make([]xbarState, cfg.Org.Crossbars())
	results := make([]Result, len(shards))
	var wg sync.WaitGroup
	for s := range shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			results[s] = runShard(cfg, mem, kernel, rows, plans[s], states)
		}(s)
	}
	wg.Wait()

	total := Result{Scenario: w.Name(), PerBank: make([]BankTally, cfg.Org.Banks)}
	for _, r := range results {
		total = total.Merge(r)
	}
	for i := range states {
		if st := &states[i]; st.touched {
			total.CrossbarsTouched++
			total.Machine = total.Machine.Add(mem.Crossbar(i).Stats())
			if st.camp != nil {
				total.Machine = total.Machine.Add(st.camp.Stats())
				total.Campaign = total.Campaign.Add(st.camp.Tally())
			}
		}
	}
	if reg := cfg.Telemetry; reg != nil {
		for b, t := range total.PerBank {
			reg.Counter("fleet_jobs_total", "bank", strconv.Itoa(b)).Add(t.Jobs)
		}
		reg.Counter("campaign_rounds_total").Add(total.CampaignRounds)
		for o, n := range total.Campaign.Counts {
			reg.Counter("campaign_outcomes_total", "outcome", campaign.Outcome(o).String()).Add(n)
		}
	}
	return total, nil
}

// runShard executes one shard's jobs in order, each op on its crossbar
// of mem, and tallies a shard-local result.
func runShard(cfg Config, mem *pmem.Memory, kernel *synth.Mapping, rows *bitmat.Vec, jobs []Job, states []xbarState) Result {
	res := Result{PerBank: make([]BankTally, cfg.Org.Banks)}
	n := cfg.Org.CrossbarN
	for _, job := range jobs {
		st := &states[cfg.Org.CrossbarID(job.Bank, job.Crossbar)]
		st.touched = true
		bank := &res.PerBank[job.Bank]
		res.Jobs++
		bank.Jobs++
		for _, op := range job.Ops {
			res.Ops++
			bank.Ops++
			switch op.Kind {
			case OpSIMD:
				// Geometry and kernel were validated in Run.
				if err := mem.ExecuteSIMD(job.Bank, job.Crossbar, kernel, rows); err != nil {
					panic(err)
				}
				res.SIMDOps++
			case OpScrub:
				c, u := mem.ScrubCrossbar(job.Bank, job.Crossbar)
				res.Scrubs++
				res.Corrected += int64(c)
				res.Uncorrectable += int64(u)
				bank.Corrected += int64(c)
				bank.Uncorrectable += int64(u)
			case OpLoad:
				rng := stream(&st.load, faults.DeriveSeed(cfg.Seed^0x10ad, job.Bank, job.Crossbar))
				// A write-verify refusal is counted in the crossbar's
				// repair statistics; the load itself has no caller to
				// report it to.
				_ = mem.AccessRow(job.Bank, job.Crossbar, ((op.Row%n)+n)%n, func(v *bitmat.Vec) bool {
					for i := 0; i < n; i++ {
						v.Set(i, rng.Intn(2) == 0)
					}
					return true
				})
				res.Loads++
			case OpFaultBurst:
				rng := stream(&st.burst, faults.DeriveSeed(cfg.Seed, job.Bank, job.Crossbar))
				cells := int64(mem.InjectModel(job.Bank, job.Crossbar, faults.Transient{SER: op.SER}, rng, op.Hours))
				res.FaultBursts++
				res.Injected += cells
				bank.Injected += cells
			case OpCampaign:
				if st.camp == nil {
					st.camp = newRunner(cfg, op, job.Bank, job.Crossbar)
				}
				rep := st.camp.Round()
				res.CampaignRounds++
				res.Injected += int64(rep.Injected)
				bank.Injected += int64(rep.Injected)
				res.Corrected += rep.Counts[campaign.Corrected]
				bank.Corrected += rep.Counts[campaign.Corrected]
				res.Uncorrectable += rep.Counts[campaign.DetectedUncorrectable]
				bank.Uncorrectable += rep.Counts[campaign.DetectedUncorrectable]
			}
		}
	}
	return res
}

// newRunner builds a crossbar's campaign runner from the op's model spec.
// Model names, rates and the machine configuration were validated in Run.
func newRunner(cfg Config, op Op, bank, xb int) *campaign.Runner {
	model, err := faults.ModelByName(op.Model, op.SER)
	if err != nil {
		panic(err)
	}
	r, err := campaign.New(campaign.Config{
		Machine: cfg.Machine(), Model: model, Hours: op.Hours, Verify: true,
	}, faults.DeriveSeed(cfg.Seed^0xca3b, bank, xb))
	if err != nil {
		panic(err)
	}
	return r
}
