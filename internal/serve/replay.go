package serve

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/ecc"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/pmem"
	"repro/internal/telemetry"
)

// The virtual-time cost model, in model ticks. The constants are a
// queueing abstraction calibrated to the shape of the paper's cycle
// accounting, not a cycle-accurate trace: a write costs more than a read
// (write drivers plus the Θ(1) diagonal ECC delta update), a request
// served from an already-open row costs a fraction of a fresh activation,
// and a scrub pays per checked block. What matters for the experiments is
// the *structure* — relative costs, queueing, worker contention, and
// scrub interference — which is what the E9 latency distributions and
// throughput curves exercise.
const (
	costRead      = 2 // row activation + sense
	costWrite     = 6 // write drivers + diagonal ECC delta update
	costCoalRead  = 1 // read served from the open row
	costCoalWrite = 2 // write merged into the open row's single commit
	costScrubBlk  = 8 // per ECC block checked during a scrub
	costVerify    = 1 // committed-line read-back per written segment (repair ≥ verify)
)

// reqCost charges one served request. verify adds the write-verify
// read-back tax: one tick per committed row segment (a coalesced write
// shares its row's single commit and single read-back). wSur is the
// scheme's per-segment write surcharge (writeSurcharge): coalesced writes
// share their row's single check-bit update, so only full commits pay it.
func reqCost(info execInfo, verify bool, wSur int64) int64 {
	if info.coalesced {
		if info.write {
			return costCoalWrite
		}
		return costCoalRead
	}
	base := int64(costRead)
	if info.write {
		base = costWrite + wSur
		if verify {
			base += costVerify
		}
	}
	segs := int64(info.segments)
	if segs < 1 {
		segs = 1
	}
	return base * segs
}

// writeSurcharge prices the protection scheme's line-update discipline
// relative to the Θ(1) diagonal delta already folded into costWrite: a
// scheme that must re-read the whole M-bit word to re-encode its check
// bits (LineUpdateReads = M per written line, e.g. hamming or dec) pays
// the reads beyond the delta pair at the open-row rate. Exactly zero for
// the diagonal family and parity (2-read delta), so default replays stay
// byte-identical to the historical cost model.
func writeSurcharge(cfg pmem.Config) int64 {
	if !cfg.ECCEnabled || cfg.M <= 0 {
		return 0
	}
	spec, err := ecc.SchemeByName((machine.Config{Scheme: cfg.Scheme}).SchemeName())
	if err != nil {
		return 0
	}
	p := ecc.Params{N: cfg.Org.CrossbarN, M: cfg.M}
	if spec.Validate(p) != nil {
		return 0
	}
	extra := int64(spec.New(p, nil).LineUpdateReads(1)) - 2
	if extra <= 0 {
		return 0
	}
	return extra * costCoalRead
}

// scrubCost charges one crossbar scrub.
func scrubCost(cfg pmem.Config) int64 {
	if !cfg.ECCEnabled || cfg.M <= 0 {
		return 1
	}
	blocks := int64(cfg.Org.CrossbarN / cfg.M)
	return blocks * blocks * costScrubBlk
}

// ReplayConfig sizes a deterministic replay run.
type ReplayConfig struct {
	Mem *pmem.Memory // the served memory (required)

	// Workers is the modeled bank-worker count: banks are partitioned
	// across workers (mmpu.ShardBanks) and banks sharing a worker share
	// one service clock, so fewer workers means more queueing — the
	// serving-layer scaling knob of the E9 experiment. <=0 models one
	// worker per bank. Execution always parallelizes across the modeled
	// workers; the Result is a pure function of (memory, trace, config).
	Workers int
	// BatchSize caps the requests coalesced per virtual batch (<=0 → 32).
	BatchSize int
	// ScrubPeriod is the admission budget in ticks: each worker admits at
	// most one crossbar scrub per period, between batches, round-robin
	// over its crossbars. 0 disables.
	ScrubPeriod int64
	// FaultSER enables the fault-injection overlay: each admitted scrub
	// is preceded by a soft-error window over the scrubbed crossbar at
	// this rate [FIT/bit] for FaultHours (default 1) of exposure, from a
	// per-crossbar stream derived from Seed.
	FaultSER   float64
	FaultHours float64
	// ComputeAdmit is the live server's Config.ComputeAdmit budget, applied
	// by the same admission code; its modeled cost is in ticks, the
	// currency the clock advances by. 0 — the default — is pure FIFO,
	// byte-identical to pre-admission replays.
	ComputeAdmit int64
	// FaultModel selects the overlay's fault model (faults.ModelByName;
	// empty = faults.Transient at FaultSER). Stuck-at models land in each
	// crossbar's defect set, so the defects re-assert against live
	// traffic and the repair layer (the memory's pmem/machine Repair
	// config) can observe and retire them online.
	FaultModel string
	// Seed derives the per-crossbar fault streams.
	Seed int64

	// Telemetry, when non-nil, receives the replay's virtual-time series
	// (tick-based latency/wait/service histograms, the per-batch backlog
	// distribution) plus admission and coalescing events. The snapshot is
	// as deterministic as the Result: all workers share one probe set and
	// every update commutes, so totals are a pure function of (memory,
	// trace, config) — only the event ring's interleaving is
	// scheduling-dependent.
	Telemetry *telemetry.Registry
}

// modelWorkers resolves the modeled worker count: <=0 means one worker
// per bank (the fully-parallel controller).
func modelWorkers(w, banks int) int {
	if w <= 0 || w > banks {
		return banks
	}
	return w
}

// BankLoad is one bank's deterministic replay outcome.
type BankLoad struct {
	Requests int64 `json:"requests"`
	Scrubs   int64 `json:"scrubs"`
}

// Result aggregates a replay. Every field is a pure function of the
// (memory, trace, replay config) — never of host scheduling — so the
// same inputs reproduce the identical Result on any machine.
type Result struct {
	Stats   Stats
	Workers int   // modeled bank workers
	Ticks   int64 // makespan: the slowest worker's clock

	PerBank   []BankLoad // indexed by bank
	PerWorker []int64    // each modeled worker's final clock
}

// Replay executes a trace against the memory in deterministic virtual
// time. Each modeled worker serves the arrival-ordered merge of its
// banks' traces on one clock: the clock jumps to the next arrival when
// idle, a batch is every eligible request up to BatchSize (coalesced by
// the executor), each request's completion advances the clock by its
// cost, and its latency is completion minus arrival — queueing delay,
// worker contention, and scrub interference included. Admission, the
// scrub rotation and the accounting are the live server's (core); only the
// scrub trigger is the replay's own: after a round, one crossbar scrub
// once ScrubPeriod ticks have passed since the previous scrub ended,
// optionally preceded by the fault overlay.
//
// Workers are simulated concurrently (they own disjoint banks, and
// traces are bank-confined), so real parallelism changes only how fast
// the simulation runs, never its Result.
func Replay(cfg ReplayConfig, tr *Trace) (Result, error) {
	if cfg.Mem == nil {
		return Result{}, fmt.Errorf("serve: nil memory")
	}
	org := cfg.Mem.Config().Org
	if len(tr.PerBank) != org.Banks {
		return Result{}, fmt.Errorf("serve: trace has %d banks, memory has %d", len(tr.PerBank), org.Banks)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	closed := tr.Mode == "closed"
	var model faults.Model = faults.Transient{SER: cfg.FaultSER}
	if cfg.FaultSER > 0 && cfg.FaultModel != "" {
		var err error
		if model, err = faults.ModelByName(cfg.FaultModel, cfg.FaultSER); err != nil {
			return Result{}, err
		}
	}
	workers := modelWorkers(cfg.Workers, org.Banks)
	res := Result{
		Workers:   workers,
		PerBank:   make([]BankLoad, org.Banks),
		PerWorker: make([]int64, workers),
	}
	stats := make([]Stats, workers)
	if len(tr.Tenants) > 0 {
		// Pre-size every worker's tenant tally so merges align by index
		// whichever workers a tenant's traffic lands on.
		for w := range stats {
			stats[w].Tenants = make([]TenantStats, len(tr.Tenants))
			for t, name := range tr.Tenants {
				stats[w].Tenants[t].Name = name
			}
		}
	}
	tel := replayProbes(cfg.Telemetry)
	tel.bindTenants(cfg.Telemetry, tr.Tenants)
	var wg sync.WaitGroup
	for w, banks := range org.ShardBanks(workers) {
		wg.Add(1)
		go func(w int, banks []int) {
			defer wg.Done()
			var scrubs []int64
			res.PerWorker[w], scrubs = replayWorker(cfg, model, banks, tr, closed, &stats[w], tel)
			for i, b := range banks { // workers own disjoint banks
				res.PerBank[b] = BankLoad{Requests: int64(len(tr.PerBank[b])), Scrubs: scrubs[i]}
			}
		}(w, banks)
	}
	wg.Wait()
	for w := range stats {
		res.Stats = res.Stats.Merge(stats[w])
		res.Ticks = max(res.Ticks, res.PerWorker[w])
	}
	return res, nil
}

// mergeStreams k-way-merges the banks' traces into one arrival-ordered
// stream (ties break by bank then position, so the merge is total and
// deterministic).
func mergeStreams(tr *Trace, banks []int) []TimedReq {
	if len(banks) == 1 {
		return tr.PerBank[banks[0]]
	}
	total := 0
	for _, b := range banks {
		total += len(tr.PerBank[b])
	}
	out := make([]TimedReq, 0, total)
	idx := make([]int, len(banks))
	for len(out) < total {
		best := -1
		for i, b := range banks {
			if idx[i] >= len(tr.PerBank[b]) {
				continue
			}
			if best < 0 || tr.PerBank[b][idx[i]].At < tr.PerBank[banks[best]][idx[best]].At {
				best = i
			}
		}
		out = append(out, tr.PerBank[banks[best]][idx[best]])
		idx[best]++
	}
	return out
}

// replayWorker simulates one modeled worker's service timeline over its
// banks, returning its final clock and per-owned-bank scrub counts.
func replayWorker(cfg ReplayConfig, model faults.Model, banks []int, tr *Trace, closed bool, st *Stats, tel probes) (clock int64, scrubs []int64) {
	reqs := mergeStreams(tr, banks)
	mc := cfg.Mem.Config()
	sCost, verify, wSur := scrubCost(mc), mc.Repair.Enabled(), writeSurcharge(mc)
	c := newCore[TimedReq](cfg.Mem, banks, cfg.BatchSize, cfg.ComputeAdmit, st, tel,
		func() int64 { return clock })
	if cfg.FaultSER > 0 {
		c.inject = faultOverlay(cfg, model)
	}
	var prevDone map[int]int64 // closed loop: client → completion of its previous round
	if closed {
		prevDone = make(map[int]int64)
	}
	nextScrub := cfg.ScrubPeriod
	for i := 0; i < len(reqs) || len(c.held) > 0; {
		// The clock jumps to the next arrival only when no computes are
		// held over — those are already past their arrival and must keep
		// draining at the current time.
		if !closed && len(c.held) == 0 && reqs[i].At > clock {
			clock = reqs[i].At // idle until the next arrival
		}
		// The eligible new-arrival window [i, j): the first request is
		// always eligible (closed trivially, open via the clock jump).
		j := i
		if i < len(reqs) {
			if closed {
				for j < len(reqs) && j-i < cfg.BatchSize && reqs[j].At == reqs[i].At {
					j++ // same client round
				}
			} else {
				for j < len(reqs) && j-i < cfg.BatchSize && reqs[j].At <= clock {
					j++ // arrived
				}
			}
		}
		round := c.admit(reqs[i:j])
		i = j
		c.serve(round, func(k int, resp Response, info execInfo) {
			tq := round[k]
			var charge int64
			if info.compute {
				charge = c.cost(tq.Req.Plan)
				st.ComputeTicks += charge
			} else {
				charge = reqCost(info, verify, wSur)
			}
			clock += charge
			arrived := tq.At
			if closed {
				arrived = prevDone[tq.Client]
				prevDone[tq.Client] = clock
			}
			lat := clock - arrived
			c.record(resp, info, lat, tq.Tenant)
			tel.service.Observe(charge)
			tel.wait.Observe(lat - charge)
		})
		if cfg.ScrubPeriod > 0 && clock >= nextScrub {
			clock += sCost // the scrub holds the worker; its admission is stamped at its end
			c.scrub()
			nextScrub = clock + cfg.ScrubPeriod
		}
	}
	return clock, c.scrubs
}

// faultOverlay returns the replay's pre-scrub fault injection: a draw of
// the fault model over FaultHours of exposure of the crossbar about to be
// scrubbed, from a per-crossbar stream derived from Seed.
func faultOverlay(cfg ReplayConfig, model faults.Model) func(bank, xb int) int {
	hours := cfg.FaultHours
	if hours <= 0 {
		hours = 1
	}
	rngs := make(map[[2]int]*rand.Rand)
	return func(bank, xb int) int {
		rng := rngs[[2]int{bank, xb}]
		if rng == nil {
			rng = rand.New(rand.NewSource(faults.DeriveSeed(cfg.Seed^0x5e7e, bank, xb)))
			rngs[[2]int{bank, xb}] = rng
		}
		return cfg.Mem.InjectModel(bank, xb, model, rng, hours)
	}
}
