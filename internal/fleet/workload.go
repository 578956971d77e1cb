package fleet

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/faults"
	"repro/internal/mmpu"
)

// OpKind enumerates the primitive operations a fleet job can issue against
// one crossbar.
type OpKind int

const (
	// OpSIMD executes the run's SIMPLER-mapped kernel across all rows of
	// the crossbar (MAGIC row parallelism), with the ECC input-check and
	// critical-operation protocol when protection is on.
	OpSIMD OpKind = iota
	// OpScrub runs the periodic full-crossbar ECC check.
	OpScrub
	// OpLoad writes one pseudo-random row through the controller write
	// path (check bits maintained along the write).
	OpLoad
	// OpFaultBurst exposes the crossbar to soft errors at an elevated SER
	// for a window of time.
	OpFaultBurst
	// OpCampaign runs one fault-campaign conformance round
	// (internal/campaign): inject per a named fault model, scrub, and
	// adjudicate every fault against a golden reference machine.
	OpCampaign
)

// Op is one primitive operation.
type Op struct {
	Kind  OpKind
	Row   int     // OpLoad: target row (taken modulo the crossbar side)
	SER   float64 // OpFaultBurst/OpCampaign: injection rate [FIT/bit or FIT/line]
	Hours float64 // OpFaultBurst/OpCampaign: exposure window length
	Model string  // OpCampaign: fault model name (faults.ModelByName)
}

// Campaign ops carry the model spec on every op, but a crossbar's campaign
// runner (and its persistent defect state) is seeded once from the first
// such op — Run rejects plans that change a crossbar's (Model, SER, Hours)
// spec mid-run rather than silently ignoring the change.

// Job is a batch of ops bound for one crossbar. Jobs addressed to the same
// crossbar execute in plan order; jobs addressed to different crossbars may
// run concurrently.
type Job struct {
	Bank, Crossbar int
	Ops            []Op
}

// Workload produces the deterministic job stream of a scenario. Plan must
// be a pure function of the organization and seed — the engine replays the
// same plan across any worker count and demands identical Results.
type Workload interface {
	Name() string
	Plan(org mmpu.Organization, seed int64) []Job
}

// --- built-in scenarios ------------------------------------------------------

// Uniform streams the same number of SIMD executions to every crossbar —
// the evenly-loaded memory every scaling estimate assumes.
type Uniform struct {
	OpsPerCrossbar int // default 1
}

// Name implements Workload.
func (u Uniform) Name() string { return "uniform" }

// Plan implements Workload.
func (u Uniform) Plan(org mmpu.Organization, seed int64) []Job {
	per := u.OpsPerCrossbar
	if per <= 0 {
		per = 1
	}
	jobs := make([]Job, 0, org.Crossbars())
	org.ForEachCrossbar(func(bank, xb int) {
		ops := make([]Op, per)
		for i := range ops {
			ops[i] = Op{Kind: OpSIMD}
		}
		jobs = append(jobs, Job{Bank: bank, Crossbar: xb, Ops: ops})
	})
	return jobs
}

// HotBank draws each job's bank from a Zipfian distribution of exponent
// hotBankSkew, concentrating traffic on a few hot banks — the skewed
// access pattern under which reliability-mechanism overheads stop hiding
// behind idle banks. Each job is one SIMD op.
type HotBank struct {
	Jobs int // total jobs (default: 4 per crossbar)
}

// hotBankSkew is HotBank's Zipf exponent s > 1.
const hotBankSkew = 1.5

// Name implements Workload.
func (h HotBank) Name() string { return "hotbank" }

// Plan implements Workload.
func (h HotBank) Plan(org mmpu.Organization, seed int64) []Job {
	total := h.Jobs
	if total <= 0 {
		total = 4 * org.Crossbars()
	}
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if org.Banks > 1 {
		zipf = rand.NewZipf(rng, hotBankSkew, 1, uint64(org.Banks-1))
	}
	jobs := make([]Job, 0, total)
	for j := 0; j < total; j++ {
		bank := 0
		if zipf != nil {
			bank = int(zipf.Uint64())
		}
		xb := rng.Intn(org.PerBank)
		jobs = append(jobs, Job{Bank: bank, Crossbar: xb, Ops: []Op{{Kind: OpSIMD}}})
	}
	return jobs
}

// MixedScrub interleaves compute with the periodic scrub on every crossbar:
// each round loads a fresh row, executes SIMD work, then runs the check —
// the steady-state duty cycle of a protected memory.
type MixedScrub struct {
	Rounds       int // rounds per crossbar (default 1)
	SIMDPerRound int // SIMD ops per round (default 2)
}

// Name implements Workload.
func (ms MixedScrub) Name() string { return "mixedscrub" }

// Plan implements Workload.
func (ms MixedScrub) Plan(org mmpu.Organization, seed int64) []Job {
	rounds := ms.Rounds
	if rounds <= 0 {
		rounds = 1
	}
	per := ms.SIMDPerRound
	if per <= 0 {
		per = 2
	}
	jobs := make([]Job, 0, org.Crossbars()*rounds)
	org.ForEachCrossbar(func(bank, xb int) {
		for r := 0; r < rounds; r++ {
			ops := make([]Op, 0, per+2)
			ops = append(ops, Op{Kind: OpLoad, Row: r})
			for i := 0; i < per; i++ {
				ops = append(ops, Op{Kind: OpSIMD})
			}
			ops = append(ops, Op{Kind: OpScrub})
			jobs = append(jobs, Job{Bank: bank, Crossbar: xb, Ops: ops})
		}
	})
	return jobs
}

// FaultStorm exposes every crossbar to bursts of a strongly elevated SER,
// each followed by a scrub — the stress regime that drives the correction
// and uncorrectable counters the Fig 6 reliability model reasons about.
// Injection randomness is drawn per crossbar from seeds derived with
// faults.DeriveSeed, so the storm replays exactly under any worker count.
type FaultStorm struct {
	Bursts int     // bursts per crossbar (default 1)
	SER    float64 // burst rate [FIT/bit] (default 1e6 — an accelerated test)
	Hours  float64 // exposure per burst (default 1h)
}

// Name implements Workload.
func (fs FaultStorm) Name() string { return "faultstorm" }

// Plan implements Workload.
func (fs FaultStorm) Plan(org mmpu.Organization, seed int64) []Job {
	bursts := fs.Bursts
	if bursts <= 0 {
		bursts = 1
	}
	ser := fs.SER
	if ser <= 0 {
		ser = 1e6
	}
	hours := fs.Hours
	if hours <= 0 {
		hours = 1
	}
	jobs := make([]Job, 0, org.Crossbars())
	org.ForEachCrossbar(func(bank, xb int) {
		ops := make([]Op, 0, 2*bursts)
		for b := 0; b < bursts; b++ {
			ops = append(ops,
				Op{Kind: OpFaultBurst, SER: ser, Hours: hours},
				Op{Kind: OpScrub})
		}
		jobs = append(jobs, Job{Bank: bank, Crossbar: xb, Ops: ops})
	})
	return jobs
}

// Campaign is the fifth scenario family: the fault-campaign conformance
// engine run fleet-wide. Every crossbar executes Rounds independent
// inject→scrub→adjudicate trials (internal/campaign) under the named
// fault model, with per-crossbar randomness derived from faults.DeriveSeed
// so results merge identically under any worker count. Skew models
// process variation: each crossbar's exposure is scaled by a deterministic
// per-crossbar factor 2^u·Skew with u uniform on [−1,1], so some crossbars
// see up to 2^Skew times the nominal rate.
type Campaign struct {
	Rounds int     // campaign rounds per crossbar (default 2)
	Model  string  // fault model (faults.ModelByName; default "transient")
	SER    float64 // injection rate [FIT/bit, FIT/line for "lines"] (default 1e5)
	Hours  float64 // exposure per round (default 1)
	Skew   float64 // per-crossbar rate-skew exponent (0 = uniform fleet)
}

// Name implements Workload.
func (c Campaign) Name() string { return "campaign" }

// Plan implements Workload.
func (c Campaign) Plan(org mmpu.Organization, seed int64) []Job {
	rounds := c.Rounds
	if rounds <= 0 {
		rounds = 2
	}
	model := c.Model
	if model == "" {
		model = "transient"
	}
	ser := c.SER
	if ser <= 0 {
		ser = 1e5
	}
	hours := c.Hours
	if hours <= 0 {
		hours = 1
	}
	jobs := make([]Job, 0, org.Crossbars())
	org.ForEachCrossbar(func(bank, xb int) {
		h := hours
		if c.Skew > 0 {
			h *= skewFactor(seed, bank, xb, c.Skew)
		}
		ops := make([]Op, rounds)
		for i := range ops {
			ops[i] = Op{Kind: OpCampaign, Model: model, SER: ser, Hours: h}
		}
		jobs = append(jobs, Job{Bank: bank, Crossbar: xb, Ops: ops})
	})
	return jobs
}

// skewFactor derives this crossbar's exposure multiplier 2^(u·skew),
// u uniform on [−1,1] — a pure function of (seed, position), so plans stay
// reproducible.
func skewFactor(seed int64, bank, xb int, skew float64) float64 {
	u := float64(uint64(faults.DeriveSeed(seed^0x5e11, bank, xb))>>11) / (1 << 53) // [0,1)
	return math.Exp2((2*u - 1) * skew)
}

// ScenarioNames lists the built-in scenarios for CLI usage text.
func ScenarioNames() []string {
	return []string{"uniform", "hotbank", "mixedscrub", "faultstorm", "campaign"}
}

// ScenarioOptions tunes a named scenario beyond its intensity knob; zero
// values pick each scenario's defaults.
type ScenarioOptions struct {
	Intensity int     // uniform: ops/crossbar, hotbank: jobs, mixedscrub: rounds, faultstorm: bursts, campaign: rounds
	SER       float64 // faultstorm burst rate / campaign injection rate
	Hours     float64 // faultstorm/campaign exposure per burst/round
	Model     string  // campaign fault model
	Skew      float64 // campaign per-crossbar rate skew
}

// ScenarioWithOptions resolves a built-in scenario with full tuning — the
// CLI plumbing that makes fault runs reproducible from flags alone.
func ScenarioWithOptions(name string, o ScenarioOptions) (Workload, error) {
	switch name {
	case "uniform":
		return Uniform{OpsPerCrossbar: o.Intensity}, nil
	case "hotbank":
		return HotBank{Jobs: o.Intensity}, nil
	case "mixedscrub":
		return MixedScrub{Rounds: o.Intensity}, nil
	case "faultstorm":
		return FaultStorm{Bursts: o.Intensity, SER: o.SER, Hours: o.Hours}, nil
	case "campaign":
		return Campaign{Rounds: o.Intensity, Model: o.Model, SER: o.SER, Hours: o.Hours, Skew: o.Skew}, nil
	}
	return nil, fmt.Errorf("fleet: unknown scenario %q (have %v)", name, ScenarioNames())
}

// ScenarioByName returns a built-in scenario sized by an intensity knob:
// SIMD ops per crossbar for uniform, total jobs for hotbank, rounds per
// crossbar for mixedscrub (each round is one load, SIMDPerRound SIMD ops,
// and one scrub), bursts per crossbar for faultstorm, campaign rounds per
// crossbar for campaign. Zero picks each scenario's default.
func ScenarioByName(name string, intensity int) (Workload, error) {
	return ScenarioWithOptions(name, ScenarioOptions{Intensity: intensity})
}
