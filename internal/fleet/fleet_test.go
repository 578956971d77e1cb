package fleet

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/mmpu"
	"repro/internal/pmem"
	"repro/internal/repair"
)

// testOrg is a 6-bank, 12-crossbar fleet of the minimum 45×45 geometry.
func testOrg() mmpu.Organization { return mmpu.Custom(45, 6, 2) }

func testCfg(workers int) Config {
	return Config{
		Config:  pmem.Config{Org: testOrg(), M: 15, K: 2, ECCEnabled: true},
		Workers: workers, Seed: 42,
	}
}

// TestDeterministicAcrossWorkers is the core concurrency contract: the
// same organization, scenario, and seed must yield an identical Result for
// every worker count.
func TestDeterministicAcrossWorkers(t *testing.T) {
	scenarios := []Workload{
		Uniform{OpsPerCrossbar: 2},
		HotBank{Jobs: 24},
		MixedScrub{Rounds: 2, SIMDPerRound: 1},
		FaultStorm{Bursts: 2, SER: 1e6, Hours: 1},
	}
	for _, w := range scenarios {
		t.Run(w.Name(), func(t *testing.T) {
			ref, err := Run(testCfg(1), w)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 4, 6, 99} {
				got, err := Run(testCfg(workers), w)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("workers=%d diverged:\n  1: %+v\n  %d: %+v", workers, ref, workers, got)
				}
			}
		})
	}
}

func TestUniformCounts(t *testing.T) {
	org := testOrg()
	res, err := Run(testCfg(3), Uniform{OpsPerCrossbar: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "uniform" {
		t.Fatalf("scenario = %q", res.Scenario)
	}
	if want := int64(org.Crossbars()); res.Jobs != want {
		t.Fatalf("jobs = %d, want %d", res.Jobs, want)
	}
	if want := int64(3 * org.Crossbars()); res.SIMDOps != want || res.Ops != want {
		t.Fatalf("simd = %d ops = %d, want %d", res.SIMDOps, res.Ops, want)
	}
	if res.CrossbarsTouched != org.Crossbars() {
		t.Fatalf("crossbars touched = %d, want %d", res.CrossbarsTouched, org.Crossbars())
	}
	if res.Machine.MEMCycles == 0 || res.Machine.CriticalOps == 0 {
		t.Fatalf("no machine activity recorded: %+v", res.Machine)
	}
	for b, tally := range res.PerBank {
		if tally.Jobs != int64(org.PerBank) {
			t.Fatalf("bank %d jobs = %d, want %d", b, tally.Jobs, org.PerBank)
		}
	}
}

func TestHotBankSkew(t *testing.T) {
	res, err := Run(testCfg(2), HotBank{Jobs: 120})
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs != 120 {
		t.Fatalf("jobs = %d", res.Jobs)
	}
	// Zipf mass concentrates on bank 0; it must dominate every other bank.
	for b := 1; b < len(res.PerBank); b++ {
		if res.PerBank[0].Jobs <= res.PerBank[b].Jobs {
			t.Fatalf("bank 0 (%d jobs) not hotter than bank %d (%d jobs)",
				res.PerBank[0].Jobs, b, res.PerBank[b].Jobs)
		}
	}
}

func TestMixedScrubRunsBothKinds(t *testing.T) {
	res, err := Run(testCfg(2), MixedScrub{Rounds: 2, SIMDPerRound: 2})
	if err != nil {
		t.Fatal(err)
	}
	org := testOrg()
	if want := int64(2 * org.Crossbars()); res.Scrubs != want || res.Loads != want {
		t.Fatalf("scrubs = %d loads = %d, want %d", res.Scrubs, res.Loads, want)
	}
	if want := int64(4 * org.Crossbars()); res.SIMDOps != want {
		t.Fatalf("simd = %d, want %d", res.SIMDOps, want)
	}
	// Clean memory: the interleaved scrubs must find nothing.
	if res.Corrected != 0 || res.Uncorrectable != 0 {
		t.Fatalf("clean fleet flagged: corrected=%d unc=%d", res.Corrected, res.Uncorrectable)
	}
}

func TestFaultStormECCCorrects(t *testing.T) {
	res, err := Run(testCfg(4), FaultStorm{Bursts: 3, SER: 5e5, Hours: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 {
		t.Fatal("storm injected nothing — raise SER or hours")
	}
	if res.Corrected == 0 {
		t.Fatal("ECC corrected nothing under a fault storm")
	}
	if res.Machine.Corrections != int(res.Corrected) {
		t.Fatalf("result corrected=%d but machine stats say %d", res.Corrected, res.Machine.Corrections)
	}
}

func TestFaultStormBaselineNeverCorrects(t *testing.T) {
	cfg := testCfg(2)
	cfg.ECCEnabled = false
	cfg.M, cfg.K = 0, 0
	res, err := Run(cfg, FaultStorm{Bursts: 2, SER: 5e5, Hours: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected == 0 {
		t.Fatal("storm injected nothing")
	}
	if res.Corrected != 0 || res.Uncorrectable != 0 {
		t.Fatalf("baseline fleet reported ECC activity: %+v", res)
	}
}

func TestRunRejectsInvalidGeometry(t *testing.T) {
	cfg := testCfg(1)
	cfg.M = 14 // must be odd and divide N
	if _, err := Run(cfg, Uniform{}); err == nil {
		t.Fatal("invalid ECC geometry accepted")
	}
	cfg = testCfg(1)
	cfg.Org = mmpu.Custom(0, 1, 1)
	if _, err := Run(cfg, Uniform{}); err == nil {
		t.Fatal("zero-sided crossbar accepted")
	}
}

type rogueWorkload struct{}

func (rogueWorkload) Name() string { return "rogue" }
func (rogueWorkload) Plan(org mmpu.Organization, seed int64) []Job {
	return []Job{{Bank: org.Banks, Crossbar: 0, Ops: []Op{{Kind: OpSIMD}}}}
}

func TestRunRejectsOutOfRangeJob(t *testing.T) {
	if _, err := Run(testCfg(1), rogueWorkload{}); err == nil {
		t.Fatal("out-of-range job accepted")
	}
}

func TestScenarioByName(t *testing.T) {
	for _, name := range ScenarioNames() {
		w, err := ScenarioByName(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if w.Name() != name {
			t.Fatalf("%q resolved to %q", name, w.Name())
		}
		if jobs := w.Plan(testOrg(), 1); len(jobs) == 0 {
			t.Fatalf("%q plans no jobs", name)
		}
	}
	if _, err := ScenarioByName("nope", 0); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestResultMergeCommutativeAssociative(t *testing.T) {
	a := Result{Scenario: "s", Jobs: 1, SIMDOps: 2, PerBank: []BankTally{{Jobs: 1}}}
	b := Result{Scenario: "s", Jobs: 5, Corrected: 3, PerBank: []BankTally{{Jobs: 2}, {Injected: 7}}}
	c := Result{Scenario: "s", Ops: 9}
	ab := a.Merge(b)
	ba := b.Merge(a)
	if !reflect.DeepEqual(ab, ba) {
		t.Fatalf("merge not commutative: %+v vs %+v", ab, ba)
	}
	if l, r := a.Merge(b).Merge(c), a.Merge(b.Merge(c)); !reflect.DeepEqual(l, r) {
		t.Fatalf("merge not associative: %+v vs %+v", l, r)
	}
}

func TestWorkloadPlanIsPure(t *testing.T) {
	org := testOrg()
	for _, w := range []Workload{
		Uniform{OpsPerCrossbar: 2}, HotBank{Jobs: 30}, MixedScrub{}, FaultStorm{},
	} {
		p1 := w.Plan(org, 7)
		p2 := w.Plan(org, 7)
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("%s: plan not reproducible", w.Name())
		}
	}
}

// TestCampaignDeterministicAcrossWorkers is the satellite extension of the
// worker-invariance contract to campaigns: with faults active, adjudicated
// campaign results (outcome counts, position histograms, reference checks)
// must merge identically for 1, 7, and 32 workers given the same base
// seed, across every fault model in the taxonomy.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	org := mmpu.Custom(45, 32, 1) // 32 banks so a 32-worker run is 32 real shards
	scenarios := []Workload{
		Campaign{Rounds: 2, Model: "transient", SER: 3e5},
		Campaign{Rounds: 2, Model: "stuck1", SER: 2e5},
		Campaign{Rounds: 2, Model: "lines", SER: 1e4, Skew: 2},
	}
	for _, w := range scenarios {
		w := w.(Campaign)
		t.Run(w.Model, func(t *testing.T) {
			cfg := Config{Config: pmem.Config{Org: org, M: 15, K: 2, ECCEnabled: true}, Seed: 77, Workers: 1}
			ref, err := Run(cfg, w)
			if err != nil {
				t.Fatal(err)
			}
			if ref.CampaignRounds != int64(2*org.Crossbars()) {
				t.Fatalf("campaign rounds = %d, want %d", ref.CampaignRounds, 2*org.Crossbars())
			}
			if ref.Campaign.Rounds != ref.CampaignRounds {
				t.Fatalf("tally rounds %d != result rounds %d", ref.Campaign.Rounds, ref.CampaignRounds)
			}
			for _, workers := range []int{7, 32} {
				cfg.Workers = workers
				got, err := Run(cfg, w)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("workers=%d diverged:\n  1: %+v\n  %d: %+v", workers, ref, workers, got)
				}
			}
		})
	}
}

// TestRepairCampaignDeterministicAcrossWorkers: with the self-healing
// policy active — write-verify retirements mutating per-machine repair
// state mid-round — the fleet result must still be identical at every
// worker count, and the stuck campaign that silently corrupts with repair
// off must come back silent-free.
func TestRepairCampaignDeterministicAcrossWorkers(t *testing.T) {
	org := mmpu.Custom(45, 32, 1) // 32 banks so a 32-worker run is 32 real shards
	w := Campaign{Rounds: 6, Model: "stuck1", SER: 2e5}
	cfg := Config{
		Config: pmem.Config{
			Org: org, M: 15, K: 2, ECCEnabled: true,
			Repair: repair.Config{Policy: repair.VerifySpare, Spares: 8},
		},
		Seed: 77, Workers: 1,
	}
	ref, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := ref.Campaign.Counts[campaign.SilentCorruption]; got != 0 {
		t.Fatalf("silent corruptions = %d with verify+spare, want 0", got)
	}
	if got := ref.Campaign.Counts[campaign.Miscorrected]; got != 0 {
		t.Fatalf("miscorrections = %d with verify+spare, want 0", got)
	}
	if ref.Campaign.CellsRetired == 0 {
		t.Fatal("fleet campaign never exercised retirement (raise rounds or rate?)")
	}
	for _, workers := range []int{8, 32} {
		cfg.Workers = workers
		got, err := Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d diverged:\n  1: %+v\n  %d: %+v", workers, ref, workers, got)
		}
	}
}

// TestCampaignScenarioConformance: the fleet-wide transient campaign at a
// single-error-per-block rate upholds the paper's guarantee on every
// crossbar of the mMPU.
func TestCampaignScenarioConformance(t *testing.T) {
	res, err := Run(testCfg(3), Campaign{Rounds: 20, Model: "transient", SER: 3e5})
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Campaign
	if tl.Injected == 0 {
		t.Fatal("fleet campaign injected nothing — raise SER")
	}
	if !tl.Conformant() {
		t.Fatalf("fleet campaign violated the ECC guarantee: %+v", tl)
	}
	if tl.RefChecks == 0 {
		t.Fatal("no bit-serial reference checks ran")
	}
	if res.Injected != tl.Injected || res.Corrected != tl.Counts[0] {
		t.Fatalf("result counters diverged from tally: %+v vs %+v", res, tl)
	}
	// Campaign machines contribute their hardware statistics.
	if res.Machine.MEMCycles == 0 || res.Machine.Corrections == 0 {
		t.Fatalf("no campaign machine activity recorded: %+v", res.Machine)
	}
}

// TestCampaignSkewSpreadsExposure: with a strong skew exponent, some
// crossbars see materially more exposure than others — visible as
// per-bank injection imbalance under a one-crossbar-per-bank layout.
func TestCampaignSkewSpreadsExposure(t *testing.T) {
	org := mmpu.Custom(45, 16, 1)
	cfg := Config{Config: pmem.Config{Org: org, M: 15, K: 2, ECCEnabled: true}, Seed: 5, Workers: 4}
	res, err := Run(cfg, Campaign{Rounds: 30, Model: "transient", SER: 1e6, Skew: 3})
	if err != nil {
		t.Fatal(err)
	}
	min, max := res.PerBank[0].Injected, res.PerBank[0].Injected
	for _, b := range res.PerBank {
		if b.Injected < min {
			min = b.Injected
		}
		if b.Injected > max {
			max = b.Injected
		}
	}
	if max < 2*min+2 {
		t.Fatalf("skew produced no spread: min %d max %d", min, max)
	}
}

// TestRunRejectsUnknownCampaignModel: bad model specs are caught up front
// as errors, not mid-run panics in a shard.
func TestRunRejectsUnknownCampaignModel(t *testing.T) {
	if _, err := Run(testCfg(1), Campaign{Model: "gamma-ray"}); err == nil {
		t.Fatal("unknown fault model accepted")
	}
}

type twoSpecWorkload struct{}

func (twoSpecWorkload) Name() string { return "twospec" }
func (twoSpecWorkload) Plan(org mmpu.Organization, seed int64) []Job {
	return []Job{{Bank: 0, Crossbar: 0, Ops: []Op{
		{Kind: OpCampaign, Model: "transient", SER: 1e5, Hours: 1},
		{Kind: OpCampaign, Model: "stuck1", SER: 1e7, Hours: 1},
	}}}
}

// TestRunRejectsHeterogeneousCampaignSpec: a crossbar's campaign runner is
// seeded once, so a plan that changes its model or rate mid-run is an
// error, not a silently ignored spec.
func TestRunRejectsHeterogeneousCampaignSpec(t *testing.T) {
	if _, err := Run(testCfg(1), twoSpecWorkload{}); err == nil {
		t.Fatal("mid-run campaign spec change accepted")
	}
}
