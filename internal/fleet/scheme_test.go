package fleet

// Fleet execution with non-diagonal protection schemes: the worker-count
// determinism contract and the campaign scenario must hold unchanged when
// fleet.Config names the Hamming or parity backend.

import (
	"reflect"
	"testing"

	"repro/internal/campaign"
	"repro/internal/ecc"
	"repro/internal/mmpu"
	"repro/internal/pmem"
)

// TestSchemeDeterministicAcrossWorkers: the Hamming-backed campaign
// scenario yields an identical Result at every worker count.
func TestSchemeDeterministicAcrossWorkers(t *testing.T) {
	w := Campaign{Rounds: 3, Model: "transient", SER: 1e5}
	cfg := testCfg(1)
	cfg.Scheme = ecc.SchemeHamming
	ref, err := Run(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Campaign.Injected == 0 {
		t.Fatalf("vacuous campaign: %+v", ref.Campaign)
	}
	for _, workers := range []int{2, 3, 7} {
		cfg := testCfg(workers)
		cfg.Scheme = ecc.SchemeHamming
		got, err := Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d diverged:\n  1: %+v\n  %d: %+v", workers, ref, workers, got)
		}
	}
}

// TestSchemeCampaignOutcomes: fleet-wide transient campaigns per scheme —
// hamming corrects and never miscorrects; parity detects and never
// corrects; both agree with their bit-serial references.
func TestSchemeCampaignOutcomes(t *testing.T) {
	for _, scheme := range []string{ecc.SchemeHamming, ecc.SchemeParity} {
		cfg := testCfg(2)
		cfg.Scheme = scheme
		res, err := Run(cfg, Campaign{Rounds: 4, Model: "transient", SER: 1e5})
		if err != nil {
			t.Fatal(err)
		}
		tl := res.Campaign
		if tl.Injected == 0 || tl.RefChecks == 0 {
			t.Fatalf("%s: vacuous campaign %+v", scheme, tl)
		}
		if tl.RefMismatches != 0 || tl.Counts[campaign.Miscorrected] != 0 {
			t.Fatalf("%s: miscorrection or reference mismatch: %+v", scheme, tl)
		}
		switch scheme {
		case ecc.SchemeHamming:
			if tl.Counts[campaign.Corrected] == 0 {
				t.Fatalf("hamming never corrected: %+v", tl)
			}
		case ecc.SchemeParity:
			if tl.Counts[campaign.Corrected] != 0 {
				t.Fatalf("parity claims corrections: %+v", tl)
			}
			if tl.Counts[campaign.DetectedUncorrectable] == 0 {
				t.Fatalf("parity never detected: %+v", tl)
			}
		}
	}
}

// TestNewSchemeDeterministicAcrossWorkers: the DEC and interleaved
// campaigns yield identical results at 1, 8, and 32 workers on a
// geometry every scheme accepts (60 is divisible by the interleave
// widths) — the merge contract extended to the new families.
func TestNewSchemeDeterministicAcrossWorkers(t *testing.T) {
	for _, scheme := range []string{ecc.SchemeDEC, "diagonal-x4"} {
		w := Campaign{Rounds: 3, Model: "transient", SER: 1e5}
		cfg := newSchemeCfg(scheme, 1)
		ref, err := Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Campaign.Injected == 0 {
			t.Fatalf("%s: vacuous campaign: %+v", scheme, ref.Campaign)
		}
		if ref.Campaign.Counts[campaign.Miscorrected] != 0 ||
			ref.Campaign.Counts[campaign.SilentCorruption] != 0 {
			t.Fatalf("%s: non-conformant fleet campaign: %+v", scheme, ref.Campaign)
		}
		for _, workers := range []int{8, 32} {
			got, err := Run(newSchemeCfg(scheme, workers), w)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("%s workers=%d diverged:\n  1: %+v\n  %d: %+v", scheme, workers, ref, workers, got)
			}
		}
	}
}

// newSchemeCfg sizes a fleet of 60×60 crossbars for the schemes the
// 45×45 default geometry rejects.
func newSchemeCfg(scheme string, workers int) Config {
	return Config{
		Config:  pmem.Config{Org: mmpu.Custom(60, 4, 2), M: 15, K: 2, ECCEnabled: true, Scheme: scheme},
		Workers: workers, Seed: 42,
	}
}

// TestSchemeMixedScrubRuns: the non-campaign scenarios (SIMD + scrub)
// execute cleanly on a Hamming-protected fleet.
func TestSchemeMixedScrubRuns(t *testing.T) {
	cfg := testCfg(3)
	cfg.Scheme = ecc.SchemeHamming
	res, err := Run(cfg, MixedScrub{Rounds: 1, SIMDPerRound: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SIMDOps == 0 || res.Scrubs == 0 {
		t.Fatalf("mixedscrub inert: %+v", res)
	}
	// No faults were injected, so the scrubs must stay silent.
	if res.Corrected != 0 || res.Uncorrectable != 0 {
		t.Fatalf("phantom ECC activity: %+v", res)
	}
}
