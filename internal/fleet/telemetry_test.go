package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/campaign"
	"repro/internal/mmpu"
	"repro/internal/pmem"
	"repro/internal/telemetry"
)

// telemetrySnapshotJSON runs an ECC-active scenario over a 32-bank fleet
// with the given worker count and renders the telemetry snapshot.
func telemetrySnapshotJSON(t *testing.T, workers int, w Workload) []byte {
	t.Helper()
	reg := telemetry.New()
	cfg := Config{
		Config:  pmem.Config{Org: mmpu.Custom(45, 32, 1), M: 15, K: 2, ECCEnabled: true},
		Workers: workers, Seed: 42, Telemetry: reg,
	}
	if _, err := Run(cfg, w); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTelemetrySnapshotWorkerInvariant extends the fleet's determinism
// contract to the telemetry layer: because every series update commutes
// (atomic counter adds, histogram bucket increments), one shared
// registry yields a byte-identical snapshot at any worker count — the
// same property Result already guarantees for the report.
func TestTelemetrySnapshotWorkerInvariant(t *testing.T) {
	scenarios := []Workload{
		MixedScrub{Rounds: 2, SIMDPerRound: 1},
		FaultStorm{Bursts: 2, SER: 1e6, Hours: 1},
		Campaign{Rounds: 2, Model: "transient", SER: 1e-3, Hours: 1e9},
	}
	for _, w := range scenarios {
		t.Run(w.Name(), func(t *testing.T) {
			ref := telemetrySnapshotJSON(t, 1, w)
			for _, workers := range []int{8, 32} {
				if got := telemetrySnapshotJSON(t, workers, w); !bytes.Equal(ref, got) {
					t.Fatalf("telemetry snapshot diverged at workers=%d:\n1:  %s\n%d: %s",
						workers, ref, workers, got)
				}
			}
		})
	}
}

// TestTelemetrySeriesMatchResult cross-checks the live series against the
// Result the same run reports: the memory's per-bank series and the
// machines' ECC probes are a second, independently accumulated account of
// the identical work, so any disagreement means an instrumentation point
// is missing or double-counted. The fleet's own series are the per-bank
// job counts and the campaign counts, added from the Result.
func TestTelemetrySeriesMatchResult(t *testing.T) {
	run := func(t *testing.T, w Workload) (Result, telemetry.Snapshot) {
		t.Helper()
		reg := telemetry.New()
		cfg := testCfg(3)
		cfg.Telemetry = reg
		res, err := Run(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		return res, reg.Snapshot()
	}
	for _, w := range []Workload{MixedScrub{Rounds: 2, SIMDPerRound: 1}, FaultStorm{Bursts: 2, SER: 1e6, Hours: 1}} {
		t.Run(w.Name(), func(t *testing.T) {
			res, snap := run(t, w)
			if res.Scrubs == 0 || res.SIMDOps+res.Injected == 0 {
				t.Fatalf("vacuous run: %+v", res)
			}
			families := []struct {
				name string
				want int64
			}{
				{"pmem_compute_total", res.SIMDOps},
				{"pmem_rmw_total", res.Loads},
				{"pmem_scrubs_total", res.Scrubs},
				{"pmem_scrub_corrected_total", res.Corrected},
				{"pmem_scrub_uncorrectable_total", res.Uncorrectable},
				{"pmem_injected_total", res.Injected},
				{"fleet_jobs_total", res.Jobs},
			}
			for _, f := range families {
				if got := snap.CounterFamily(f.name); got != f.want {
					t.Errorf("sum %s = %d, want %d (from Result)", f.name, got, f.want)
				}
			}
			series := []struct {
				key  string
				want int64
			}{
				{`ecc_critical_ops_total{scheme="diagonal"}`, int64(res.Machine.CriticalOps)},
				{`ecc_input_checks_total{scheme="diagonal"}`, int64(res.Machine.InputChecks)},
				{`ecc_corrections_total{scheme="diagonal"}`, int64(res.Machine.Corrections)},
				{`ecc_uncorrectable_total{scheme="diagonal"}`, int64(res.Machine.Uncorrectable)},
			}
			for _, c := range series {
				if got := snap.Counter(c.key); got != c.want {
					t.Errorf("%s = %d, want %d (from Result)", c.key, got, c.want)
				}
			}
			// The memory's series replaced the fleet's rollups of the same
			// work.
			for _, name := range []string{"fleet_simd_ops_total", "fleet_loads_total", "fleet_scrubs_total",
				"fleet_corrected_total", "fleet_uncorrectable_total", "fleet_injected_total"} {
				for _, c := range snap.Counters {
					if c.Name == name {
						t.Errorf("retired series %s still recorded", name)
					}
				}
			}
		})
	}
	t.Run("campaign", func(t *testing.T) {
		res, snap := run(t, Campaign{Rounds: 2, Model: "transient", SER: 3e5})
		if res.Campaign.Injected == 0 {
			t.Fatal("campaign injected nothing")
		}
		if got := snap.Counter("campaign_rounds_total"); got != res.CampaignRounds {
			t.Errorf("campaign_rounds_total = %d, want %d", got, res.CampaignRounds)
		}
		for o, want := range res.Campaign.Counts {
			key := fmt.Sprintf("campaign_outcomes_total{outcome=%q}", campaign.Outcome(o).String())
			if got := snap.Counter(key); got != want {
				t.Errorf("%s = %d, want %d (from Result)", key, got, want)
			}
		}
	})
}
