// Command fleetbench drives the concurrent fleet engine (internal/fleet):
// it instantiates a multi-bank mMPU organization of protected crossbars,
// streams a chosen workload scenario across it with a per-bank worker
// pool, and reports aggregate throughput plus ECC activity.
//
// Examples:
//
//	fleetbench -scenario uniform -banks 8 -perbank 4 -workers 4
//	fleetbench -scenario hotbank -intensity 256
//	fleetbench -scenario faultstorm -duration 3s -ecc diagonal
//	fleetbench -scenario faultstorm -ser 2e5 -hours 2 -seed 7   # reproducible storm
//	fleetbench -scenario campaign -model stuck1 -ser 1e5
//	fleetbench -scenario campaign -ecc hamming     # Hamming SEC-DED backend
//	fleetbench -scenario uniform -ecc none         # unprotected baseline
//	fleetbench -scenario campaign -model stuck1 -repair verify+spare
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/cliflags"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/mmpu"
)

func main() {
	var geo cliflags.Geometry
	var eccSel cliflags.ECC
	var tel cliflags.Telemetry
	var repairSel cliflags.Repair
	var workers int
	var seed int64
	cliflags.RegisterGeometry(flag.CommandLine, &geo,
		cliflags.Geometry{N: 45, M: 15, K: 2, Banks: 8, PerBank: 4})
	cliflags.RegisterECC(flag.CommandLine, &eccSel)
	cliflags.RegisterRepair(flag.CommandLine, &repairSel)
	scenario := flag.String("scenario", "uniform",
		"workload scenario: "+strings.Join(fleet.ScenarioNames(), ", "))
	intensity := flag.Int("intensity", 0,
		"scenario intensity (uniform: ops/crossbar, hotbank: total jobs, mixedscrub: rounds/crossbar, faultstorm: bursts/crossbar, campaign: rounds/crossbar; 0 = default)")
	cliflags.RegisterWorkers(flag.CommandLine, &workers, "worker shards (0 = GOMAXPROCS, capped at banks)")
	cliflags.RegisterSeed(flag.CommandLine, &seed, "campaign base seed (runs replay exactly from this)")
	ser := flag.Float64("ser", 0,
		"faultstorm/campaign injection rate [FIT/bit; FIT/line for the lines model] (0 = scenario default)")
	hours := flag.Float64("hours", 0, "faultstorm/campaign exposure per burst/round (0 = scenario default)")
	model := flag.String("model", "",
		"campaign fault model: "+strings.Join(faults.ModelNames(), ", ")+" (default transient)")
	skew := flag.Float64("skew", 0, "campaign per-crossbar rate-skew exponent")
	width := flag.Int("width", 8, "SIMD kernel: adder width")
	duration := flag.Duration("duration", 0,
		"keep re-running (fresh derived seed each pass) until this much time has elapsed; 0 = one pass")
	cliflags.RegisterTelemetry(flag.CommandLine, &tel)
	flag.Parse()

	w, err := fleet.ScenarioWithOptions(*scenario, fleet.ScenarioOptions{
		Intensity: *intensity, SER: *ser, Hours: *hours, Model: *model, Skew: *skew,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	eccSel.Resolve()
	repairSel.Resolve()
	scheme, eccOn := eccSel.Scheme, eccSel.Enabled
	repairOn := repairSel.Config.Enabled()
	n, banks, perBank := &geo.N, &geo.Banks, &geo.PerBank
	stop, err := tel.Serve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stop()
	cfg := fleet.Config{
		Org: mmpu.Custom(geo.N, geo.Banks, geo.PerBank), M: geo.M, K: geo.K, ECCEnabled: eccOn, Scheme: scheme,
		Repair:  repairSel.Config,
		Workers: workers, Seed: seed, KernelWidth: *width, Telemetry: tel.Registry(),
	}

	var total fleet.Result
	passes := 0
	start := time.Now()
	for {
		cfg.Seed = seed + int64(passes) // each pass replays a fresh deterministic campaign
		res, err := fleet.Run(cfg, w)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		total = total.Merge(res)
		passes++
		if time.Since(start) >= *duration {
			break
		}
	}
	elapsed := time.Since(start)

	eccDesc := "off"
	if eccOn {
		eccDesc = scheme
	}
	fmt.Printf("fleet: %d banks × %d crossbars of %d×%d (ECC %s), %d workers\n",
		*banks, *perBank, *n, *n, eccDesc, cfg.EffectiveWorkers())
	fmt.Printf("scenario %-11s %d pass(es) in %v\n\n", total.Scenario, passes, elapsed.Round(time.Millisecond))
	fmt.Printf("  jobs %-10d ops %-10d crossbars touched %d/pass\n",
		total.Jobs, total.Ops, total.CrossbarsTouched/passes)
	fmt.Printf("  simd %-10d scrubs %-8d loads %-8d bursts %d\n",
		total.SIMDOps, total.Scrubs, total.Loads, total.FaultBursts)
	fmt.Printf("  injected %-6d corrected %-5d uncorrectable %d\n",
		total.Injected, total.Corrected, total.Uncorrectable)
	fmt.Printf("  MEM cycles %-12d critical ops %-8d input checks %d\n",
		total.Machine.MEMCycles, total.Machine.CriticalOps, total.Machine.InputChecks)
	fmt.Printf("  throughput: %.1f jobs/s, %.1f ops/s\n\n",
		float64(total.Jobs)/elapsed.Seconds(), float64(total.Ops)/elapsed.Seconds())

	fmt.Println("  per-bank traffic:")
	for b, t := range total.PerBank {
		bar := strings.Repeat("#", int(64*t.Jobs/max(total.Jobs, 1)))
		fmt.Printf("    bank %2d %6d jobs %s\n", b, t.Jobs, bar)
	}

	if total.CampaignRounds > 0 {
		tl := total.Campaign
		fmt.Printf("\n  campaign adjudication (%d rounds, %d faults):\n", tl.Rounds, tl.Injected)
		for o := 0; o < campaign.NumOutcomes; o++ {
			if o == int(campaign.Repaired) && !repairOn {
				// The repaired outcome exists only with a repair policy;
				// keep the default output byte-identical to pre-repair runs.
				continue
			}
			fmt.Printf("    %-22s %d\n", campaign.Outcome(o).String(), tl.Counts[o])
		}
		fmt.Printf("    ref checks %d (mismatches %d) — conformant: %v\n",
			tl.RefChecks, tl.RefMismatches, tl.Conformant())
		if repairOn {
			fmt.Printf("    repair %s (spares %d): %d verify mismatches, %d retired, %d exhausted\n",
				repairSel.Config.Policy, repairSel.Config.SpareBudget(),
				tl.VerifyMismatches, tl.CellsRetired, tl.SparesExhausted)
		}
	}

	if tel.Snapshot {
		// The snapshot appends after the text report as indented JSON —
		// deterministic at a fixed seed and worker-count-invariant, like
		// the Result it mirrors.
		fmt.Println("\n  telemetry snapshot:")
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("  ", "  ")
		if err := enc.Encode(tel.Registry().Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	tel.Wait()
}
