// Fleet-scale execution: the paper's Fig 6 argues reliability at the scale
// of a memory built from thousands of crossbars, and internal/fleet is the
// engine that runs workloads against such an organization concurrently.
// This example runs all four built-in scenarios over a small 6-bank fleet
// and shows (1) the per-bank traffic shape each scenario produces and
// (2) that the aggregated result is identical for 1 worker and 4 workers —
// the engine's determinism-under-concurrency guarantee.
package main

import (
	"fmt"
	"reflect"

	"repro/internal/fleet"
	"repro/internal/mmpu"
	"repro/internal/pmem"
)

func main() {
	org := mmpu.Custom(45, 6, 2) // 6 banks × 2 crossbars of 45×45

	scenarios := []fleet.Workload{
		fleet.Uniform{OpsPerCrossbar: 2},
		fleet.HotBank{Jobs: 48},
		fleet.MixedScrub{Rounds: 1, SIMDPerRound: 1},
		fleet.FaultStorm{Bursts: 2, SER: 5e5, Hours: 1},
	}

	for _, w := range scenarios {
		cfg := fleet.Config{Config: pmem.Config{Org: org, M: 15, K: 2, ECCEnabled: true}, Seed: 7, Workers: 1}
		serial, err := fleet.Run(cfg, w)
		if err != nil {
			panic(err)
		}
		cfg.Workers = 4
		concurrent, err := fleet.Run(cfg, w)
		if err != nil {
			panic(err)
		}

		fmt.Printf("%-11s jobs=%-4d simd=%-4d scrubs=%-3d injected=%-4d corrected=%-4d deterministic(1w==4w)=%v\n",
			w.Name(), serial.Jobs, serial.SIMDOps, serial.Scrubs,
			serial.Injected, serial.Corrected, reflect.DeepEqual(serial, concurrent))
		fmt.Print("            bank jobs:")
		for _, t := range serial.PerBank {
			fmt.Printf(" %3d", t.Jobs)
		}
		fmt.Println()
	}
}
