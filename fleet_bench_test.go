package repro

import (
	"fmt"
	"testing"

	"repro/internal/fleet"
	"repro/internal/mmpu"
	"repro/internal/pmem"
)

// --- E7: fleet-scale concurrent execution -------------------------------------
//
// The fleet benchmarks measure the multi-crossbar engine (internal/fleet):
// throughput scaling versus worker count on an evenly loaded memory, the
// cost of the ECC mechanism at fleet scale, and each built-in scenario's
// duty cycle. See DESIGN.md §E7.

// fleetBenchConfig is a 16-crossbar, 8-bank fleet of the minimum 45×45
// protected geometry — large enough that per-bank sharding has parallelism
// to exploit, small enough to iterate in a benchmark loop.
func fleetBenchConfig(workers int, ecc bool) fleet.Config {
	cfg := fleet.Config{
		Config:  pmem.Config{Org: mmpu.Custom(45, 8, 2), K: 2, ECCEnabled: ecc},
		Workers: workers, Seed: 1,
	}
	if ecc {
		cfg.M = 15
	}
	return cfg
}

// BenchmarkFleetUniformWorkers measures throughput scaling of the same
// uniform multi-bank workload as the worker pool grows. The acceptance
// target is >2× from 1 to 4 workers.
func BenchmarkFleetUniformWorkers(b *testing.B) {
	w := fleet.Uniform{OpsPerCrossbar: 2}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := fleetBenchConfig(workers, true)
			for i := 0; i < b.N; i++ {
				res, err := fleet.Run(cfg, w)
				if err != nil {
					b.Fatal(err)
				}
				if res.SIMDOps != 32 {
					b.Fatalf("simd ops = %d", res.SIMDOps)
				}
			}
			b.ReportMetric(float64(32*b.N)/b.Elapsed().Seconds(), "simdops/s")
		})
	}
}

// BenchmarkFleetECCOverhead compares the protected fleet against the
// unprotected baseline on the same workload — the fleet-scale analogue of
// the paper's per-operation latency overhead (Table I).
func BenchmarkFleetECCOverhead(b *testing.B) {
	w := fleet.Uniform{OpsPerCrossbar: 2}
	for _, ecc := range []bool{true, false} {
		b.Run(fmt.Sprintf("ecc=%v", ecc), func(b *testing.B) {
			cfg := fleetBenchConfig(4, ecc)
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(cfg, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetScenarios measures one pass of each built-in scenario at
// default intensity on the 4-worker fleet.
func BenchmarkFleetScenarios(b *testing.B) {
	for _, name := range fleet.ScenarioNames() {
		w, err := fleet.ScenarioByName(name, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			cfg := fleetBenchConfig(4, true)
			for i := 0; i < b.N; i++ {
				if _, err := fleet.Run(cfg, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
