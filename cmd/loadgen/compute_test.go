package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

// computeOpts is smokeOpts plus a compute-monopolizing tenant sharing
// the memory with an interactive one, under an admission budget.
func computeOpts(admit int64) options {
	o := smokeOpts(4)
	o.mix = "uniform"
	o.faultSER = 0
	o.compute = "search"
	o.tenants = []serve.TenantMix{
		{Name: "client", ReadFrac: 50, WriteFrac: 50},
		{Name: "batch", ComputeFrac: 100},
	}
	o.admit = admit
	return o
}

// TestDefaultReportMatchesGolden pins whole reports, byte for byte, to
// checked-in goldens rendered from the same command lines. The default
// golden is the exact flags the CI smoke runs: a new report field leaking
// into the default path (a forgotten omitempty) fails here first. The
// others pin what no shape test does: admission with every probe series,
// the closed loop over uneven bank shards, and the model-based fault
// overlay with online repair.
func TestDefaultReportMatchesGolden(t *testing.T) {
	for _, tc := range []struct{ golden, flags string }{
		{"golden_default.json", "-seed 1 -requests 20000 -scrub-period 500 -faults-ser 3e5"},
		{"golden_admit_telemetry.json", "-seed 1 -requests 8000 -tenants client=50/50/0,batch=0/0/100 -admit 400 -telemetry"},
		{"golden_closed_zipf.json", "-seed 3 -mode closed -mix zipf -workers 3 -requests 6000 -scrub-period 300 -faults-ser 3e5"},
		{"golden_stuck_repair.json", "-seed 1 -requests 6000 -banks 4 -scrub-period 300 -faults-ser 3e5 -faults-model stuck1 -repair verify+spare -spares 256"},
	} {
		t.Run(strings.TrimSuffix(tc.golden, ".json"), func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			o, tel, _, err := parseFlags(flag.NewFlagSet("loadgen", flag.ContinueOnError), strings.Fields(tc.flags))
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := run(o, tel.Registry())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out, golden) {
				t.Fatalf("loadgen %s drifted from testdata/%s (%d vs %d bytes)",
					tc.flags, tc.golden, len(out), len(golden))
			}
		})
	}
}

// TestComputeReportShapeAndReproducibility: the multi-tenant report is
// byte-reproducible at fixed flags and carries the E13 fields — the
// kernel, the admission budget, compute counts, and one SLO block per
// tenant with its own latency digest.
func TestComputeReportShapeAndReproducibility(t *testing.T) {
	a, res, err := run(computeOpts(400), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := run(computeOpts(400), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("compute report not reproducible:\n%s\n---\n%s", a, b)
	}
	if res.Stats.Errors != 0 {
		t.Fatalf("%d serve errors", res.Stats.Errors)
	}
	var rep map[string]any
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if rep["compute"] != "search" || rep["admit_budget"].(float64) != 400 {
		t.Fatalf("compute header wrong: compute=%v admit=%v", rep["compute"], rep["admit_budget"])
	}
	served := rep["served"].(map[string]any)
	if served["computes"].(float64) == 0 || served["compute_ticks"].(float64) == 0 {
		t.Fatalf("compute traffic missing from served block: %v", served)
	}
	tenants := rep["tenants"].([]any)
	if len(tenants) != 2 {
		t.Fatalf("want 2 tenant blocks, got %d", len(tenants))
	}
	var total float64
	for i, name := range []string{"client", "batch"} {
		tb := tenants[i].(map[string]any)
		if tb["name"] != name {
			t.Fatalf("tenant %d named %v, want %s", i, tb["name"], name)
		}
		lat := tb["latency_ticks"].(map[string]any)
		if lat["count"].(float64) != tb["requests"].(float64) {
			t.Fatalf("tenant %s: %v latencies for %v requests", name, lat["count"], tb["requests"])
		}
		if lat["p99"].(float64) < lat["p50"].(float64) {
			t.Fatalf("tenant %s: p99 %v below p50 %v", name, lat["p99"], lat["p50"])
		}
		if tb["throughput_per_kilotick"].(float64) <= 0 {
			t.Fatalf("tenant %s: no throughput", name)
		}
		total += tb["requests"].(float64)
	}
	if total != served["requests"].(float64) {
		t.Fatalf("tenant requests sum to %v of %v served", total, served["requests"])
	}
	batch := tenants[1].(map[string]any)
	if batch["computes"].(float64) != batch["requests"].(float64) {
		t.Fatalf("batch tenant not compute-only: %v", batch)
	}
}

// TestAdmitFlagProtectsClientP99 is the report-level view of the E13
// claim: the client tenant's p99 under an admission budget must be far
// below its FIFO p99 at otherwise identical flags.
func TestAdmitFlagProtectsClientP99(t *testing.T) {
	clientP99 := func(admit int64) float64 {
		out, _, err := run(computeOpts(admit), nil)
		if err != nil {
			t.Fatal(err)
		}
		var rep map[string]any
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatal(err)
		}
		tb := rep["tenants"].([]any)[0].(map[string]any)
		return tb["latency_ticks"].(map[string]any)["p99"].(float64)
	}
	fifo, bounded := clientP99(0), clientP99(400)
	if bounded*10 > fifo {
		t.Fatalf("client p99 %v (admit=400) not an order below FIFO %v", bounded, fifo)
	}
}
