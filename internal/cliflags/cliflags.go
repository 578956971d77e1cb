// Package cliflags unifies the flag surface shared by the repro CLIs
// (cmd/campaign, cmd/loadgen, cmd/fleetbench): the mMPU geometry, the
// -ecc scheme selector, -seed, -workers, and the telemetry pair
// (-telemetry for the in-report snapshot, -listen for the live
// /metrics + /trace + pprof endpoint). Each CLI keeps its own defaults —
// the geometries genuinely differ — but the flag names, usage strings,
// parsing, and error behavior stay identical everywhere, so a flag
// learned on one tool works unchanged on the others.
package cliflags

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/ecc"
	"repro/internal/repair"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Geometry is the mMPU sizing every CLI exposes.
type Geometry struct {
	N, M, K, Banks, PerBank int
}

// RegisterGeometry binds the geometry flags with the CLI's defaults.
func RegisterGeometry(fs *flag.FlagSet, g *Geometry, def Geometry) {
	RegisterOrganization(fs, g, def)
	fs.IntVar(&g.M, "m", def.M, "ECC block side (odd)")
	fs.IntVar(&g.K, "k", def.K, "processing crossbars per machine")
}

// RegisterOrganization binds only the organization flags (-n, -banks,
// -perbank), for a CLI that builds no machine and so has no use for -m
// or -k.
func RegisterOrganization(fs *flag.FlagSet, g *Geometry, def Geometry) {
	fs.IntVar(&g.N, "n", def.N, "crossbar side (multiple of m)")
	fs.IntVar(&g.Banks, "banks", def.Banks, "number of banks")
	fs.IntVar(&g.PerBank, "perbank", def.PerBank, "crossbars per bank")
}

// ECC is the -ecc flag: a scheme name or "none", resolved after parsing.
type ECC struct {
	raw     string
	Scheme  string // resolved scheme name ("" only before Resolve)
	Enabled bool   // false = the unprotected baseline
}

// RegisterECC binds the -ecc flag.
func RegisterECC(fs *flag.FlagSet, e *ECC) {
	fs.StringVar(&e.raw, "ecc", "diagonal",
		"protection scheme: "+strings.Join(ecc.SchemeNames(), ", ")+
			", or none for the unprotected baseline")
}

// ResolveErr parses the raw -ecc value (call after fs.Parse).
func (e *ECC) ResolveErr() error {
	scheme, on, err := ecc.ParseSchemeFlag(e.raw)
	if err != nil {
		return err
	}
	e.Scheme, e.Enabled = scheme, on
	return nil
}

// Resolve is ResolveErr with the CLIs' historical usage-error behavior:
// print to stderr and exit 2.
func (e *ECC) Resolve() {
	if err := e.ResolveErr(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// Repair is the shared self-healing flag pair: -repair selects the
// policy, -spares the per-crossbar spare budget. The zero value (flags
// unset) resolves to the Off policy, whose repair.Config zero value flows
// through machine/pmem/fleet as the fully disabled state — default
// reports stay byte-identical.
type Repair struct {
	raw    string
	spares int
	Config repair.Config // valid after Resolve
}

// RegisterRepair binds -repair and -spares.
func RegisterRepair(fs *flag.FlagSet, r *Repair) {
	fs.StringVar(&r.raw, "repair", "off",
		"self-healing policy: "+strings.Join(repair.PolicyNames(), ", "))
	fs.IntVar(&r.spares, "spares", repair.DefaultSpares,
		"per-crossbar spare-cell budget for -repair verify+spare (0 = refuse every retirement)")
}

// ResolveErr parses the raw -repair value (call after fs.Parse).
func (r *Repair) ResolveErr() error {
	p, err := repair.ParsePolicy(r.raw)
	if err != nil {
		return err
	}
	spares := r.spares
	if spares <= 0 {
		spares = -1 // -spares 0: an explicitly empty budget, not the default
	}
	r.Config = repair.Config{Policy: p, Spares: spares}
	return nil
}

// Resolve is ResolveErr with the CLIs' usage-error behavior.
func (r *Repair) Resolve() {
	if err := r.ResolveErr(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
}

// Traffic is the serve-traffic flag trio of the compute-capable CLIs:
// -compute selects the SIMD kernel, -tenants the multi-tenant mix spec,
// -admit the per-round compute admission budget. The zero value (flags
// unset) is fully off — single-tenant legacy traffic, no compute, FIFO
// admission — so default reports stay byte-identical.
type Traffic struct {
	Compute string
	Tenants string
	Admit   int64

	Mixes []serve.TenantMix // valid after ResolveErr
}

// RegisterTraffic binds -compute, -tenants, and -admit.
func RegisterTraffic(fs *flag.FlagSet, t *Traffic) {
	fs.StringVar(&t.Compute, "compute", "",
		"SIMD compute kernel for OpCompute traffic: "+strings.Join(serve.ComputeKernelNames(), ", ")+
			" (empty = none; implies a default mixed tenant unless -tenants is set)")
	fs.StringVar(&t.Tenants, "tenants", "",
		`multi-tenant traffic spec "name=read/write/compute,..." — relative weights, normalized per tenant (empty = single tenant)`)
	fs.Int64Var(&t.Admit, "admit", 0,
		"per-round compute admission budget in model ticks; bounds how long a compute burst may starve client requests (0 = FIFO)")
}

// ResolveErr parses the tenant spec (call after fs.Parse). A -compute
// kernel without a -tenants spec resolves to one default mixed tenant
// (40/40/20), so the flag generates compute traffic on its own.
func (t *Traffic) ResolveErr() error {
	spec := t.Tenants
	if spec == "" && t.Compute != "" {
		spec = "mixed=40/40/20"
	}
	mixes, err := serve.ParseTenants(spec)
	if err != nil {
		return err
	}
	t.Mixes = mixes
	return nil
}

// RegisterSeed binds the -seed flag (default 1 everywhere).
func RegisterSeed(fs *flag.FlagSet, seed *int64, usage string) {
	fs.Int64Var(seed, "seed", 1, usage)
}

// RegisterWorkers binds the -workers flag.
func RegisterWorkers(fs *flag.FlagSet, workers *int, usage string) {
	fs.IntVar(workers, "workers", 0, usage)
}

// Telemetry is the shared observability flag pair. The zero value (no
// flag set) is fully off: Registry returns nil, and that nil flows
// through every instrumented layer as the disabled state, keeping
// default reports byte-identical and hot paths at a nil check.
type Telemetry struct {
	Snapshot bool   // -telemetry: embed the snapshot in the report
	Listen   string // -listen: live HTTP endpoint address

	reg *telemetry.Registry
}

// RegisterTelemetry binds -telemetry and -listen.
func RegisterTelemetry(fs *flag.FlagSet, t *Telemetry) {
	fs.BoolVar(&t.Snapshot, "telemetry", false,
		"embed the telemetry snapshot in the report (deterministic at fixed seeds)")
	fs.StringVar(&t.Listen, "listen", "",
		"serve live /metrics (Prometheus), /trace (events), and /debug/pprof on this address, e.g. 127.0.0.1:9090")
}

// Active reports whether any telemetry consumer is configured.
func (t *Telemetry) Active() bool { return t.Snapshot || t.Listen != "" }

// Registry returns the run's registry, created on first use — or nil
// while no consumer is configured.
func (t *Telemetry) Registry() *telemetry.Registry {
	if !t.Active() {
		return nil
	}
	if t.reg == nil {
		t.reg = telemetry.New()
	}
	return t.reg
}

// Serve starts the -listen endpoint (a no-op returning a nil-op stop
// function when -listen is unset) and notes the bound address on stderr.
func (t *Telemetry) Serve() (stop func() error, err error) {
	if t.Listen == "" {
		return func() error { return nil }, nil
	}
	addr, stop, err := telemetry.ListenAndServe(t.Listen, t.Registry())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "telemetry: serving /metrics, /trace, /debug/pprof on http://%s\n", addr)
	return stop, nil
}

// Wait blocks until SIGINT/SIGTERM when -listen is set, so a finished
// run keeps its live endpoint up for inspection; without -listen it
// returns immediately.
func (t *Telemetry) Wait() {
	if t.Listen == "" {
		return
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintln(os.Stderr, "telemetry: run complete; endpoint stays up — interrupt to exit")
	<-ch
}
