package cliflags

import (
	"flag"
	"io"
	"testing"

	repairpkg "repro/internal/repair"
)

// newFS returns a quiet FlagSet so usage errors don't pollute test output.
func newFS() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// TestGeometryFlags: the geometry flags parse into the struct and fall
// back to the caller's per-CLI defaults.
func TestGeometryFlags(t *testing.T) {
	fs := newFS()
	var g Geometry
	RegisterGeometry(fs, &g, Geometry{N: 90, M: 15, K: 2, Banks: 16, PerBank: 2})
	if err := fs.Parse([]string{"-n", "45", "-banks", "4"}); err != nil {
		t.Fatal(err)
	}
	want := Geometry{N: 45, M: 15, K: 2, Banks: 4, PerBank: 2}
	if g != want {
		t.Fatalf("parsed geometry %+v, want %+v", g, want)
	}
}

// TestECCResolve: the -ecc flag accepts scheme names and "none",
// defaults to diagonal, and rejects unknown schemes and the retired
// boolean spellings.
func TestECCResolve(t *testing.T) {
	cases := []struct {
		args    []string
		scheme  string
		enabled bool
		wantErr bool
	}{
		{nil, "diagonal", true, false}, // default
		{[]string{"-ecc", "hamming"}, "hamming", true, false},
		{[]string{"-ecc", "false"}, "", false, true},
		{[]string{"-ecc", "none"}, "", false, false},
		{[]string{"-ecc", "true"}, "", false, true},
		{[]string{"-ecc", "bogus"}, "", false, true},
	}
	for _, c := range cases {
		fs := newFS()
		var e ECC
		RegisterECC(fs, &e)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: parse: %v", c.args, err)
		}
		err := e.ResolveErr()
		if (err != nil) != c.wantErr {
			t.Fatalf("%v: err = %v, wantErr = %v", c.args, err, c.wantErr)
		}
		if err != nil {
			continue
		}
		if e.Scheme != c.scheme || e.Enabled != c.enabled {
			t.Errorf("%v: resolved (%q, %v), want (%q, %v)",
				c.args, e.Scheme, e.Enabled, c.scheme, c.enabled)
		}
	}
}

// TestRepairResolve: the -repair/-spares pair resolves policy spellings,
// keeps the default fully off, and maps -spares 0 to an explicitly empty
// budget (distinct from the unset default).
func TestRepairResolve(t *testing.T) {
	cases := []struct {
		args    []string
		policy  repairpkg.Policy
		budget  int
		wantErr bool
	}{
		{nil, repairpkg.Off, repairpkg.DefaultSpares, false}, // default
		{[]string{"-repair", "verify"}, repairpkg.Verify, repairpkg.DefaultSpares, false},
		{[]string{"-repair", "verify+spare", "-spares", "3"}, repairpkg.VerifySpare, 3, false},
		{[]string{"-repair", "verify+spare", "-spares", "0"}, repairpkg.VerifySpare, 0, false},
		{[]string{"-repair", "bogus"}, repairpkg.Off, 0, true},
	}
	for _, c := range cases {
		fs := newFS()
		var r Repair
		RegisterRepair(fs, &r)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%v: parse: %v", c.args, err)
		}
		err := r.ResolveErr()
		if (err != nil) != c.wantErr {
			t.Fatalf("%v: err = %v, wantErr = %v", c.args, err, c.wantErr)
		}
		if err != nil {
			continue
		}
		if r.Config.Policy != c.policy || r.Config.SpareBudget() != c.budget {
			t.Errorf("%v: resolved (%v, budget %d), want (%v, %d)",
				c.args, r.Config.Policy, r.Config.SpareBudget(), c.policy, c.budget)
		}
	}
	var zero Repair
	if zero.Config.Enabled() {
		t.Fatal("zero-value Repair must resolve to the Off policy")
	}
}

// TestSeedWorkersDefaults: the shared defaults every CLI inherits.
func TestSeedWorkersDefaults(t *testing.T) {
	fs := newFS()
	var seed int64
	var workers int
	RegisterSeed(fs, &seed, "rng seed")
	RegisterWorkers(fs, &workers, "worker count")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if seed != 1 || workers != 0 {
		t.Fatalf("defaults seed=%d workers=%d, want 1 and 0", seed, workers)
	}
	if err := fs.Parse([]string{"-seed", "7", "-workers", "3"}); err != nil {
		t.Fatal(err)
	}
	if seed != 7 || workers != 3 {
		t.Fatalf("parsed seed=%d workers=%d, want 7 and 3", seed, workers)
	}
}

// TestTelemetryInactive: with neither -telemetry nor -listen, the pair
// stays fully off — a nil registry is the disabled state everywhere
// downstream, and Serve/Wait are no-ops.
func TestTelemetryInactive(t *testing.T) {
	fs := newFS()
	var tel Telemetry
	RegisterTelemetry(fs, &tel)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if tel.Active() {
		t.Fatal("zero-value Telemetry reports active")
	}
	if tel.Registry() != nil {
		t.Fatal("inactive Telemetry built a registry")
	}
	stop, err := tel.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	tel.Wait() // must return immediately without -listen
}

// TestTelemetryActive: either flag activates the pair and the registry
// is created once and shared.
func TestTelemetryActive(t *testing.T) {
	fs := newFS()
	var tel Telemetry
	RegisterTelemetry(fs, &tel)
	if err := fs.Parse([]string{"-telemetry"}); err != nil {
		t.Fatal(err)
	}
	if !tel.Active() {
		t.Fatal("-telemetry did not activate")
	}
	reg := tel.Registry()
	if reg == nil {
		t.Fatal("active Telemetry returned nil registry")
	}
	if tel.Registry() != reg {
		t.Fatal("Registry not stable across calls")
	}

	fs = newFS()
	tel = Telemetry{}
	RegisterTelemetry(fs, &tel)
	if err := fs.Parse([]string{"-listen", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	if !tel.Active() || tel.Registry() == nil {
		t.Fatal("-listen did not activate telemetry")
	}
}

// TestTelemetryServe: -listen binds a real endpoint and stop shuts it
// down; port 0 keeps the test free of fixed-port collisions.
func TestTelemetryServe(t *testing.T) {
	fs := newFS()
	var tel Telemetry
	RegisterTelemetry(fs, &tel)
	if err := fs.Parse([]string{"-listen", "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	stop, err := tel.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
