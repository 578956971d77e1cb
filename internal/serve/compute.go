package serve

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bitmat"
	"repro/internal/circuits"
	"repro/internal/machine"
	"repro/internal/netlist"
	"repro/internal/pmem"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// ComputePlan is a prepared SIMD compute pipeline: a SIMPLER mapping plus
// the row-selection mask it executes over. One plan is shared by every
// OpCompute request of a trace — the mapping is immutable after synthesis
// and machine.ExecuteSIMD only reads it, so sharing is safe across banks
// and workers. The request's address selects the target crossbar; the
// crossbar's cells [0, Mapping.RowSize) in the selected rows are the
// pipeline's working region (treated as scratch by the serving layer).
type ComputePlan struct {
	Kernel  string
	Mapping *synth.Mapping
	Rows    *bitmat.Vec // row-selection mask (all rows by default)
}

// searchKeyW is the key width of the built-in associative-search kernel
// (the examples/simdsearch matcher).
const searchKeyW = 12

// ComputeKernelNames lists the built-in compute kernels for CLI usage
// text: "search" plus every Table I circuit small enough to be useful.
func ComputeKernelNames() []string {
	names := []string{"search"}
	for _, b := range circuits.All() {
		names = append(names, b.Name)
	}
	return names
}

// BuildComputePlan synthesizes the named kernel for n-cell crossbar rows.
// "search" builds the associative-search matcher (key == query, the query
// derived deterministically from seed); any other name resolves a Table I
// benchmark circuit (circuits.ByName), lowered to NOR and SIMPLER-mapped.
// Circuits that do not fit an n-cell row fail with the mapper's error.
func BuildComputePlan(name string, n int, seed int64) (*ComputePlan, error) {
	var nl *netlist.Netlist
	switch name {
	case "":
		return nil, fmt.Errorf("serve: empty compute kernel name")
	case "search":
		// splitmix64 of the seed → a fixed query; NewZipf-style stateless
		// derivation keeps the plan a pure function of (name, n, seed).
		x := uint64(seed) + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		nl = buildMatcher((x ^ (x >> 31)) & ((1 << searchKeyW) - 1))
	default:
		b, ok := circuits.ByName(name)
		if !ok {
			return nil, fmt.Errorf("serve: unknown compute kernel %q (have %v)",
				name, ComputeKernelNames())
		}
		nl = b.Build()
	}
	mp, err := synth.Map(nl.LowerToNOR(), n)
	if err != nil {
		return nil, fmt.Errorf("serve: kernel %q does not fit %d-cell rows: %w", name, n, err)
	}
	rows := bitmat.NewVec(n)
	rows.Fill(true)
	return &ComputePlan{Kernel: name, Mapping: mp, Rows: rows}, nil
}

// buildMatcher builds `key == query`: each key bit contributes itself or
// its complement to an AND reduction (the simdsearch matcher circuit).
func buildMatcher(query uint64) *netlist.Netlist {
	b := netlist.NewBuilder("matcher")
	key := b.InputBus(searchKeyW)
	match := b.Const(true)
	for i := 0; i < searchKeyW; i++ {
		lit := key[i]
		if query&(1<<uint(i)) == 0 {
			lit = b.Not(lit)
		}
		match = b.And(match, lit)
	}
	b.Output(match)
	return b.Build()
}

// computeCostFor resolves the modeled per-plan compute cost for a memory
// configuration (machine.Config.ComputeCost, memoized per distinct plan).
// It is the shared currency of the live server's and the replay's
// admission budgets, so -admit means the same thing in both regimes.
func computeCostFor(cfg pmem.Config) func(*ComputePlan) int64 {
	mc := machine.Config{
		N: cfg.Org.CrossbarN, M: cfg.M, K: cfg.K,
		ECCEnabled: cfg.ECCEnabled, Scheme: cfg.Scheme,
	}
	cache := map[*ComputePlan]int64{}
	return func(p *ComputePlan) int64 {
		if p == nil || p.Mapping == nil {
			return 1
		}
		c, ok := cache[p]
		if !ok {
			c = mc.ComputeCost(p.Mapping)
			cache[p] = c
		}
		return c
	}
}

// TenantMix is one tenant's traffic composition. The weights are relative
// (any non-negative numbers; they are normalized over their sum), so
// "50/50/0" and "1/1/0" describe the same read/write tenant.
type TenantMix struct {
	Name        string
	ReadFrac    float64
	WriteFrac   float64
	ComputeFrac float64
}

// normalized returns the mix with weights scaled to sum to 1.
func (t TenantMix) normalized() TenantMix {
	sum := t.ReadFrac + t.WriteFrac + t.ComputeFrac
	t.ReadFrac /= sum
	t.WriteFrac /= sum
	t.ComputeFrac /= sum
	return t
}

// ParseTenants parses a multi-tenant traffic spec of the form
// "name=read/write/compute,name=read/write/compute,..." — e.g.
// "web=60/40/0,batch=10/10/80". Weights are relative non-negative
// numbers normalized per tenant; names must be unique and non-empty.
// An empty spec yields nil (single-tenant legacy traffic).
func ParseTenants(spec string) ([]TenantMix, error) {
	if spec == "" {
		return nil, nil
	}
	var out []TenantMix
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		eq := strings.IndexByte(part, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("serve: tenant %q: want name=read/write/compute", part)
		}
		name := strings.TrimSpace(part[:eq])
		if seen[name] {
			return nil, fmt.Errorf("serve: duplicate tenant %q", name)
		}
		seen[name] = true
		ws := strings.Split(part[eq+1:], "/")
		if len(ws) != 3 {
			return nil, fmt.Errorf("serve: tenant %q: want three /-separated weights, got %d", name, len(ws))
		}
		var w [3]float64
		sum := 0.0
		for i, s := range ws {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("serve: tenant %q: bad weight %q", name, s)
			}
			w[i] = v
			sum += v
		}
		if sum == 0 {
			return nil, fmt.Errorf("serve: tenant %q: all weights zero", name)
		}
		out = append(out, TenantMix{Name: name, ReadFrac: w[0], WriteFrac: w[1], ComputeFrac: w[2]})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: empty tenant spec %q", spec)
	}
	return out, nil
}

// TenantStats is one tenant's served-traffic tally. Index-aligned slices
// of TenantStats merge field-wise (Stats.Merge), so per-worker tallies
// combine into a per-tenant total in any order.
type TenantStats struct {
	Name     string
	Requests int64
	Reads    int64
	Writes   int64
	Computes int64
	Errors   int64
	Lat      telemetry.Hist // same time base as Stats.Lat
}

// mergeTenants combines index-aligned per-tenant tallies field-wise into a
// fresh slice as long as the longer of the two.
func mergeTenants(a, b []TenantStats) []TenantStats {
	if len(a) < len(b) {
		a, b = b, a
	}
	out := append([]TenantStats(nil), a...)
	for i, t := range b {
		o := &out[i]
		if o.Name == "" {
			o.Name = t.Name
		}
		o.Requests += t.Requests
		o.Reads += t.Reads
		o.Writes += t.Writes
		o.Computes += t.Computes
		o.Errors += t.Errors
		o.Lat = o.Lat.Merge(t.Lat)
	}
	return out
}
