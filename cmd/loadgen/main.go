// Command loadgen drives the online protected-memory serving layer
// (internal/serve) with synthetic client traffic and emits a JSON report
// of throughput, latency quantiles, coalescing, and scrub/ECC activity.
//
// Traffic is generated as a deterministic trace — open-loop Poisson
// arrivals or lockstep closed-loop clients, over uniform/zipf/scan
// address mixes, optionally under a soft-error fault overlay — and
// replayed in deterministic virtual time: the same flags reproduce the
// same report byte for byte on any machine. -workers is the *modeled*
// bank-worker count (the serving-layer scaling knob E9 sweeps): fewer
// workers means banks share service clocks and queueing grows. Wall-clock
// timing goes to stderr, never into the report.
//
// Examples:
//
//	loadgen -seed 1
//	loadgen -mode closed -clients 64 -mix zipf
//	loadgen -mix scan -width 30 -scrub-period 500
//	loadgen -faults-ser 3e5 -scrub-period 200    # scrubs correct live soft errors
//	loadgen -workers 1                           # one worker serving all banks
//	loadgen -ecc hamming -faults-ser 3e5         # serve over the Hamming SEC-DED backend
//	loadgen -repair verify+spare -faults-model stuck1 -faults-ser 3e5
//	                                             # self-heal stuck cells under live traffic
//	loadgen -compute search                      # mixed tenant issuing online SIMD pipelines
//	loadgen -tenants "client=50/50/0,batch=0/0/100" -admit 400
//	                                             # bound how long batch compute may starve clients
//	loadgen -schemes all -n 60                   # serve the identical trace under every
//	                                             # registered scheme: throughput tax vs area matrix
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/area"
	"repro/internal/cliflags"
	"repro/internal/ecc"
	"repro/internal/mmpu"
	"repro/internal/pmem"
	"repro/internal/repair"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// options collects every knob the report depends on.
type options struct {
	n, m, k        int
	banks, perBank int
	ecc            bool
	scheme         string // protection code; "" with ecc=true means diagonal

	mode, mix string
	requests  int
	clients   int
	rate      float64
	writeFrac float64
	width     int

	compute string            // SIMD kernel for OpCompute traffic ("" = none)
	tenants []serve.TenantMix // multi-tenant mixes (nil = legacy single tenant)
	admit   int64             // per-round compute admission budget (0 = FIFO)

	workers     int
	batch       int
	scrubPeriod int64
	faultSER    float64
	faultHours  float64
	faultModel  string // fault overlay model ("" = historical transient stream)
	repairCfg   repair.Config
	seed        int64
	telemetry   bool // embed the snapshot in the report
}

// report is the JSON document. Every field is deterministic from the
// options — wall-clock time is deliberately excluded.
type report struct {
	Scenario  string  `json:"scenario"`
	Mode      string  `json:"mode"`
	Mix       string  `json:"mix"`
	Seed      int64   `json:"seed"`
	Requests  int     `json:"requests"`
	Clients   int     `json:"clients"`
	Width     int     `json:"width"`
	WriteFrac float64 `json:"write_frac"`
	Rate      float64 `json:"rate,omitempty"`
	// Compute names the SIMD kernel the trace's OpCompute requests run;
	// AdmitBudget is the per-round compute admission budget in model
	// ticks. Both are omitted for compute-free runs, so default reports
	// stay byte-identical to pre-compute goldens.
	Compute     string `json:"compute,omitempty"`
	AdmitBudget int64  `json:"admit_budget,omitempty"`
	Workers     int    `json:"workers"`
	Geometry    struct {
		N, M, K, Banks, PerBank int
		ECC                     bool
		// Scheme names the protection code; omitted for the default
		// diagonal code so default reports stay byte-identical.
		Scheme string `json:",omitempty"`
	} `json:"geometry"`
	ScrubPeriod int64   `json:"scrub_period,omitempty"`
	FaultSER    float64 `json:"fault_ser,omitempty"`
	FaultModel  string  `json:"fault_model,omitempty"`

	// Repair carries the self-healing configuration and activity, present
	// only when a repair policy is active (default reports stay
	// byte-identical to pre-repair goldens).
	Repair *repairReport `json:"repair,omitempty"`

	Served struct {
		Requests int64 `json:"requests"`
		Reads    int64 `json:"reads"`
		Writes   int64 `json:"writes"`
		// Computes counts served OpCompute requests; ComputeTicks is the
		// total virtual time they occupied (the admission-control currency).
		Computes      int64 `json:"computes,omitempty"`
		ComputeTicks  int64 `json:"compute_ticks,omitempty"`
		Errors        int64 `json:"errors"`
		Batches       int64 `json:"batches"`
		Coalesced     int64 `json:"coalesced"`
		Spanning      int64 `json:"spanning"`
		Segments      int64 `json:"segments"`
		Scrubs        int64 `json:"scrubs"`
		Corrected     int64 `json:"corrected"`
		Uncorrectable int64 `json:"uncorrectable"`
		Injected      int64 `json:"injected"`
	} `json:"served"`
	LatencyTicks telemetry.HistSummary `json:"latency_ticks"`
	Ticks        int64                 `json:"ticks"`
	// ThroughputPerKilotick is served requests per 1000 model ticks —
	// the deterministic throughput figure of the E9 table.
	ThroughputPerKilotick float64          `json:"throughput_per_kilotick"`
	PerWorkerTicks        []int64          `json:"per_worker_ticks"`
	PerBank               []serve.BankLoad `json:"per_bank"`

	// Tenants is the per-tenant SLO block of multi-tenant runs (one entry
	// per -tenants stream, trace order); omitted for single-tenant runs.
	Tenants []tenantReport `json:"tenants,omitempty"`

	// Telemetry is the run's metric snapshot, present only under
	// -telemetry (the pointer + omitempty keep default reports
	// byte-identical to pre-telemetry goldens). At fixed flags the
	// snapshot is byte-reproducible: every series update commutes.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// tenantReport is one tenant's slice of the report: its op counts and
// latency distribution (P99 is the per-tenant SLO figure E13 sweeps).
type tenantReport struct {
	Name                  string                `json:"name"`
	Requests              int64                 `json:"requests"`
	Reads                 int64                 `json:"reads"`
	Writes                int64                 `json:"writes"`
	Computes              int64                 `json:"computes"`
	Errors                int64                 `json:"errors"`
	ThroughputPerKilotick float64               `json:"throughput_per_kilotick"`
	LatencyTicks          telemetry.HistSummary `json:"latency_ticks"`
}

// repairReport is the self-healing block of the report: the active policy
// plus the fleet-aggregated repair counters after the run.
type repairReport struct {
	Policy           string `json:"policy"`
	Spares           int    `json:"spares"`
	VerifyReads      int64  `json:"verify_reads"`
	VerifyMismatches int64  `json:"verify_mismatches"`
	CellsRetired     int64  `json:"cells_retired"`
	SparesExhausted  int64  `json:"spares_exhausted"`
}

// loadSchemeRow is one row of the -schemes serving-cost matrix: the
// scheme's area/overhead point beside the throughput it sustains on the
// identical trace, and the fractional throughput tax against the plain
// diagonal baseline.
type loadSchemeRow struct {
	Scheme string           `json:"scheme"`
	Area   area.SchemePoint `json:"area"`
	// The serving figures are omitted when the scheme rejects the
	// geometry (Area.Err says why).
	ThroughputPerKilotick float64 `json:"throughput_per_kilotick,omitempty"`
	// ThroughputTax is 1 − throughput/diagonal-throughput: the fraction
	// of serving capacity this scheme's update discipline costs relative
	// to the paper's diagonal code on the same trace.
	ThroughputTax float64 `json:"throughput_tax"`
	Ticks         int64   `json:"ticks,omitempty"`
	Corrected     int64   `json:"corrected"`
	Uncorrectable int64   `json:"uncorrectable"`
	Errors        int64   `json:"errors"`
}

// schemeMatrixDoc is the JSON document of the -schemes mode.
type schemeMatrixDoc struct {
	Scenario string `json:"scenario"`
	Seed     int64  `json:"seed"`
	Geometry struct {
		N, M, K, Banks, PerBank int
	} `json:"geometry"`
	Requests int             `json:"requests"`
	Matrix   []loadSchemeRow `json:"scheme_matrix"`
}

// runSchemeMatrix replays the identical trace under each named scheme
// (plus the diagonal baseline for the tax reference) and renders the
// comparison matrix.
func runSchemeMatrix(o options, sel string) ([]byte, error) {
	var names []string
	if sel == "all" {
		names = ecc.SchemeNames()
	} else {
		for _, s := range strings.Split(sel, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			if _, err := ecc.SchemeByName(s); err != nil {
				return nil, err
			}
			names = append(names, s)
		}
		if len(names) == 0 {
			return nil, fmt.Errorf("loadgen: -schemes %q names no schemes", sel)
		}
	}
	throughput := func(scheme string) (float64, serve.Result, error) {
		so := o
		so.ecc, so.scheme = true, scheme
		_, res, err := run(so, nil)
		if err != nil {
			return 0, res, err
		}
		tp := 0.0
		if res.Ticks > 0 {
			tp = float64(res.Stats.Requests) * 1000 / float64(res.Ticks)
		}
		return tp, res, nil
	}
	baseTp, _, err := throughput(ecc.SchemeDiagonal)
	if err != nil {
		return nil, err
	}
	ac := area.Config{N: o.n, M: o.m, K: o.k}
	var doc schemeMatrixDoc
	doc.Scenario = "loadgen-schemes"
	doc.Seed = o.seed
	doc.Geometry.N, doc.Geometry.M, doc.Geometry.K = o.n, o.m, o.k
	doc.Geometry.Banks, doc.Geometry.PerBank = o.banks, o.perBank
	doc.Requests = o.requests
	for _, name := range names {
		pt, err := ac.PointFor(name)
		if err != nil {
			return nil, err
		}
		row := loadSchemeRow{Scheme: name, Area: pt}
		if pt.Err == "" {
			tp, res, err := throughput(name)
			if err != nil {
				return nil, err
			}
			row.ThroughputPerKilotick = tp
			if baseTp > 0 {
				row.ThroughputTax = 1 - tp/baseTp
			}
			row.Ticks = res.Ticks
			row.Corrected, row.Uncorrectable = res.Stats.Corrected, res.Stats.Uncorrectable
			row.Errors = res.Stats.Errors
		}
		doc.Matrix = append(doc.Matrix, row)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// run executes the whole load generation and renders the report. Split
// from main so the determinism test can call it twice. reg, when
// non-nil, instruments the memory and replay; the snapshot lands in the
// report's telemetry field.
func run(o options, reg *telemetry.Registry) ([]byte, serve.Result, error) {
	mem, err := pmem.New(pmem.Config{
		Org: mmpu.Custom(o.n, o.banks, o.perBank), M: o.m, K: o.k, ECCEnabled: o.ecc,
		Scheme: o.scheme, Repair: o.repairCfg,
	})
	if err != nil {
		return nil, serve.Result{}, err
	}
	mem.Instrument(reg)
	tr, err := serve.GenTrace(mem.Config().Org, serve.TraceOpts{
		Mode: o.mode, Mix: o.mix, Requests: o.requests, Clients: o.clients,
		Rate: o.rate, WriteFrac: o.writeFrac, Width: o.width, Seed: o.seed,
		Tenants: o.tenants, Compute: o.compute,
	})
	if err != nil {
		return nil, serve.Result{}, err
	}
	res, err := serve.Replay(serve.ReplayConfig{
		Mem: mem, Workers: o.workers, BatchSize: o.batch,
		ScrubPeriod: o.scrubPeriod, FaultSER: o.faultSER, FaultHours: o.faultHours,
		FaultModel: o.faultModel, ComputeAdmit: o.admit, Seed: o.seed, Telemetry: reg,
	}, tr)
	if err != nil {
		return nil, serve.Result{}, err
	}

	var rep report
	rep.Scenario = "loadgen"
	rep.Mode, rep.Mix, rep.Seed = o.mode, o.mix, o.seed
	rep.Requests, rep.Clients, rep.Width = o.requests, o.clients, o.width
	rep.WriteFrac, rep.Rate = o.writeFrac, o.rate
	rep.Workers = res.Workers
	rep.Geometry.N, rep.Geometry.M, rep.Geometry.K = o.n, o.m, o.k
	rep.Geometry.Banks, rep.Geometry.PerBank, rep.Geometry.ECC = o.banks, o.perBank, o.ecc
	if o.scheme != "" && o.scheme != ecc.SchemeDiagonal {
		rep.Geometry.Scheme = o.scheme
	}
	rep.ScrubPeriod, rep.FaultSER = o.scrubPeriod, o.faultSER
	rep.FaultModel = o.faultModel
	if tr.Plan != nil {
		rep.Compute = tr.Plan.Kernel
	}
	rep.AdmitBudget = o.admit
	if o.repairCfg.Enabled() {
		rs := mem.RepairStats()
		rep.Repair = &repairReport{
			Policy:           o.repairCfg.Policy.String(),
			Spares:           o.repairCfg.SpareBudget(),
			VerifyReads:      rs.VerifyReads,
			VerifyMismatches: rs.Mismatches,
			CellsRetired:     rs.Retired,
			SparesExhausted:  rs.Exhausted,
		}
	}
	st := res.Stats
	rep.Served.Requests, rep.Served.Reads, rep.Served.Writes = st.Requests, st.Reads, st.Writes
	rep.Served.Computes, rep.Served.ComputeTicks = st.Computes, st.ComputeTicks
	rep.Served.Errors, rep.Served.Batches = st.Errors, st.Batches
	rep.Served.Coalesced, rep.Served.Spanning, rep.Served.Segments = st.Coalesced, st.Spanning, st.Segments
	rep.Served.Scrubs, rep.Served.Corrected = st.Scrubs, st.Corrected
	rep.Served.Uncorrectable, rep.Served.Injected = st.Uncorrectable, st.Injected
	rep.LatencyTicks = st.Lat.Summary()
	rep.Ticks = res.Ticks
	if res.Ticks > 0 {
		rep.ThroughputPerKilotick = float64(st.Requests) * 1000 / float64(res.Ticks)
	}
	rep.PerWorkerTicks = res.PerWorker
	rep.PerBank = res.PerBank
	for _, ts := range st.Tenants {
		t := tenantReport{
			Name: ts.Name, Requests: ts.Requests, Reads: ts.Reads,
			Writes: ts.Writes, Computes: ts.Computes, Errors: ts.Errors,
			LatencyTicks: ts.Lat.Summary(),
		}
		if res.Ticks > 0 {
			t.ThroughputPerKilotick = float64(ts.Requests) * 1000 / float64(res.Ticks)
		}
		rep.Tenants = append(rep.Tenants, t)
	}
	if o.telemetry && reg != nil {
		snap := reg.Snapshot()
		rep.Telemetry = &snap
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return nil, serve.Result{}, err
	}
	return buf.Bytes(), res, nil
}

// parseFlags parses a loadgen command line into the report options, the
// telemetry flags, and the -schemes selection ("" = the standard report).
func parseFlags(fs *flag.FlagSet, args []string) (o options, tel *cliflags.Telemetry, schemes string, err error) {
	var geo cliflags.Geometry
	var eccSel cliflags.ECC
	var repairSel cliflags.Repair
	var traffic cliflags.Traffic
	tel = new(cliflags.Telemetry)
	cliflags.RegisterGeometry(fs, &geo,
		cliflags.Geometry{N: 90, M: 15, K: 2, Banks: 16, PerBank: 2})
	cliflags.RegisterECC(fs, &eccSel)
	cliflags.RegisterRepair(fs, &repairSel)
	cliflags.RegisterTraffic(fs, &traffic)
	fs.StringVar(&o.mode, "mode", "open", "client model: "+strings.Join(serve.ModeNames(), ", "))
	fs.StringVar(&o.mix, "mix", "uniform", "address mix: "+strings.Join(serve.MixNames(), ", "))
	fs.IntVar(&o.requests, "requests", 20000, "total requests")
	fs.IntVar(&o.clients, "clients", 8, "client streams")
	fs.Float64Var(&o.rate, "rate", 0.2, "open loop: mean arrivals per tick")
	fs.Float64Var(&o.writeFrac, "writefrac", 0.5, "fraction of writes")
	fs.IntVar(&o.width, "width", 32, "request width in bits (1..64)")
	cliflags.RegisterWorkers(fs, &o.workers,
		"modeled bank workers (0 = one per bank); fewer workers = more queueing")
	fs.IntVar(&o.batch, "batch", 32, "max requests coalesced per batch")
	fs.Int64Var(&o.scrubPeriod, "scrub-period", 2000, "ticks between admitted crossbar scrubs per worker (0 = off); total scrub work scales with -workers")
	fs.Float64Var(&o.faultSER, "faults-ser", 0, "fault overlay rate [FIT/bit] (0 = off)")
	fs.Float64Var(&o.faultHours, "faults-hours", 1, "fault overlay exposure per scrub window [hours]")
	fs.StringVar(&o.faultModel, "faults-model", "",
		"fault overlay model (e.g. stuck1; empty = transient flips); requires -faults-ser")
	cliflags.RegisterSeed(fs, &o.seed,
		"trace and fault seed (the report is reproducible from this)")
	fs.StringVar(&schemes, "schemes", "",
		"replay the identical trace under 'all' or a comma-separated list of schemes and emit the throughput-tax/area matrix instead of the standard report")
	cliflags.RegisterTelemetry(fs, tel)
	if err = fs.Parse(args); err != nil {
		return
	}
	for _, resolve := range []func() error{eccSel.ResolveErr, repairSel.ResolveErr, traffic.ResolveErr} {
		if err = resolve(); err != nil {
			return
		}
	}
	o.n, o.m, o.k, o.banks, o.perBank = geo.N, geo.M, geo.K, geo.Banks, geo.PerBank
	o.ecc, o.scheme = eccSel.Enabled, eccSel.Scheme
	o.repairCfg = repairSel.Config
	o.compute, o.tenants, o.admit = traffic.Compute, traffic.Mixes, traffic.Admit
	o.telemetry = tel.Snapshot
	return
}

func main() {
	o, tel, schemes, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	stop, err := tel.Serve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stop()

	if schemes != "" {
		out, err := runSchemeMatrix(o, schemes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
		tel.Wait()
		return
	}

	t0 := time.Now()
	out, res, err := run(o, tel.Registry())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wall := time.Since(t0)
	os.Stdout.Write(out)
	fmt.Fprintf(os.Stderr, "loadgen: served %d requests in %v wall (%.0f req/s wall, makespan %d ticks)\n",
		res.Stats.Requests, wall.Round(time.Millisecond), float64(res.Stats.Requests)/wall.Seconds(), res.Ticks)
	tel.Wait()
}
