// Command campaign runs the fault-campaign conformance engine across a
// full mMPU fleet and emits a machine-readable JSON report: adjudicated
// outcome counts, per-codeword-position histograms, bit-serial reference
// agreement, and an optional SER sweep. It is the executable form of the
// paper's reliability claim — every single error per block between scrubs
// is corrected, doubles are detected, nothing is silently miscorrected —
// and the regression gate every future performance PR inherits.
//
// Runs are deterministic in -seed: the same flags reproduce the same
// report bit for bit, and every result field is identical under any
// -workers value (only the informational worker count differs).
//
// Examples:
//
//	campaign -model transient -ser 1e-4
//	campaign -model stuck1 -rounds 16 -seed 7
//	campaign -model lines -ser 1e-6 -skew 2
//	campaign -sweep 1e-5,1e-4,1e-3,1e-2
//	campaign -ecc hamming -ser 1e-4        # horizontal Hamming SEC-DED backend
//	campaign -ecc parity -ser 1e-4         # detect-only parity baseline
//	campaign -ecc diagonal-x4 -model lines:4   # interleaved: line bursts decompose
//	campaign -schemes all -model lines:4   # scheme-comparison matrix, one row per code
//	campaign -ecc none -ser 1e-4           # the unprotected baseline
//	campaign -model stuck1 -repair verify+spare   # self-healing: silent → repaired
//	campaign -model stuck1 -repair verify+spare -spares 0   # exhausted budget, still never silent
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/area"
	"repro/internal/campaign"
	"repro/internal/cliflags"
	"repro/internal/ecc"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/mmpu"
	"repro/internal/telemetry"
)

// runReport is the JSON summary of one fleet campaign at one SER point.
type runReport struct {
	SER           float64          `json:"ser"`
	Rounds        int64            `json:"rounds"`
	Injected      int64            `json:"injected"`
	Outcomes      map[string]int64 `json:"outcomes"`
	ByKind        map[string]int64 `json:"by_kind,omitempty"`
	RefChecks     int64            `json:"ref_checks"`
	RefMismatches int64            `json:"ref_mismatches"`
	Conformant    bool             `json:"conformant"`
	// Repair carries the run's self-healing activity, present only when a
	// repair policy is active (default reports stay byte-identical).
	Repair *repairCounts `json:"repair,omitempty"`
}

// repairCounts is the self-healing activity of one campaign run.
type repairCounts struct {
	VerifyMismatches int64 `json:"verify_mismatches"`
	CellsRetired     int64 `json:"cells_retired"`
	SparesExhausted  int64 `json:"spares_exhausted"`
}

// report is the full JSON document.
type report struct {
	Scenario string  `json:"scenario"`
	Model    string  `json:"model"`
	Seed     int64   `json:"seed"`
	Workers  int     `json:"workers"`
	Hours    float64 `json:"hours"`
	Skew     float64 `json:"skew,omitempty"`
	Geometry struct {
		N, M, K, Banks, PerBank int
		ECC                     bool
		// Scheme names the protection code; omitted for the default
		// diagonal code so default reports stay byte-identical to the
		// pre-scheme-layer engine.
		Scheme string `json:",omitempty"`
	} `json:"geometry"`
	// RepairPolicy/RepairSpares describe the active self-healing
	// configuration; both are omitted with -repair off.
	RepairPolicy string    `json:"repair_policy,omitempty"`
	RepairSpares int       `json:"repair_spares,omitempty"`
	Run          runReport `json:"run"`
	// Positions maps each outcome to its histogram over in-block codeword
	// positions lr·M+lc — the codeword-spectrum view of where faults land.
	Positions map[string][]int64 `json:"positions,omitempty"`
	Sweep     []runReport        `json:"sweep,omitempty"`

	// SchemeMatrix is the area/coverage comparison emitted under -schemes:
	// one row per protection code, pairing the campaign's outcome tally
	// with the scheme's cost point (stored bits, device budget, update
	// reads). Omitted without the flag, keeping default reports
	// byte-identical.
	SchemeMatrix []schemeRow `json:"scheme_matrix,omitempty"`

	// Telemetry is the run's metric snapshot, present only under
	// -telemetry (pointer + omitempty keep default reports
	// byte-identical). Adjudication outcomes appear as
	// campaign_outcomes_total{outcome="..."} series.
	Telemetry *telemetry.Snapshot `json:"telemetry,omitempty"`
}

// schemeRow is one row of the -schemes comparison matrix.
type schemeRow struct {
	Scheme string `json:"scheme"`
	// Area is the scheme's cost point at this geometry (check bits,
	// device budget, update reads); its Err field is set when the scheme
	// rejects the geometry, in which case no campaign ran.
	Area area.SchemePoint `json:"area"`
	// Run is the scheme's campaign tally under the identical model, seed,
	// and rounds; nil when the geometry was rejected.
	Run *runReport `json:"run,omitempty"`
	// CorrectedFrac is corrected/injected — the coverage axis of the
	// matrix (repaired cells count as corrected coverage).
	CorrectedFrac float64 `json:"corrected_frac,omitempty"`
}

// schemeList resolves the -schemes flag: "all" means every registered
// scheme, otherwise a comma-separated list of names.
func schemeList(v string) ([]string, error) {
	if v == "all" {
		return ecc.SchemeNames(), nil
	}
	var names []string
	for _, s := range strings.Split(v, ",") {
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
		return nil, fmt.Errorf("campaign: -schemes %q names no schemes", v)
	}
	return names, nil
}

func summarize(ser float64, tl campaign.Tally, repairOn bool) runReport {
	r := runReport{
		SER:           ser,
		Rounds:        tl.Rounds,
		Injected:      tl.Injected,
		Outcomes:      make(map[string]int64, campaign.NumOutcomes),
		ByKind:        make(map[string]int64),
		RefChecks:     tl.RefChecks,
		RefMismatches: tl.RefMismatches,
		Conformant:    tl.Conformant(),
	}
	if repairOn {
		r.Repair = &repairCounts{
			VerifyMismatches: tl.VerifyMismatches,
			CellsRetired:     tl.CellsRetired,
			SparesExhausted:  tl.SparesExhausted,
		}
	}
	for o := 0; o < campaign.NumOutcomes; o++ {
		if o == int(campaign.Repaired) && !repairOn {
			// The repaired outcome exists only with a repair policy; keep
			// the default report's outcome set unchanged.
			continue
		}
		r.Outcomes[campaign.Outcome(o).String()] = tl.Counts[o]
	}
	for k, n := range tl.ByKind {
		if n > 0 {
			r.ByKind[faults.Kind(k).String()] = n
		}
	}
	return r
}

func main() {
	var geo cliflags.Geometry
	var eccSel cliflags.ECC
	var tel cliflags.Telemetry
	var repairSel cliflags.Repair
	var workers int
	var seed int64
	cliflags.RegisterGeometry(flag.CommandLine, &geo,
		cliflags.Geometry{N: 45, M: 15, K: 2, Banks: 4, PerBank: 2})
	cliflags.RegisterECC(flag.CommandLine, &eccSel)
	cliflags.RegisterRepair(flag.CommandLine, &repairSel)
	model := flag.String("model", "transient",
		"fault model: "+strings.Join(faults.ModelNames(), ", "))
	ser := flag.Float64("ser", 1e-4, "injection rate [FIT/bit; FIT/line for lines]")
	hours := flag.Float64("hours", 1e9,
		"accelerated exposure per round [device-hours]; the default compresses -ser into a per-round flip probability of ser (e.g. 1e-4 FIT/bit -> ~1e-4/bit/round)")
	rounds := flag.Int("rounds", 4, "campaign rounds per crossbar")
	skew := flag.Float64("skew", 0, "per-crossbar rate-skew exponent (0 = uniform fleet)")
	cliflags.RegisterWorkers(flag.CommandLine, &workers, "worker shards (0 = GOMAXPROCS, capped at banks)")
	cliflags.RegisterSeed(flag.CommandLine, &seed, "campaign base seed (runs are reproducible from this)")
	sweep := flag.String("sweep", "", "comma-separated extra SER points to sweep (same seed each)")
	schemesFlag := flag.String("schemes", "",
		"emit a scheme-comparison matrix: 'all' or a comma-separated list of registered schemes, each run under the identical campaign")
	cliflags.RegisterTelemetry(flag.CommandLine, &tel)
	flag.Parse()

	eccSel.Resolve()
	repairSel.Resolve()
	scheme, eccOn := eccSel.Scheme, eccSel.Enabled
	repairOn := repairSel.Config.Enabled()
	n, m, k, banks, perBank := &geo.N, &geo.M, &geo.K, &geo.Banks, &geo.PerBank
	stop, err := tel.Serve()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stop()
	cfg := fleet.Config{
		Org: mmpu.Custom(*n, *banks, *perBank), M: *m, K: *k, ECCEnabled: eccOn, Scheme: scheme,
		Repair:  repairSel.Config,
		Workers: workers, Seed: seed, Telemetry: tel.Registry(),
	}
	runWith := func(c fleet.Config, serPoint float64) campaign.Tally {
		w, err := fleet.ScenarioWithOptions("campaign", fleet.ScenarioOptions{
			Intensity: *rounds, Model: *model, SER: serPoint, Hours: *hours, Skew: *skew,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		res, err := fleet.Run(c, w)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return res.Campaign
	}
	runAt := func(serPoint float64) campaign.Tally { return runWith(cfg, serPoint) }

	tl := runAt(*ser)
	rep := report{
		Scenario: "campaign",
		Model:    *model,
		Seed:     seed,
		Workers:  cfg.EffectiveWorkers(),
		Hours:    *hours,
		Skew:     *skew,
		Run:      summarize(*ser, tl, repairOn),
	}
	if repairOn {
		rep.RepairPolicy = repairSel.Config.Policy.String()
		rep.RepairSpares = repairSel.Config.SpareBudget()
	}
	rep.Geometry.N, rep.Geometry.M, rep.Geometry.K = *n, *m, *k
	rep.Geometry.Banks, rep.Geometry.PerBank = *banks, *perBank
	rep.Geometry.ECC = eccOn
	if scheme != ecc.SchemeDiagonal {
		rep.Geometry.Scheme = scheme
	}
	if tl.M > 0 {
		rep.Positions = make(map[string][]int64)
		for o := 0; o < campaign.NumOutcomes; o++ {
			if tl.Positions[o] != nil {
				rep.Positions[campaign.Outcome(o).String()] = tl.Positions[o]
			}
		}
	}
	for _, s := range strings.Split(*sweep, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		point, err := strconv.ParseFloat(s, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "campaign: bad sweep point %q: %v\n", s, err)
			os.Exit(2)
		}
		rep.Sweep = append(rep.Sweep, summarize(point, runAt(point), repairOn))
	}
	if *schemesFlag != "" {
		names, err := schemeList(*schemesFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ac := area.Config{N: *n, M: *m, K: *k}
		for _, name := range names {
			pt, err := ac.PointFor(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			row := schemeRow{Scheme: name, Area: pt}
			if pt.Err == "" {
				scfg := cfg
				scfg.ECCEnabled = true
				scfg.Scheme = name
				stl := runWith(scfg, *ser)
				run := summarize(*ser, stl, repairOn)
				row.Run = &run
				if stl.Injected > 0 {
					row.CorrectedFrac = float64(stl.Counts[campaign.Corrected]+stl.Counts[campaign.Repaired]) /
						float64(stl.Injected)
				}
			}
			rep.SchemeMatrix = append(rep.SchemeMatrix, row)
		}
	}
	if tel.Snapshot {
		snap := tel.Registry().Snapshot()
		rep.Telemetry = &snap
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tel.Wait()
}
