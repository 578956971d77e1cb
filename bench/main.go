// Command bench is the repository benchmark. It drives one workload
// through the public APIs of pmem, serve, netfleet and machine, checks
// every output, and prints each end-to-end metric by name and unit; with
// -trace it instead reports the per-layer metrics and writes the spans.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// A failed check prints a FAIL line, sets "correct" to false and makes the
// exit status 1. Usage, from the repository root:
//
//	go run ./bench -workload serve-rw -seed 1 [-seconds 20] [-trace [-trace-out FILE]]
//	bash bench/run.sh --workload serve-rw --seed 1 --seconds 20 --trace 0
//
// See bench/README.md for the workloads and what each metric should move.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed of the generated inputs: values, op order and the replay trace")
	seconds := fs.Int("seconds", 20, "timed phase in seconds; a traced run gives half to an untraced and half to a traced phase")
	trace := fs.Bool("trace", false, "traced run: report the per-layer metrics and write the spans")
	traceOut := fs.String("trace-out", filepath.Join(".bench_build", "spans.json"), "span file a traced run writes")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || fs.NArg() > 0 || *seconds < 1 {
		fmt.Fprintf(stderr, "bench: need -workload (one of %s) and -seconds >= 1\n", strings.Join(names, ", "))
		return 2
	}
	// The clients, bank workers and nodes share one P, so results depend
	// neither on the host's core count nor on how it places two vCPUs, and
	// the host-speed probe runs where the workload runs.
	runtime.GOMAXPROCS(1)
	cfg := defaultConfig(*seed, time.Duration(*seconds)*time.Second)
	fmt.Fprintf(stdout, "workload %s  seed %d  timed %ds  gomaxprocs %d  traced %v\n",
		w.name, *seed, *seconds, runtime.GOMAXPROCS(0), *trace)

	var ms []metric
	var res *result
	var err error
	if *trace {
		ms, res, err = tracedRun(w, cfg, *traceOut, stdout)
	} else {
		ms, res, err = plainRun(w, cfg, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintf(stdout, "FAIL %s\n", p)
	}
	v := verdict{Correct: len(res.problems) == 0 && res.failed == 0, Attempted: res.attempted, Failed: res.failed}
	if err := report(stdout, ms, v); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !v.Correct {
		return 1
	}
	return 0
}

// normalizeArgs rewrites "-trace 0" and "-trace 1" (for callers that give
// every flag a value) to the bool flag's "-trace=0" and "-trace=1".
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			if v := args[i+1]; v == "0" || v == "1" || v == "true" || v == "false" {
				out = append(out, a+"="+v)
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// endToEndValues derives the end-to-end metrics of an untraced run. Each
// window's throughput and latencies are scaled to the nominal host by the
// probe taken before it, then the median window is reported.
func endToEndValues(r *result) map[string]float64 {
	return map[string]float64{
		"setup_s":    r.setupS,
		"req_per_s":  r.scaledReqPerS(),
		"op_p50_us":  r.medianOver(func(w window) float64 { return float64(w.p50) / w.host }) / 1e3,
		"op_p995_us": r.medianOver(func(w window) float64 { return float64(w.p995) / w.host }) / 1e3,
		"heap_mb":    r.heapMB,
	}
}

// plainRun is the untraced run: end-to-end metrics only.
func plainRun(w workload, cfg runConfig, stdout io.Writer) ([]metric, *result, error) {
	calib := hostCalibNs()
	res, err := w.run(cfg)
	if err != nil {
		return nil, nil, err
	}
	ms, err := fill(endToEnd, endToEndValues(res))
	if err != nil {
		return nil, nil, err
	}
	fewest := res.windows[0].samples
	for _, w := range res.windows {
		fewest = min(fewest, w.samples)
	}
	fmt.Fprintf(stdout, "%d windows, fewest op samples in one %d; error_frac %g (%d of %d); host.calib_ns %.0f\n",
		len(res.windows), fewest, ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted, calib)
	fmt.Fprintf(stdout, "as measured, before scaling by the host probe (median %.3f of nominal): req_per_s %.1f, op_p50_us %.3f, op_p995_us %.3f\n",
		res.medianOver(func(w window) float64 { return w.host }), res.reqPerS(),
		res.medianOver(func(w window) float64 { return float64(w.p50) })/1e3,
		res.medianOver(func(w window) float64 { return float64(w.p995) })/1e3)
	if res.computes > 0 {
		fmt.Fprintf(stdout, "compute_per_s %.1f pipelines/s (counted in req_per_s)\n",
			ratio(float64(res.computes), res.elapsed.Seconds()))
	}
	return ms, res, nil
}

// tracedRun runs an untraced and a traced phase of half the timed length
// each, then the ladder over the traced phase's ops, and reports the
// per-layer metrics; trace.overhead_frac compares the two phases.
func tracedRun(w workload, cfg runConfig, out string, stdout io.Writer) ([]metric, *result, error) {
	calib := hostCalibNs()
	cfg.timed /= 2
	plain, err := w.run(cfg)
	if err != nil {
		return nil, nil, err
	}
	cfg.tr = newTracer()
	res, err := w.run(cfg)
	if err != nil {
		return nil, nil, err
	}
	lad, err := runLadder(cfg.tr, res.ops, cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	vals := layerValues(res, lad)
	vals["host.calib_ns"] = calib
	vals["host.probe_us"] = nominalProbeNs / 1e3 * res.medianOver(func(w window) float64 { return w.host })
	vals["trace.overhead_frac"] = 1 - ratio(res.scaledReqPerS(), plain.scaledReqPerS())
	if err := cfg.tr.write(out, w.name, cfg.seed); err != nil {
		return nil, nil, err
	}
	ms, err := fill(perLayer, vals)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(stdout, "req_per_s (probe-scaled) untraced %.1f, traced %.1f; spans written to %s\n",
		plain.scaledReqPerS(), res.scaledReqPerS(), out)
	fmt.Fprintf(stdout, "ladder self time per request: machine %.0f ns (per row write), pmem %.0f ns (per word write), serve %.0f ns, netfleet %.0f ns\n",
		lad.selfNs["machine"], lad.selfNs["pmem"], lad.selfNs["serve"], lad.selfNs["netfleet"])
	res.attempted += plain.attempted
	res.failed += plain.failed
	res.problems = append(plain.problems, res.problems...)
	return ms, res, nil
}

// layerValues derives the per-layer metrics of a traced run from the
// ladder and from the telemetry series over its timed phase. A run whose
// phase had no live server (replay-scrub) takes the serve wait series from
// the ladder's serve rung; a run without a fleet takes the netfleet series
// from the ladder's netfleet rung.
func layerValues(r *result, lad *ladder) map[string]float64 {
	vals := maps.Clone(lad.vals)
	d := r.after.tel.since(r.before.tel)
	secs := r.after.at.Sub(r.before.at).Seconds()
	c := func(t tally, k string) float64 { return float64(t.counters[k]) }

	reqs := c(d, "serve_requests_total")
	vals["serve.batch_mean"] = ratio(reqs, c(d, "serve_batches_total"))
	vals["serve.coalesce_frac"] = ratio(c(d, "serve_coalesced_total"), reqs)
	vals["serve.segments_per_req"] = ratio(c(d, "serve_segments_total"), reqs)
	vals["pmem.scrubs_per_kreq"] = 1e3 * ratio(c(d, "pmem_scrubs_total"), reqs)
	vals["ecc.update_reads_per_write"] = ratio(c(d, "ecc_update_reads_total"), c(d, "serve_requests_total{op=write}"))
	vals["ecc.corrections_per_kreq"] = 1e3 * ratio(c(d, "ecc_corrections_total"), reqs)
	coreUs := secs * 1e6 * float64(runtime.GOMAXPROCS(0))
	vals["pmem.scrub_share"] = ratio(c(d, "pmem_scrubs_total")*lad.vals["pmem.scrub_xbar_us"], coreUs)

	live := d
	if live.hists["serve_wait_ns"].N == 0 {
		live = lad.serveTally
	}
	vals["serve.wait_p50_us"] = float64(live.hists["serve_wait_ns"].Quantile(0.50)) / 1e3
	vals["serve.wait_p99_us"] = float64(live.hists["serve_wait_ns"].Quantile(0.99)) / 1e3
	vals["serve.latency_p99_us"] = float64(live.hists["serve_latency_ns"].Quantile(0.99)) / 1e3

	fleet, fsecs := d, secs
	if c(fleet, "netfleet_batches_total") == 0 {
		fleet, fsecs = lad.fleetTally, lad.fleetSecs
	}
	vals["netfleet.reqs_per_frame"] = ratio(c(fleet, "netfleet_requests_total"), c(fleet, "netfleet_batches_total"))
	vals["netfleet.gossip_tx_per_s"] = ratio(c(fleet, "netfleet_gossip_tx_total"), fsecs)
	vals["netfleet.rotation_scrubs_per_s"] = ratio(c(fleet, "netfleet_scrubs_total"), fsecs)

	done := float64(r.requests)
	vals["go.alloc_bytes_per_req"] = ratio(float64(r.after.bytes-r.before.bytes), done)
	vals["go.allocs_per_req"] = ratio(float64(r.after.mallocs-r.before.mallocs), done)
	vals["go.gc_per_s"] = ratio(float64(r.after.gcs-r.before.gcs), secs)
	return vals
}
