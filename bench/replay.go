package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"time"

	"repro/internal/pmem"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// replayOpts is the replay-scrub trace: open-loop uniform traffic from
// eight clients at 0.2 arrivals per tick, 32-bit requests, half writes.
func replayOpts(cfg runConfig) serve.TraceOpts {
	return serve.TraceOpts{Mode: "open", Mix: "uniform", Requests: cfg.replayRequests,
		Clients: 8, Rate: 0.2, WriteFrac: 0.5, Width: 32, Seed: cfg.seed}
}

// replayConfig models one worker per bank with the fault overlay on: each
// admitted scrub (one per 300 ticks per worker) follows an hour of soft
// errors at 3e4 FIT/bit on the crossbar it scrubs.
func replayConfig(cfg runConfig, mem *pmem.Memory, reg *telemetry.Registry) serve.ReplayConfig {
	return serve.ReplayConfig{Mem: mem, ScrubPeriod: 300, FaultSER: 3e4, FaultHours: 1,
		Seed: cfg.seed, Telemetry: reg}
}

// replayModel is the modeled, virtual-time outcome of one replay. It is a
// pure function of the trace and the replay configuration: it must repeat
// exactly, and a host-only speed-up must not move it.
type replayModel struct {
	Requests      int64                 `json:"requests"`
	Reads         int64                 `json:"reads"`
	Writes        int64                 `json:"writes"`
	Errors        int64                 `json:"errors"`
	Batches       int64                 `json:"batches"`
	Coalesced     int64                 `json:"coalesced"`
	Spanning      int64                 `json:"spanning"`
	Segments      int64                 `json:"segments"`
	Scrubs        int64                 `json:"scrubs"`
	Corrected     int64                 `json:"corrected"`
	Uncorrectable int64                 `json:"uncorrectable"`
	Injected      int64                 `json:"injected"`
	Ticks         int64                 `json:"ticks"`
	PerWorker     []int64               `json:"per_worker_ticks"`
	LatencyTicks  telemetry.HistSummary `json:"latency_ticks"`
}

func modelOf(r serve.Result) replayModel {
	st := r.Stats
	return replayModel{
		Requests: st.Requests, Reads: st.Reads, Writes: st.Writes, Errors: st.Errors,
		Batches: st.Batches, Coalesced: st.Coalesced, Spanning: st.Spanning, Segments: st.Segments,
		Scrubs: st.Scrubs, Corrected: st.Corrected, Uncorrectable: st.Uncorrectable, Injected: st.Injected,
		Ticks: r.Ticks, PerWorker: r.PerWorker, LatencyTicks: st.Lat.Summary(),
	}
}

// goldenSeed1 is replayModel at seed 1 and the full trace length.
//
//go:embed testdata/replay_scrub_seed1.json
var goldenSeed1 []byte

// checkReplay checks the invariants every replay satisfies at any seed:
// every request served, per-bank requests summing to the total, the
// makespan equal to the slowest worker's clock, and the fault overlay
// actually injecting, scrubbing and correcting.
func checkReplay(r serve.Result, tr *serve.Trace) []string {
	var probs []string
	bad := func(format string, args ...any) { probs = append(probs, fmt.Sprintf(format, args...)) }
	if r.Stats.Requests != int64(tr.Requests()) {
		bad("replay served %d requests of a %d-request trace", r.Stats.Requests, tr.Requests())
	}
	var perBank, maxClock int64
	for _, b := range r.PerBank {
		perBank += b.Requests
	}
	for _, c := range r.PerWorker {
		maxClock = max(maxClock, c)
	}
	if perBank != r.Stats.Requests {
		bad("per-bank requests sum to %d, total is %d", perBank, r.Stats.Requests)
	}
	if maxClock != r.Ticks {
		bad("slowest worker clock %d differs from makespan %d", maxClock, r.Ticks)
	}
	if r.Stats.Injected == 0 || r.Stats.Scrubs == 0 || r.Stats.Corrected == 0 {
		bad("fault overlay idle: injected %d, scrubs %d, corrected %d",
			r.Stats.Injected, r.Stats.Scrubs, r.Stats.Corrected)
	}
	return probs
}

// checkModel compares a replay's model with the first replay of the run
// and, at seed 1 and full length, with the committed golden.
func checkModel(cfg runConfig, m replayModel, first *replayModel) []string {
	if first != nil {
		if !reflect.DeepEqual(m, *first) {
			return []string{"replaying the same trace gave a different modeled outcome"}
		}
		return nil
	}
	if cfg.seed != 1 || cfg.replayRequests != replayRequests {
		return nil
	}
	var want replayModel
	if err := json.Unmarshal(goldenSeed1, &want); err != nil {
		return []string{fmt.Sprintf("golden: %v", err)}
	}
	if !reflect.DeepEqual(m, want) {
		got, _ := json.Marshal(m)
		return []string{fmt.Sprintf("seed-1 modeled outcome differs from testdata/replay_scrub_seed1.json: got %s", got)}
	}
	return nil
}

// arrivalOrder returns the trace's first n requests in arrival order.
func arrivalOrder(tr *serve.Trace, n int) []serve.Request {
	var all []serve.TimedReq
	for _, b := range tr.PerBank {
		all = append(all, b...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].At < all[j].At })
	out := make([]serve.Request, 0, min(n, len(all)))
	for _, tq := range all[:min(n, len(all))] {
		out = append(out, tq.Req)
	}
	return out
}

// runReplayScrub replays the fixed trace on a fresh memory, again and
// again until the timed phase is over (at least once). One op is one
// Replay call and each call is its own window, with a host-speed probe
// before it, so op_p50_us and op_p995_us both read the median call;
// req_per_s is simulated requests per second inside Replay.
func runReplayScrub(cfg runConfig) (*result, error) {
	type built struct {
		mem *pmem.Memory
		tr  *serve.Trace
	}
	sys, setupS, err := setUp(cfg, func(parent int64) (b built, err error) {
		err = cfg.tr.step(parent, "pmem", "setup.pmem_new", func() (err error) {
			b.mem, err = pmem.New(memCfg)
			return err
		})
		if err != nil {
			return b, err
		}
		err = cfg.tr.step(parent, "serve", "setup.trace_gen", func() (err error) {
			b.tr, err = serve.GenTrace(org, replayOpts(cfg))
			return err
		})
		return b, err
	}, func(built) {})
	if err != nil {
		return nil, err
	}
	res := &result{setupS: setupS, heapMB: heapMB()}
	var reg *telemetry.Registry
	if cfg.tr != nil {
		reg = telemetry.New()
		res.ops = arrivalOrder(sys.tr, ladderOps)
		res.before = takeProbe(reg)
	}
	phase, phaseStart := cfg.tr.begin()
	var first *replayModel
	mem := sys.mem
	for start := time.Now(); len(res.windows) == 0 || time.Since(start) < cfg.timed; {
		if mem == nil {
			if mem, err = pmem.New(memCfg); err != nil {
				return nil, err
			}
		}
		if reg != nil {
			mem.Instrument(reg)
		}
		host := hostFactor()
		t0 := time.Now()
		out, err := serve.Replay(replayConfig(cfg, mem, reg), sys.tr)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		cfg.tr.op(phase, "serve", "serve.Replay", t0, t1, true)
		mem = nil // every replay starts from a zeroed memory

		done := out.Stats.Requests - out.Stats.Errors
		res.windows = append(res.windows, windowOf(done, t1.Sub(t0), []int64{t1.Sub(t0).Nanoseconds()}, host))
		res.elapsed += t1.Sub(t0)
		res.requests += done
		res.attempted += int64(sys.tr.Requests())
		res.failed += out.Stats.Errors
		res.problems = append(res.problems, checkReplay(out, sys.tr)...)
		m := modelOf(out)
		res.problems = append(res.problems, checkModel(cfg, m, first)...)
		if first == nil {
			first = &m
		}
	}
	cfg.tr.end(phase, 0, "bench", "timed", phaseStart)
	if reg != nil {
		res.after = takeProbe(reg)
	}
	return res, nil
}
