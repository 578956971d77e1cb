package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mmpu"
	"repro/internal/pmem"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// Every workload serves the loadgen default organization: 16 banks of two
// 90×90 crossbars, 15×15 ECC blocks, two processing crossbars, the paper's
// diagonal code and repair off — 259,200 data bits, or 4,050 64-bit slots.
var (
	org      = mmpu.Custom(90, 16, 2)
	memCfg   = pmem.Config{Org: org, M: blockM, K: procXbars, ECCEnabled: true}
	numSlots = org.DataBits() / slotBits
)

const (
	blockM    = 15
	procXbars = 2
	slotBits  = 64

	// Load comes from two closed-loop clients, and servers and nodes run
	// two bank workers in all.
	numClients = 2
	workers    = 2
	scrubEvery = 64
	// computeAdmit is the serve-compute admission budget in modeled
	// cycles (the E13 setting).
	computeAdmit = 400

	// planSeed fixes the search pipeline's query: the seed varies the
	// traffic, never the cost of one pipeline.
	planSeed = 1

	warmupDur = 2 * time.Second
	// setupReps set-ups are timed per run; setup_s is their median.
	setupReps = 15
	// ladderOps is how many of the timed phase's ops the ladder replays.
	ladderOps = 20_000
	// replayRequests is the replay-scrub trace length: about 2 s of
	// Replay, so a timed phase holds several windows.
	replayRequests = 50_000
)

// workload is one named traffic mix. run builds the system, drives it for
// the configured phases and checks every output. BENCHMARK.json and
// README.md give the reason for each.
type workload struct {
	name string
	run  func(runConfig) (*result, error)
}

var workloads = []workload{
	{"serve-rw", runServeRW},
	{"fleet-read", runFleetRead},
	{"serve-compute", runServeCompute},
	{"replay-scrub", runReplayScrub},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig holds one run's settings. Everything else about a workload is
// a constant of this package, so results do not depend on the host.
type runConfig struct {
	seed   int64
	warmup time.Duration
	timed  time.Duration
	setups int
	// replayRequests sizes the replay-scrub trace; the seed-1 golden
	// check applies only at the full size.
	replayRequests int
	// tr, when set, makes this the traced run: telemetry registries are
	// attached, calls are recorded as spans and the first ladderOps ops
	// are kept for the ladder.
	tr *tracer
}

func defaultConfig(seed int64, timed time.Duration) runConfig {
	return runConfig{seed: seed, warmup: warmupDur, timed: timed, setups: setupReps,
		replayRequests: replayRequests}
}

// result is what one run measured and checked.
type result struct {
	setupS float64
	heapMB float64
	// windows are the timed phase's consecutive slices (replay-scrub: one
	// per Replay call); each end-to-end metric is the median over them,
	// so a slice the host disturbed does not move the run's value.
	windows []window
	// elapsed, requests and computes total the timed phase: requests
	// completed without error, and how many of them were pipelines.
	elapsed  time.Duration
	requests int64
	computes int64

	// attempted and failed count every request issued, warm-up and
	// read-back included; problems describes each failed check.
	attempted int64
	failed    int64
	problems  []string

	// Traced runs only: process and telemetry readings around the timed
	// phase, and the recorded ops the ladder replays.
	before, after probe
	ops           []serve.Request
}

// window is one slice of the timed phase: requests completed per second
// and the nearest-rank median and 99.5th percentile of its op latency
// samples, as measured, and the host-speed probe taken just before it.
type window struct {
	reqPerS   float64
	p50, p995 int64 // ns
	samples   int
	host      float64 // hostFactor
}

func windowOf(requests int64, d time.Duration, lat []int64, host float64) window {
	return window{reqPerS: ratio(float64(requests), d.Seconds()),
		p50: nearestRank(lat, 0.50), p995: nearestRank(lat, 0.995), samples: len(lat), host: host}
}

// medianOver returns the median of f over the run's windows.
func (r *result) medianOver(f func(window) float64) float64 {
	xs := make([]float64, len(r.windows))
	for i, w := range r.windows {
		xs[i] = f(w)
	}
	return median(xs)
}

// reqPerS is the median window's throughput as measured.
func (r *result) reqPerS() float64 { return r.medianOver(func(w window) float64 { return w.reqPerS }) }

// scaledReqPerS is the median window's throughput scaled to the nominal
// host by the window's probe: the end-to-end req_per_s.
func (r *result) scaledReqPerS() float64 {
	return r.medianOver(func(w window) float64 { return w.reqPerS * w.host })
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setUp builds a system cfg.setups times and returns the last build with
// the median build time in seconds, each scaled by the host-speed probe
// taken just before it. Earlier builds are torn down, and the probe run,
// outside the timing.
func setUp[T any](cfg runConfig, build func(parent int64) (T, error), teardown func(T)) (T, float64, error) {
	var sys T
	times := make([]float64, 0, cfg.setups)
	for i := 0; i < max(cfg.setups, 1); i++ {
		if i > 0 {
			teardown(sys)
		}
		host := hostFactor()
		id, start := cfg.tr.begin()
		t0 := time.Now()
		s, err := build(id)
		times = append(times, time.Since(t0).Seconds()/host)
		cfg.tr.end(id, 0, "bench", "setup", start)
		if err != nil {
			var zero T
			return zero, 0, fmt.Errorf("set-up: %w", err)
		}
		sys = s
	}
	return sys, median(times), nil
}

// clientFn runs one closed-loop client until the deadline.
type clientFn func(deadline time.Time, t *clientTally)

// clientTally is one client's count of a phase.
type clientTally struct {
	attempted, failed, computes int64
	lat                         []int64
	problems                    []string
}

func (t *clientTally) fail(format string, args ...any) {
	t.failed++
	if len(t.problems) < 4 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// env is what the clients of one run share: the tracer, the span the
// current phase's request spans hang from, and the ladder's op recorder.
// phase and rec are set before each drive starts the clients.
type env struct {
	tr    *tracer
	phase int64
	rec   *recorder
}

// drive runs the clients concurrently for d and returns their merged
// tally and the wall time taken.
func drive(d time.Duration, cs []clientFn) (clientTally, time.Duration) {
	tallies := make([]clientTally, len(cs))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c(deadline, &tallies[i])
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var sum clientTally
	for _, t := range tallies {
		sum.attempted += t.attempted
		sum.failed += t.failed
		sum.computes += t.computes
		sum.lat = append(sum.lat, t.lat...)
		sum.problems = append(sum.problems, t.problems...)
	}
	return sum, elapsed
}

// timedWindows is how many consecutive windows a live timed phase is
// measured in: one second each at the default length.
const timedWindows = 20

// runLive runs the warm-up and the timed phase of a closed-loop workload
// and records them in res. regs are the registries whose series the
// traced run reads around the timed phase.
func runLive(cfg runConfig, e *env, res *result, cs []clientFn, regs ...*telemetry.Registry) {
	warm, _ := drive(cfg.warmup, cs)
	res.attempted += warm.attempted
	res.failed += warm.failed
	res.problems = append(res.problems, warm.problems...)

	if cfg.tr != nil {
		e.rec = &recorder{}
		res.before = takeProbe(regs...)
	}
	id, start := cfg.tr.begin()
	e.phase = id
	for k := 0; k < timedWindows; k++ {
		host := hostFactor()
		t, d := drive(cfg.timed/timedWindows, cs)
		done := t.attempted - t.failed
		res.windows = append(res.windows, windowOf(done, d, t.lat, host))
		res.elapsed += d
		res.requests += done
		res.computes += t.computes
		res.attempted += t.attempted
		res.failed += t.failed
		res.problems = append(res.problems, t.problems...)
	}
	cfg.tr.end(id, 0, "bench", "timed", start)
	if cfg.tr != nil {
		res.after = takeProbe(regs...)
		res.ops = e.rec.ops
	}
}

// recorder keeps the first ladderOps requests of the timed phase.
type recorder struct {
	full atomic.Bool
	mu   sync.Mutex
	ops  []serve.Request
}

func (r *recorder) add(reqs ...serve.Request) {
	if r == nil || r.full.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	room := ladderOps - len(r.ops)
	r.ops = append(r.ops, reqs[:min(room, len(reqs))]...)
	if len(r.ops) == ladderOps {
		r.full.Store(true)
	}
}

// clientRand gives each client its own stream; the seed changes only the
// generated values and op order.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
}

// stripe returns the slots client c owns (slot i belongs to client i mod
// numClients), so every read has exactly one expected value.
func stripe(c int) []int64 {
	var own []int64
	for s := int64(c); s < numSlots; s += numClients {
		own = append(own, s)
	}
	return own
}

func writeReq(slot int64, v uint64) serve.Request {
	return serve.Request{Op: serve.OpWrite, Addr: slot * slotBits, Width: slotBits, Data: v}
}

func readReq(slot int64) serve.Request {
	return serve.Request{Op: serve.OpRead, Addr: slot * slotBits, Width: slotBits}
}

// rwClient writes a random value to a random slot of its own, then reads
// it back and compares it with the shadow copy. Each Do is timed alone,
// and the writes are the op latency samples: a read takes about 2 µs and
// a protected write about 18 µs, so over both kinds the median would fall
// in the gap between them and jump from run to run.
func rwClient(e *env, do func(serve.Request) serve.Response, own []int64, shadow []uint64, rng *rand.Rand) clientFn {
	call := func(t *clientTally, req serve.Request) (serve.Response, time.Time) {
		e.rec.add(req)
		t0 := time.Now()
		resp := do(req)
		t1 := time.Now()
		e.tr.op(e.phase, "serve", "serve.Server.Do", t0, t1, false)
		if req.Op == serve.OpWrite {
			t.lat = append(t.lat, t1.Sub(t0).Nanoseconds())
		}
		t.attempted++
		if resp.Err != nil {
			t.fail("%v", resp.Err)
		}
		return resp, t1
	}
	return func(deadline time.Time, t *clientTally) {
		for now := time.Now(); now.Before(deadline); {
			s := own[rng.Intn(len(own))]
			v := rng.Uint64()
			if resp, _ := call(t, writeReq(s, v)); resp.Err == nil {
				shadow[s] = v
			}
			var resp serve.Response
			resp, now = call(t, readReq(s))
			if resp.Err == nil && resp.Data != shadow[s] {
				t.fail("slot %d read %#x, want %#x", s, resp.Data, shadow[s])
			}
		}
	}
}

// readBack reads every listed slot in batches and compares it with the
// shadow copy.
func readBack(batch func([]serve.Request) []serve.Response, slots []int64, shadow []uint64) (attempted, failed int64, problems []string) {
	for lo := 0; lo < len(slots); lo += 64 {
		chunk := slots[lo:min(lo+64, len(slots))]
		reqs := make([]serve.Request, len(chunk))
		for i, s := range chunk {
			reqs[i] = readReq(s)
		}
		for i, r := range batch(reqs) {
			attempted++
			switch {
			case r.Err != nil:
				failed++
				problems = append(problems, fmt.Sprintf("read-back of slot %d: %v", chunk[i], r.Err))
			case r.Data != shadow[chunk[i]]:
				failed++
				problems = append(problems, fmt.Sprintf("read-back of slot %d: %#x, want %#x", chunk[i], r.Data, shadow[chunk[i]]))
			}
		}
	}
	if len(problems) > 4 {
		problems = append(problems[:4], fmt.Sprintf("... %d read-back failures in all", failed))
	}
	return attempted, failed, problems
}

// checkMemory scrubs every crossbar of a quiesced memory. No fault is
// injected in the live workloads, so nothing may need correcting, and
// every crossbar's check bits must match a rebuild from its data.
func checkMemory(mem *pmem.Memory) []string {
	var probs []string
	if c, u := mem.ScrubAll(); c != 0 || u != 0 {
		probs = append(probs, fmt.Sprintf("final scrub corrected %d and found %d uncorrectable blocks", c, u))
	}
	for i := 0; i < mem.Config().Org.Crossbars(); i++ {
		if !mem.Crossbar(i).CheckConsistent() {
			probs = append(probs, fmt.Sprintf("crossbar %d check bits do not match its data", i))
		}
	}
	return probs
}
