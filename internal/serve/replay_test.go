package serve

import (
	"reflect"
	"testing"

	"repro/internal/mmpu"
)

// replayOnce builds a fresh memory, generates the trace, and replays it.
func replayOnce(t *testing.T, workers int, topts TraceOpts, rcfg ReplayConfig) Result {
	t.Helper()
	mem := testMem(t, 90, 15, 16, 2)
	tr, err := GenTrace(mem.Config().Org, topts)
	if err != nil {
		t.Fatal(err)
	}
	rcfg.Mem = mem
	rcfg.Workers = workers
	res, err := Replay(rcfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReplayDeterministic is the serving-layer mirror of the fleet
// determinism tests: at every modeled worker count the full Result —
// counts, per-bank loads, worker clocks, makespan, and the complete
// latency histogram — reproduces exactly from the seed, for every client
// model, address mix, and the fault overlay. Across worker counts the
// *served traffic* is invariant: only queueing (latency, makespan,
// scrub interleaving) may move.
func TestReplayDeterministic(t *testing.T) {
	scenarios := []struct {
		name  string
		topts TraceOpts
		rcfg  ReplayConfig
	}{
		{"open-uniform", TraceOpts{Mode: "open", Mix: "uniform", Requests: 2000, Seed: 7},
			ReplayConfig{ScrubPeriod: 500}},
		{"open-zipf", TraceOpts{Mode: "open", Mix: "zipf", Requests: 2000, Width: 32, Seed: 7},
			ReplayConfig{}},
		{"open-scan", TraceOpts{Mode: "open", Mix: "scan", Requests: 2000, Width: 32, Seed: 9},
			ReplayConfig{ScrubPeriod: 300}},
		{"closed-uniform", TraceOpts{Mode: "closed", Mix: "uniform", Requests: 2000, Clients: 24, Seed: 3},
			ReplayConfig{ScrubPeriod: 400}},
		{"open-faults", TraceOpts{Mode: "open", Mix: "uniform", Requests: 1500, Seed: 5},
			ReplayConfig{ScrubPeriod: 200, FaultSER: 3e5, Seed: 11}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			perWorker := map[int]Result{}
			for _, workers := range []int{1, 8, 32} {
				ref := replayOnce(t, workers, sc.topts, sc.rcfg)
				if ref.Stats.Requests != int64(sc.topts.Requests) {
					t.Fatalf("workers=%d: served %d of %d requests", workers, ref.Stats.Requests, sc.topts.Requests)
				}
				if ref.Stats.Lat.N != ref.Stats.Requests {
					t.Fatalf("workers=%d: %d latencies for %d requests", workers, ref.Stats.Lat.N, ref.Stats.Requests)
				}
				if ref.Ticks == 0 {
					t.Fatal("zero makespan")
				}
				got := replayOnce(t, workers, sc.topts, sc.rcfg)
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("workers=%d: two identical replays diverged", workers)
				}
				perWorker[workers] = ref
			}
			// Traffic served is invariant across worker counts; queueing
			// (makespan) only improves with more workers.
			one, eight := perWorker[1], perWorker[8]
			if one.Stats.Reads != eight.Stats.Reads || one.Stats.Writes != eight.Stats.Writes ||
				one.Stats.Errors != eight.Stats.Errors {
				t.Fatal("served traffic depends on worker count")
			}
			if perWorker[8].Stats.Requests != perWorker[32].Stats.Requests {
				t.Fatal("request count depends on worker count")
			}
			// (Makespan monotonicity holds under saturating load — see
			// TestReplayThroughputScalesWithWorkers; in idle-dominated
			// regimes extra workers admit extra scrub budgets, so the
			// tail can lengthen slightly.)
		})
	}
}

// TestReplayThroughputScalesWithWorkers: under saturating open-loop load,
// modeled throughput (requests per tick) increases monotonically from 1
// through 8 workers — the E9 scaling claim, asserted, not just tabled.
func TestReplayThroughputScalesWithWorkers(t *testing.T) {
	topts := TraceOpts{Mode: "open", Mix: "uniform", Requests: 8000, Rate: 50, Seed: 29}
	rcfg := ReplayConfig{ScrubPeriod: 1000}
	prev := int64(1 << 62)
	for _, workers := range []int{1, 2, 4, 8} {
		res := replayOnce(t, workers, topts, rcfg)
		if res.Workers != workers {
			t.Fatalf("modeled %d workers, want %d", res.Workers, workers)
		}
		if res.Ticks >= prev {
			t.Fatalf("workers=%d: makespan %d did not improve on %d", workers, res.Ticks, prev)
		}
		if len(res.PerWorker) != workers {
			t.Fatalf("workers=%d: %d worker clocks", workers, len(res.PerWorker))
		}
		prev = res.Ticks
	}
}

// TestReplayFaultOverlayCorrects: with the overlay on, faults are
// injected and the admitted scrubs correct them — and with it off, the
// scrubs raise zero ECC alarms.
func TestReplayFaultOverlayCorrects(t *testing.T) {
	topts := TraceOpts{Mode: "open", Mix: "uniform", Requests: 2000, Seed: 5}
	clean := replayOnce(t, 4, topts, ReplayConfig{ScrubPeriod: 200})
	if clean.Stats.Scrubs == 0 {
		t.Fatal("no scrubs admitted")
	}
	if clean.Stats.Corrected != 0 || clean.Stats.Uncorrectable != 0 || clean.Stats.Injected != 0 {
		t.Fatalf("clean run raised ECC alarms: %+v", clean.Stats)
	}
	scrubsPerBank := int64(0)
	for _, b := range clean.PerBank {
		scrubsPerBank += b.Scrubs
	}
	if scrubsPerBank != clean.Stats.Scrubs {
		t.Fatalf("per-bank scrubs %d != total %d", scrubsPerBank, clean.Stats.Scrubs)
	}
	faulty := replayOnce(t, 4, topts, ReplayConfig{
		ScrubPeriod: 200, FaultSER: 3e5, Seed: 11,
	})
	if faulty.Stats.Injected == 0 {
		t.Fatal("overlay injected nothing")
	}
	if faulty.Stats.Corrected == 0 {
		t.Fatalf("scrubs corrected nothing despite %d injected flips", faulty.Stats.Injected)
	}
}

// TestReplayScrubInterferenceShowsInTail: admitted scrub work delays
// queued requests, so the high quantiles with scrubbing dominate the
// scrub-free run — the queueing effect E9 measures.
func TestReplayScrubInterferenceShowsInTail(t *testing.T) {
	topts := TraceOpts{Mode: "open", Mix: "uniform", Requests: 4000, Rate: 0.5, Seed: 21}
	quiet := replayOnce(t, 8, topts, ReplayConfig{})
	noisy := replayOnce(t, 8, topts, ReplayConfig{ScrubPeriod: 50})
	if noisy.Stats.Scrubs == 0 {
		t.Fatal("no scrub interference generated")
	}
	if noisy.Stats.Lat.Quantile(0.999) <= quiet.Stats.Lat.Quantile(0.999) {
		t.Fatalf("p999 with scrubs (%d) not above scrub-free (%d)",
			noisy.Stats.Lat.Quantile(0.999), quiet.Stats.Lat.Quantile(0.999))
	}
}

// TestReplayClosedLoopLatencyCoversWait: in the lockstep closed loop a
// client's request waits for its bank's whole round, so mean latency must
// exceed the bare service cost — and every request still completes.
func TestReplayClosedLoopLatencyCoversWait(t *testing.T) {
	res := replayOnce(t, 4, TraceOpts{
		Mode: "closed", Mix: "uniform", Requests: 3200, Clients: 64, Seed: 13,
	}, ReplayConfig{})
	if res.Stats.Requests != 3200 {
		t.Fatalf("served %d of 3200", res.Stats.Requests)
	}
	if res.Stats.Lat.Mean() <= float64(costRead) {
		t.Fatalf("closed-loop mean latency %.1f does not include queueing", res.Stats.Lat.Mean())
	}
}

// TestReplayScanCoalesces: a scanning client stream on wide rows hits the
// open row repeatedly, so the executor must report coalesced service.
func TestReplayScanCoalesces(t *testing.T) {
	res := replayOnce(t, 4, TraceOpts{
		Mode: "open", Mix: "scan", Requests: 2000, Width: 30, Rate: 2, Clients: 2, Seed: 17,
	}, ReplayConfig{})
	if res.Stats.Coalesced == 0 {
		t.Fatal("scan stream never coalesced")
	}
	if res.Stats.Coalesced < res.Stats.Requests/10 {
		t.Fatalf("scan coalesced only %d of %d", res.Stats.Coalesced, res.Stats.Requests)
	}
}

// TestGenTraceDeterministicAndBankConfined: the trace is a pure function
// of (org, opts), requests stay inside their bank, and arrival times are
// non-decreasing per bank.
func TestGenTraceDeterministicAndBankConfined(t *testing.T) {
	org := mmpu.Custom(90, 16, 2)
	bankBits := int64(2) * 90 * 90
	for _, mode := range ModeNames() {
		for _, mix := range MixNames() {
			o := TraceOpts{Mode: mode, Mix: mix, Requests: 800, Width: 32, Seed: 42}
			a, err := GenTrace(org, o)
			if err != nil {
				t.Fatal(err)
			}
			b, err := GenTrace(org, o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s/%s: trace not deterministic", mode, mix)
			}
			if a.Requests() != 800 {
				t.Fatalf("%s/%s: generated %d requests", mode, mix, a.Requests())
			}
			for bank, reqs := range a.PerBank {
				lo, hi := int64(bank)*bankBits, int64(bank+1)*bankBits
				prev := int64(0)
				for _, tq := range reqs {
					if tq.Req.Addr < lo || tq.Req.Addr+int64(tq.Req.Width) > hi {
						t.Fatalf("%s/%s: request %+v leaks out of bank %d", mode, mix, tq.Req, bank)
					}
					if tq.At < prev {
						t.Fatalf("%s/%s: arrivals not sorted in bank %d", mode, mix, bank)
					}
					prev = tq.At
				}
			}
		}
	}
	if _, err := GenTrace(org, TraceOpts{Mix: "nope"}); err == nil {
		t.Fatal("unknown mix accepted")
	}
	if _, err := GenTrace(org, TraceOpts{Mode: "nope"}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := GenTrace(org, TraceOpts{Width: 70}); err == nil {
		t.Fatal("width 70 accepted")
	}
}

// TestReplayMatchesDirectMemoryState: replaying a write-only scan leaves
// the memory holding exactly the trace's data — the replay engine serves
// real storage, not a model of it.
func TestReplayMatchesDirectMemoryState(t *testing.T) {
	mem := testMem(t, 90, 15, 4, 1)
	org := mem.Config().Org
	tr, err := GenTrace(org, TraceOpts{
		Mode: "open", Mix: "scan", Requests: 400, Width: 32, WriteFrac: 1, Clients: 1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(ReplayConfig{Mem: mem, Workers: 2}, tr); err != nil {
		t.Fatal(err)
	}
	// Walk each bank's trace backwards so only the last write to any
	// overlapping span (bank-edge clamping can overlap spans) is checked.
	for _, reqs := range tr.PerBank {
		claimed := make(map[int64]bool)
		for i := len(reqs) - 1; i >= 0; i-- {
			tq := reqs[i]
			fresh := true
			for b := int64(0); b < int64(tq.Req.Width); b++ {
				if claimed[tq.Req.Addr+b] {
					fresh = false
				}
				claimed[tq.Req.Addr+b] = true
			}
			if !fresh {
				continue
			}
			got, err := mem.ReadWord(tq.Req.Addr, tq.Req.Width)
			if err != nil {
				t.Fatal(err)
			}
			want := tq.Req.Data & (1<<uint(tq.Req.Width) - 1)
			if got != want {
				t.Fatalf("addr %d holds %#x, trace wrote %#x", tq.Req.Addr, got, want)
			}
		}
	}
}
