package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/pmem"
	"repro/internal/serve"
	"repro/internal/shifter"
)

var update = flag.Bool("update", false, "rewrite testdata/replay_scrub_seed1.json from a full seed-1 replay")

// smokeConfig runs a workload for about half a second: a short warm-up
// and timed phase, two set-ups and a short replay trace.
func smokeConfig(seed int64) runConfig {
	return runConfig{seed: seed, warmup: 100 * time.Millisecond, timed: 500 * time.Millisecond,
		setups: 2, replayRequests: 20_000}
}

// benchmarkJSON is the part of BENCHMARK.json the metric names must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// sameMetrics checks that a run's metrics are exactly the listed ones,
// with the listed units.
func sameMetrics(t *testing.T, what string, ms []metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(ms) != len(want) {
		t.Fatalf("%s: %d metrics, BENCHMARK.json lists %d", what, len(ms), len(want))
	}
	for i, m := range ms {
		if m.Name != want[i].Name || m.Unit != want[i].Unit {
			t.Errorf("%s metric %d: %s [%s], BENCHMARK.json lists %s [%s]",
				what, i, m.Name, m.Unit, want[i].Name, want[i].Unit)
		}
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, b.Workloads[i].Name, w.name)
		}
	}
}

// TestWorkloadsSmoke runs every workload's traced path briefly — an
// untraced half, a traced half and the ladder — and checks that all
// checks pass and the metrics are exactly BENCHMARK.json's.
func TestWorkloadsSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "spans.json")
			layer, res, err := tracedRun(w, smokeConfig(7), out, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.problems) > 0 || res.failed > 0 || res.attempted == 0 {
				t.Fatalf("attempted %d, failed %d, problems %q", res.attempted, res.failed, res.problems)
			}
			sameMetrics(t, "per-layer", layer, b.PerLayer)
			e2e, err := fill(endToEnd, endToEndValues(res))
			if err != nil {
				t.Fatal(err)
			}
			sameMetrics(t, "end-to-end", e2e, b.EndToEnd)
			for _, m := range e2e {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, m.Value)
				}
			}
			checkSpanFile(t, out, w.name)
		})
	}
}

// checkSpanFile checks the spans are self-describing and the set-up
// steps are among them.
func checkSpanFile(t *testing.T, path, workload string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc spanFile
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range doc.Spans {
		names[s.Name] = true
		if s.ID == 0 || s.Layer == "" || s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Fatalf("malformed span %+v", s)
		}
	}
	want := map[string][]string{
		"serve-rw":      {"setup.pmem_new", "setup.server_start", "serve.Server.Do"},
		"fleet-read":    {"setup.nodes_start", "setup.dial_check", "setup.preload", "netfleet.Fleet.Do"},
		"serve-compute": {"setup.pmem_new", "setup.plan_build", "serve.Server.Do(compute)"},
		"replay-scrub":  {"setup.pmem_new", "setup.trace_gen", "serve.Replay"},
	}[workload]
	want = append(want, "setup", "timed", "ladder", "ladder.serve.do_ns", "ladder.netfleet.batch64_us")
	for _, n := range want {
		if !names[n] {
			t.Errorf("no %s span in %s", n, path)
		}
	}
}

// TestReplayGoldenSeed1 replays the full seed-1 trace once and compares
// its modeled outcome with the committed golden (-update rewrites it).
func TestReplayGoldenSeed1(t *testing.T) {
	if testing.Short() {
		t.Skip("full 400,000-request replay")
	}
	cfg := runConfig{seed: 1, setups: 1, replayRequests: replayRequests}
	if *update {
		mem, err := pmem.New(memCfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := serve.GenTrace(org, replayOpts(cfg))
		if err != nil {
			t.Fatal(err)
		}
		out, err := serve.Replay(replayConfig(cfg, mem, nil), tr)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := json.MarshalIndent(modelOf(out), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join("testdata", "replay_scrub_seed1.json"), append(doc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skip("golden rewritten; run again without -update")
	}
	res, err := runReplayScrub(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) > 0 || res.failed > 0 {
		t.Fatalf("failed %d, problems %q", res.failed, res.problems)
	}
}

// The negative tests break an output on purpose and require the check
// that guards it to fail, so no check passes vacuously.

func TestReadChecksCatchCorruption(t *testing.T) {
	sys, err := newServeSys(smokeConfig(1), 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	shadow := make([]uint64, numSlots)
	slots := stripe(0)[:200]
	for i, s := range slots {
		shadow[s] = uint64(i)*0x9e3779b97f4a7c15 + 1
		if err := sys.srv.Write(s*slotBits, slotBits, shadow[s]); err != nil {
			t.Fatal(err)
		}
	}
	batch := func(reqs []serve.Request) []serve.Response { return submitAll(sys.srv, reqs) }
	if _, failed, probs := readBack(batch, slots, shadow); failed != 0 {
		t.Fatalf("clean read-back failed: %q", probs)
	}
	shadow[slots[17]] ^= 1 << 40
	if _, failed, _ := readBack(batch, slots, shadow); failed != 1 {
		t.Fatalf("read-back against a corrupted shadow value reported %d failures, want 1", failed)
	}

	// The live client's per-read check: a server answering one wrong bit
	// must fail the client.
	flaky := func(r serve.Request) serve.Response {
		resp := sys.srv.Do(r)
		if r.Op == serve.OpRead {
			resp.Data ^= 1
		}
		return resp
	}
	e := &env{}
	c := rwClient(e, flaky, slots, shadow, clientRand(1, 0))
	var tl clientTally
	c(time.Now().Add(20*time.Millisecond), &tl)
	if tl.attempted == 0 || tl.failed != tl.attempted/2 {
		t.Fatalf("client attempted %d, failed %d: every read should fail", tl.attempted, tl.failed)
	}
}

func TestFleetReadBackCatchesCorruption(t *testing.T) {
	fs, err := newFleetSys(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.close()
	shadow, err := fs.preload(3)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int64, numSlots)
	for i := range all {
		all[i] = int64(i)
	}
	if _, failed, probs := readBack(fs.f.Do, all, shadow); failed != 0 {
		t.Fatalf("clean fleet read-back failed: %q", probs)
	}
	shadow[numSlots-1] ^= 1
	if _, failed, _ := readBack(fs.f.Do, all, shadow); failed != 1 {
		t.Fatalf("fleet read-back against a corrupted shadow value reported %d failures, want 1", failed)
	}
	if probs := fs.audit(); len(probs) > 0 {
		t.Fatalf("audit of a clean fleet: %q", probs)
	}
}

func TestCheckMemoryCatchesFlippedCells(t *testing.T) {
	for _, tc := range []struct {
		name string
		flip func(*serveSys)
	}{
		{"data cell", func(s *serveSys) { s.mem.Crossbar(5).InjectDataFault(40, 41) }},
		{"check bit", func(s *serveSys) { s.mem.Crossbar(9).InjectCheckFault(shifter.Counter, 3, 2, 4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := newServeSys(smokeConfig(1), 0, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			for s := int64(0); s < numSlots; s += 7 {
				if err := sys.srv.Write(s*slotBits, slotBits, uint64(s)*0xdeadbeef); err != nil {
					t.Fatal(err)
				}
			}
			sys.close()
			if probs := checkMemory(sys.mem); len(probs) > 0 {
				t.Fatalf("clean memory: %q", probs)
			}
			tc.flip(sys)
			if probs := checkMemory(sys.mem); len(probs) == 0 {
				t.Fatal("a cell flipped after the run passed the memory check")
			}
		})
	}
}

func TestReplayChecksCatchBrokenInvariants(t *testing.T) {
	cfg := smokeConfig(2)
	mem, err := pmem.New(memCfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := serve.GenTrace(org, replayOpts(cfg))
	if err != nil {
		t.Fatal(err)
	}
	out, err := serve.Replay(replayConfig(cfg, mem, nil), tr)
	if err != nil {
		t.Fatal(err)
	}
	if probs := checkReplay(out, tr); len(probs) > 0 {
		t.Fatalf("clean replay: %q", probs)
	}
	first := modelOf(out)
	for name, breakIt := range map[string]func(*serve.Result){
		"lost request":    func(r *serve.Result) { r.Stats.Requests-- },
		"bank sum":        func(r *serve.Result) { r.PerBank[3].Requests++ },
		"makespan":        func(r *serve.Result) { r.Ticks++ },
		"idle fault path": func(r *serve.Result) { r.Stats.Corrected = 0 },
	} {
		bad := out
		bad.PerBank = append([]serve.BankLoad(nil), out.PerBank...)
		breakIt(&bad)
		if len(checkReplay(bad, tr)) == 0 {
			t.Errorf("%s passed checkReplay", name)
		}
	}
	moved := first
	moved.Batches++
	if len(checkModel(cfg, moved, &first)) == 0 {
		t.Error("a moved model count passed the repeat check")
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs(strings.Fields("--workload serve-rw --seed 3 --seconds 10 --trace 0"))
	want := strings.Fields("--workload serve-rw --seed 3 --seconds 10 --trace=0")
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("got %q, want %q", got, want)
	}
	if got := normalizeArgs([]string{"-trace", "-workload", "x"}); strings.Join(got, " ") != "-trace -workload x" {
		t.Fatalf("bare -trace rewritten: %q", got)
	}
}

func TestUsageErrorsPrintNoResult(t *testing.T) {
	for _, args := range [][]string{{}, {"-workload", "nope"}, {"-workload", "serve-rw", "-seconds", "0"}} {
		var out strings.Builder
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestNearestRank(t *testing.T) {
	xs := []int64{50, 10, 40, 20, 30}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 30}, {0.99, 50}, {0.2, 10}, {0.21, 20}} {
		if got := nearestRank(xs, tc.q); got != tc.want {
			t.Errorf("q=%v: %d, want %d", tc.q, got, tc.want)
		}
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past its parent
	}
	selfTimes(spans)
	if got := spans[0].Self; got != 100-50-10 {
		t.Fatalf("parent self %d, want 40", got)
	}
	if spans[1].Self != 30 {
		t.Fatalf("leaf self %d, want its duration 30", spans[1].Self)
	}
}
