package serve

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/mmpu"
	"repro/internal/pmem"
	"repro/internal/repair"
)

// testMemRepair builds a protected memory with the self-healing layer on.
func testMemRepair(t testing.TB, n, m, banks, perBank, spares int) *pmem.Memory {
	return testMemRepairScheme(t, "", n, m, banks, perBank, spares)
}

// testMemRepairScheme is testMemRepair with an explicit protection scheme
// ("" selects the default diagonal code).
func testMemRepairScheme(t testing.TB, scheme string, n, m, banks, perBank, spares int) *pmem.Memory {
	t.Helper()
	mem, err := pmem.New(pmem.Config{
		Org: mmpu.Custom(n, banks, perBank), M: m, K: 2, ECCEnabled: true, Scheme: scheme,
		Repair: repair.Config{Policy: repair.VerifySpare, Spares: spares},
	})
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

// TestReplayRepairRetiresStuckOnline: with the stuck-at overlay selected
// and verify+spare active, replayed client writes hit re-asserting
// defects, write-verify catches them, and cells are retired online — with
// zero request errors while the spare budget holds. The whole run stays
// deterministic: two identical replays produce the same Result and the
// same repair tally.
func TestReplayRepairRetiresStuckOnline(t *testing.T) {
	topts := TraceOpts{Mode: "open", Mix: "uniform", Requests: 3000, WriteFrac: 0.7, Seed: 7}
	run := func(workers int) (Result, repair.Stats) {
		mem := testMemRepair(t, 45, 15, 8, 2, 64)
		tr, err := GenTrace(mem.Config().Org, topts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Replay(ReplayConfig{
			Mem: mem, Workers: workers, ScrubPeriod: 200,
			FaultSER: 1e5, FaultModel: "stuck1", Seed: 11,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res, mem.RepairStats()
	}
	for _, workers := range []int{1, 8} {
		res, rs := run(workers)
		if res.Stats.Injected == 0 {
			t.Fatalf("workers=%d: stuck overlay injected nothing", workers)
		}
		if rs.Retired == 0 {
			t.Fatalf("workers=%d: no cells retired despite stuck defects under write traffic (stats %+v)", workers, rs)
		}
		if rs.Exhausted > 0 {
			t.Fatalf("workers=%d: spare budget exhausted mid-test (stats %+v); raise spares", workers, rs)
		}
		if res.Stats.Errors != 0 {
			t.Fatalf("workers=%d: %d request errors within spare budget", workers, res.Stats.Errors)
		}
		if rs.VerifyReads == 0 || rs.Mismatches < rs.Retired {
			t.Fatalf("workers=%d: implausible repair tally %+v", workers, rs)
		}
		res2, rs2 := run(workers)
		if !reflect.DeepEqual(res, res2) || rs != rs2 {
			t.Fatalf("workers=%d: identical replays diverged (repair %+v vs %+v)", workers, rs, rs2)
		}
	}
}

// TestReplayRepairUnknownModelRejected: a bogus -faults-model name is a
// configuration error, not a silent fallback to the transient stream.
func TestReplayRepairUnknownModelRejected(t *testing.T) {
	mem := testMem(t, 45, 15, 2, 1)
	tr, err := GenTrace(mem.Config().Org, TraceOpts{Mode: "open", Requests: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(ReplayConfig{
		Mem: mem, FaultSER: 1e5, FaultModel: "nope", Seed: 1,
	}, tr); err == nil {
		t.Fatal("unknown fault model accepted")
	}
}

// TestServeRepairRetirementUnderTraffic is the live-server race proof of
// the self-healing layer: stuck-at defects are seeded into every
// crossbar, then client goroutines hammer read-after-write traffic while
// background scrubs run. Write-verify must retire the defects the clients
// trip over — racing the scrub's own retirement path — without ever
// breaking read-after-write consistency or surfacing an error while the
// spare budget holds. Run under -race this also proves the repair table's
// lock discipline against concurrently served lanes.
func TestServeRepairRetirementUnderTraffic(t *testing.T) {
	runServeRetirement(t, testMemRepair(t, 45, 15, 8, 1, 64))
}

// TestServeRepairRetirementNewSchemes runs the identical live-server race
// scenario over the DEC and interleaved backends (60×60: a geometry the
// interleave widths accept) — online retirement and the repair table's
// lock discipline must be scheme-independent.
func TestServeRepairRetirementNewSchemes(t *testing.T) {
	for _, scheme := range []string{"dec", "diagonal-x4"} {
		t.Run(scheme, func(t *testing.T) {
			runServeRetirement(t, testMemRepairScheme(t, scheme, 60, 15, 8, 1, 64))
		})
	}
}

func runServeRetirement(t *testing.T, mem *pmem.Memory) {
	const (
		clients = 8
		iters   = 150
		width   = 41 // word-unaligned, crosses row boundaries
	)
	org := mem.Config().Org
	model, err := faults.ModelByName("stuck1", 3e5)
	if err != nil {
		t.Fatal(err)
	}
	seeded := 0
	org.ForEachCrossbar(func(bank, xb int) {
		rng := rand.New(rand.NewSource(faults.DeriveSeed(99, bank, xb)))
		seeded += mem.InjectModel(bank, xb, model, rng, 1)
	})
	if seeded == 0 {
		t.Fatal("no stuck defects seeded")
	}

	srv, err := New(Config{Mem: mem, Workers: 8, ScrubEvery: 12, BatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	total := org.DataBits()
	span := total / clients
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + c)))
			base := int64(c) * span
			for k := 0; k < iters; k++ {
				addr := base + int64(k)*89%max64(span-width, 1)
				want := rng.Uint64() & (1<<width - 1)
				if err := srv.Write(addr, width, want); err != nil {
					errCh <- err
					return
				}
				got, err := srv.Read(addr, width)
				if err != nil {
					errCh <- err
					return
				}
				if got != want {
					errCh <- fmt.Errorf("client=%d addr=%d: read %#x after writing %#x past a stuck cell", c, addr, got, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := srv.Close()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st.Errors != 0 {
		t.Fatalf("%d request errors within spare budget", st.Errors)
	}
	if st.Scrubs == 0 {
		t.Fatal("background scrubs never ran")
	}
	rs := mem.RepairStats()
	if rs.Retired == 0 {
		t.Fatalf("no cells retired under live traffic (seeded %d defect cells, stats %+v)", seeded, rs)
	}
	if rs.Exhausted > 0 {
		t.Fatalf("spare budget exhausted mid-test (stats %+v); raise spares", rs)
	}
}
