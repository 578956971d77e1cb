package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mmpu"
	"repro/internal/pmem"
	"repro/internal/telemetry"
)

// testMem builds a fresh protected memory for serving tests.
func testMem(t testing.TB, n, m, banks, perBank int) *pmem.Memory {
	t.Helper()
	mem, err := pmem.New(pmem.Config{
		Org: mmpu.Custom(n, banks, perBank), M: m, K: 2, ECCEnabled: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

// TestServeRaceStress is the concurrency proof of the serving layer: N
// client goroutines hammer reads and writes over disjoint address sets
// while background scrubs run, at 1, 8, and 32 bank workers. Every
// client must observe read-after-write consistency (a server response is
// the serialization point), and with no faults injected the scrubs must
// raise zero ECC alarms. Run under -race this also proves the
// channel/lock discipline.
func TestServeRaceStress(t *testing.T) {
	const (
		clients = 8
		iters   = 120
		width   = 37 // word-unaligned, crosses row boundaries
	)
	for _, workers := range []int{1, 8, 32} {
		mem := testMem(t, 45, 15, 32, 1)
		total := mem.Config().Org.DataBits()
		srv, err := New(Config{Mem: mem, Workers: workers, ScrubEvery: 16, BatchSize: 8})
		if err != nil {
			t.Fatal(err)
		}
		span := total / clients
		var wg sync.WaitGroup
		errCh := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(1000 + c)))
				base := int64(c) * span
				for k := 0; k < iters; k++ {
					// Stride through the client's region, including spots
					// that straddle crossbar (= bank, PerBank 1) boundaries.
					addr := base + int64(k)*97%max64(span-width, 1)
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
						errCh <- fmt.Errorf("workers=%d client=%d addr=%d: read %#x after writing %#x", workers, c, addr, got, want)
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
		if st.Requests != clients*iters*2 {
			t.Fatalf("workers=%d: served %d of %d requests", workers, st.Requests, clients*iters*2)
		}
		if st.Errors != 0 {
			t.Fatalf("workers=%d: %d request errors", workers, st.Errors)
		}
		if st.Scrubs == 0 {
			t.Fatalf("workers=%d: background scrubs never ran", workers)
		}
		// Zero ECC false alarms: nothing injected faults, so nothing may
		// be "corrected" and nothing may be uncorrectable.
		if st.Corrected != 0 || st.Uncorrectable != 0 {
			t.Fatalf("workers=%d: ECC false alarms: corrected=%d uncorrectable=%d",
				workers, st.Corrected, st.Uncorrectable)
		}
		if st.Lat.N != st.Requests {
			t.Fatalf("workers=%d: %d latencies for %d requests", workers, st.Lat.N, st.Requests)
		}
		// The quiesced memory is fully ECC-consistent.
		for i := 0; i < mem.Config().Org.Crossbars(); i++ {
			if !mem.Crossbar(i).CheckConsistent() {
				t.Fatalf("workers=%d: crossbar %d inconsistent after serving", workers, i)
			}
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestServerCrossBankSpans: requests whose span crosses a bank boundary
// are owned by the starting bank's worker but write into the neighbor
// under pmem's locks — they must still round-trip while both banks'
// workers serve other traffic.
func TestServerCrossBankSpans(t *testing.T) {
	mem := testMem(t, 45, 15, 4, 1)
	per := int64(45 * 45)
	srv, err := New(Config{Mem: mem, Workers: 4, ScrubEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			addr := int64(c+1)*per - 31 // straddles into bank c+1 (wraps: last clamps)
			if c == 3 {
				addr = 4*per - 64
			}
			for k := 0; k < 60; k++ {
				want := uint64(k)<<32 | uint64(c)
				if err := srv.Write(addr, 64, want); err != nil {
					t.Error(err)
					return
				}
				got, err := srv.Read(addr, 64)
				if err != nil || got != want {
					t.Errorf("c=%d k=%d: got %#x, %v, want %#x", c, k, got, err, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

func TestServerValidatesRequests(t *testing.T) {
	mem := testMem(t, 45, 15, 2, 1)
	srv, err := New(Config{Mem: mem, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(Request{Op: OpRead, Addr: -1, Width: 8}); err == nil {
		t.Fatal("negative address accepted")
	}
	if _, err := srv.Submit(Request{Op: OpRead, Addr: mem.Config().Org.DataBits(), Width: 8}); err == nil {
		t.Fatal("out-of-range address accepted")
	}
	if _, err := srv.Read(0, 65); !errors.Is(err, pmem.ErrSpan) {
		t.Fatalf("width 65 error = %v, want ErrSpan", err)
	}
	if err := srv.Write(0, -1, 0); !errors.Is(err, pmem.ErrSpan) {
		t.Fatalf("negative width error = %v, want ErrSpan", err)
	}
	st := srv.Close()
	if st.Errors != 2 {
		t.Fatalf("error tally = %d, want 2", st.Errors)
	}
	if _, err := srv.Submit(Request{Op: OpRead, Addr: 0, Width: 8}); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("post-close submit error = %v, want ErrServerClosed", err)
	}
	if st2 := srv.Close(); st2.Requests != st.Requests {
		t.Fatal("second Close diverged")
	}
}

// TestServerScrubBudgetAndRotation pins the live scrub trigger and the
// rotation: one worker serving one sequential client admits exactly one
// scrub per ScrubEvery requests, visiting its crossbars bank-major —
// (0,0), (0,1), (1,0), (1,1), then around again.
func TestServerScrubBudgetAndRotation(t *testing.T) {
	const every, reqs = 8, 100
	mem := testMem(t, 45, 15, 2, 2)
	reg := telemetry.New()
	srv, err := New(Config{Mem: mem, Workers: 1, ScrubEvery: every, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < reqs; k++ {
		if err := srv.Write(int64(k%40)*64, 64, uint64(k)); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Close()
	if st.Scrubs != reqs/every {
		t.Fatalf("admitted %d scrubs for %d requests at ScrubEvery %d, want %d", st.Scrubs, reqs, every, reqs/every)
	}
	var visits [][2]int32
	for _, e := range reg.Events().Recent(0) {
		if e.Kind == telemetry.EvAdmission {
			visits = append(visits, [2]int32{e.Bank, e.Xbar})
		}
	}
	if len(visits) != reqs/every {
		t.Fatalf("%d admission events for %d scrubs", len(visits), reqs/every)
	}
	for i, v := range visits {
		if want := [2]int32{int32(i / 2 % 2), int32(i % 2)}; v != want {
			t.Fatalf("scrub %d visited (bank, xbar) %v, want %v", i, v, want)
		}
	}
}

// TestExecutorCoalescesSameRowRuns pins the row-buffer behavior at the
// executor level, where it is deterministic: consecutive same-row
// requests share one activation, reads see the group's earlier writes,
// and a row change breaks the run.
func TestExecutorCoalescesSameRowRuns(t *testing.T) {
	mem := testMem(t, 45, 15, 2, 2)
	ex := executor{mem: mem, org: mem.Config().Org}
	reqs := []Request{
		{Op: OpWrite, Addr: 0, Width: 16, Data: 0xBEEF},
		{Op: OpRead, Addr: 0, Width: 16},            // same row, coalesced, sees the write
		{Op: OpWrite, Addr: 20, Width: 16, Data: 7}, // same row, coalesced
		{Op: OpRead, Addr: 45, Width: 16},           // next row: new activation
		{Op: OpRead, Addr: 40, Width: 10},           // crosses rows: spanning
		{Op: OpRead, Addr: 0, Width: 16},            // back to row 0: new activation
	}
	var got []execInfo
	var resps []Response
	ex.run(reqs, func(i int, resp Response, info execInfo) {
		if i != len(got) {
			t.Fatalf("emission out of order: got %d, want %d", i, len(got))
		}
		got = append(got, info)
		resps = append(resps, resp)
	})
	wantCoal := []bool{false, true, true, false, false, false}
	wantSegs := []int{1, 1, 1, 1, 2, 1}
	for i := range reqs {
		if resps[i].Err != nil {
			t.Fatalf("req %d: %v", i, resps[i].Err)
		}
		if got[i].coalesced != wantCoal[i] || got[i].segments != wantSegs[i] {
			t.Fatalf("req %d: info %+v, want coalesced=%v segments=%d", i, got[i], wantCoal[i], wantSegs[i])
		}
	}
	if resps[1].Data != 0xBEEF {
		t.Fatalf("coalesced read missed the group's write: %#x", resps[1].Data)
	}
	if resps[5].Data != 0xBEEF {
		t.Fatalf("committed row lost the write: %#x", resps[5].Data)
	}
}

// TestExecutorCoalescedGroupZeroAllocs: a coalesced group reuses the
// executor's column and response scratch, so serving it allocates
// nothing once the scratch has grown to the group's size.
func TestExecutorCoalescedGroupZeroAllocs(t *testing.T) {
	mem := testMem(t, 45, 15, 2, 2)
	ex := executor{mem: mem, org: mem.Config().Org}
	reqs := []Request{
		{Op: OpWrite, Addr: 0, Width: 16, Data: 0xBEEF},
		{Op: OpRead, Addr: 0, Width: 16},
		{Op: OpWrite, Addr: 20, Width: 16, Data: 7},
		{Op: OpRead, Addr: 20, Width: 16},
	}
	var sum uint64
	emit := func(_ int, resp Response, info execInfo) { sum += resp.Data }
	if allocs := testing.AllocsPerRun(100, func() { ex.run(reqs, emit) }); allocs != 0 {
		t.Fatalf("coalesced group: %v allocs/run, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("the group's reads returned nothing")
	}
}
