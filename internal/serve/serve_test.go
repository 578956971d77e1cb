package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// while background scrubs run, at 1, 8, and 32 lanes. Every
// client must observe read-after-write consistency (a server response is
// the serialization point), and with no faults injected the scrubs must
// raise zero ECC alarms. Run under -race this also proves the lane and
// lock discipline.
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
// are owned by the starting bank's lane but write into the neighbor
// under pmem's locks — they must still round-trip while both banks'
// lanes serve other traffic.
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
// rotation: one lane serving one sequential client admits exactly one
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

// TestServerDoZeroAllocs pins the pooled completion path: once warm, a
// Do and a 64-request DoBatch allocate nothing, with telemetry off.
func TestServerDoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	mem := testMem(t, 45, 15, 4, 2)
	srv, err := New(Config{Mem: mem, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	slots := mem.Config().Org.DataBits() / 64
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{Op: OpRead, Addr: int64(i*7) % slots * 64, Width: 64}
		if i%3 == 0 {
			reqs[i] = Request{Op: OpWrite, Addr: reqs[i].Addr, Width: 64, Data: uint64(i)}
		}
	}
	resps := make([]Response, len(reqs))
	k := 0
	do := func() {
		if r := srv.Do(reqs[k%len(reqs)]); r.Err != nil {
			t.Fatal(r.Err)
		}
		k++
	}
	batch := func() {
		srv.DoBatch(reqs, resps)
		for _, r := range resps {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	for name, op := range map[string]func(){"Do": do, "DoBatch(64)": batch} {
		op()
		if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestDoBatchMatchesDo: one mixed DoBatch — reads, writes, row- and
// bank-spanning requests, an out-of-range address, width 0 and width 65
// — answers exactly as the same requests through sequential Do and
// leaves the same memory image, and only the two malformed requests
// fail. Requests that touch the same bits start in the same bank, so
// per-bank FIFO order fixes the outcome even with several lanes.
func TestDoBatchMatchesDo(t *testing.T) {
	const n, banks = 45, 4
	org := mmpu.Custom(n, banks, 1)
	bankEnd := org.BankBits()
	rowEnd := int64(n)
	reqs := []Request{
		{Op: OpWrite, Addr: 0, Width: 64, Data: 0x0123456789ABCDEF},
		{Op: OpRead, Addr: 0, Width: 64},
		{Op: OpWrite, Addr: rowEnd - 10, Width: 30, Data: 0x2AAAAAAA},      // crosses a row end
		{Op: OpRead, Addr: rowEnd - 10, Width: 30},                         // reads the spanning write
		{Op: OpWrite, Addr: bankEnd - 20, Width: 48, Data: 0xFEDCBA987654}, // crosses into bank 1
		{Op: OpRead, Addr: bankEnd - 20, Width: 48},                        // same span, same lane
		{Op: OpRead, Addr: org.DataBits(), Width: 8},                       // outside the memory
		{Op: OpRead, Addr: 2 * bankEnd, Width: 0},                          // width 0
		{Op: OpWrite, Addr: 2*bankEnd + 64, Width: 65, Data: 1},            // width 65
		{Op: OpWrite, Addr: 3*bankEnd + 100, Width: 17, Data: 0x1FFFF},     // last bank
		{Op: OpRead, Addr: 3*bankEnd + 100, Width: 17},                     // sees it
		{Op: OpRead, Addr: 3*bankEnd + 90, Width: 40},                      // overlaps it
		{Op: OpWrite, Addr: 2*bankEnd + 7, Width: 9, Data: 0x155},          // beside the bad ones
		{Op: OpRead, Addr: 2*bankEnd + 7, Width: 9},
	}
	bad := map[int]bool{6: true, 8: true} // width 0 is a valid no-op
	serveWith := func(batch bool) ([]Response, []uint64) {
		mem, err := pmem.New(pmem.Config{Org: org, M: 15, K: 2, ECCEnabled: true})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Mem: mem, Workers: banks})
		if err != nil {
			t.Fatal(err)
		}
		resps := make([]Response, len(reqs))
		if batch {
			srv.DoBatch(reqs, resps)
		} else {
			for i, r := range reqs {
				resps[i] = srv.Do(r)
			}
		}
		srv.Close()
		image, err := mem.ReadRange(0, org.DataBits())
		if err != nil {
			t.Fatal(err)
		}
		return resps, image
	}
	want, wantImage := serveWith(false)
	got, gotImage := serveWith(true)
	for i := range reqs {
		if (got[i].Err == nil) != (want[i].Err == nil) || got[i].Data != want[i].Data ||
			(got[i].Err != nil && got[i].Err.Error() != want[i].Err.Error()) {
			t.Errorf("request %d: DoBatch %+v, Do %+v", i, got[i], want[i])
		}
		if (got[i].Err != nil) != bad[i] {
			t.Errorf("request %d: error %v, want failure %v", i, got[i].Err, bad[i])
		}
	}
	if !errors.Is(got[8].Err, pmem.ErrSpan) {
		t.Errorf("width 65: %v, want ErrSpan", got[8].Err)
	}
	if got[1].Data != 0x0123456789ABCDEF || got[3].Data != 0x2AAAAAAA || got[5].Data != 0xFEDCBA987654 {
		t.Errorf("batched reads missed the batch's writes: %+v", got[:6])
	}
	if !slices.Equal(gotImage, wantImage) {
		t.Error("DoBatch left a different memory image than sequential Do")
	}
}

// TestServerStartsNoGoroutines: every round runs on a submitter's
// goroutine, so building a server, serving a Do and a DoBatch across both
// lanes, and closing it starts no goroutine. Goroutines an earlier test
// left exiting may lower the count meanwhile, never raise it.
func TestServerStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	mem := testMem(t, 45, 15, 4, 1)
	srv, err := New(Config{Mem: mem, Workers: 2, ScrubEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if srv.EffectiveWorkers() != 2 {
		t.Fatalf("%d lanes, want 2", srv.EffectiveWorkers())
	}
	if err := srv.Write(0, 32, 0xC0FFEE); err != nil {
		t.Fatal(err)
	}
	far := 3 * mem.Config().Org.BankBits() // bank 3, on the second lane
	reqs := []Request{
		{Op: OpWrite, Addr: far, Width: 16, Data: 0xBEEF},
		{Op: OpRead, Addr: 0, Width: 32},
		{Op: OpRead, Addr: far, Width: 16},
	}
	resps := make([]Response, len(reqs))
	srv.DoBatch(reqs, resps)
	if resps[1].Data != 0xC0FFEE || resps[2].Data != 0xBEEF {
		t.Fatalf("cross-lane batch read %+v", resps)
	}
	during := runtime.NumGoroutine()
	st := srv.Close()
	after := runtime.NumGoroutine()
	if during > before || after > before {
		t.Fatalf("goroutines: %d before, %d while serving, %d after Close", before, during, after)
	}
	if st.Requests != 4 || st.Scrubs == 0 {
		t.Fatalf("served %d requests and %d scrubs, want 4 and some", st.Requests, st.Scrubs)
	}
}

// TestLaneHandoff drives the lane protocol through its hand-offs: eight
// callers on two lanes with four-request rounds, every batch writing
// slots of its own on both lanes and reading them back, and every other
// caller adding a compute on bank 0 that a one-cycle admission budget
// holds over, so lanes pass between submitters both from their queues and
// through held computes. Every DoBatch must return within the deadline: a
// lost hand-off strands its waiters, which fails the test rather than
// hanging it. Afterwards every lane is idle with nothing queued or held.
// With one P a submitter would rarely be preempted mid-round, so the test
// runs on at least two.
func TestLaneHandoff(t *testing.T) {
	const (
		callers  = 8
		batches  = 40
		deadline = 10 * time.Second
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	mem := testMem(t, 90, 15, 8, 2)
	org := mem.Config().Org
	plan, err := BuildComputePlan("search", org.CrossbarN, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Mem: mem, Workers: 2, BatchSize: 4, ScrubEvery: 16, ComputeAdmit: 1})
	if err != nil {
		t.Fatal(err)
	}
	var inside [callers]atomic.Int64 // when the caller entered its DoBatch (unix ns); 0 outside
	var wg sync.WaitGroup
	errCh := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var reqs []Request
			var resps []Response
			for k := 0; k < batches; k++ {
				reqs = reqs[:0]
				if g%2 == 0 {
					reqs = append(reqs, Request{Op: OpCompute, Addr: 0, Plan: plan})
				}
				// Three slots on banks 1..7, away from the compute's
				// scratch rows: banks 1–3 are the first lane's, 4–7 the
				// second's.
				for i := 0; i < 3; i++ {
					bank := 1 + (g+k+3*i)%7
					addr := int64(bank)*org.BankBits() + int64(3*g+i)*64
					v := uint64(g)<<32 | uint64(k)<<8 | uint64(i)
					reqs = append(reqs, Request{Op: OpWrite, Addr: addr, Width: 64, Data: v},
						Request{Op: OpRead, Addr: addr, Width: 64})
				}
				resps = slices.Grow(resps[:0], len(reqs))[:len(reqs)]
				inside[g].Store(time.Now().UnixNano())
				srv.DoBatch(reqs, resps)
				inside[g].Store(0)
				for i, r := range resps {
					switch {
					case r.Err != nil:
						errCh <- fmt.Errorf("caller %d batch %d request %d: %v", g, k, i, r.Err)
						return
					case reqs[i].Op == OpRead && r.Data != reqs[i-1].Data:
						errCh <- fmt.Errorf("caller %d batch %d: read %#x after writing %#x", g, k, r.Data, reqs[i-1].Data)
						return
					}
				}
			}
		}(g)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	watch := time.NewTicker(20 * time.Millisecond)
	defer watch.Stop()
	for waiting := true; waiting; {
		select {
		case <-finished:
			waiting = false
		case now := <-watch.C:
			for g := range inside {
				if t0 := inside[g].Load(); t0 != 0 && now.Sub(time.Unix(0, t0)) > deadline {
					t.Fatalf("caller %d has waited in DoBatch for over %v: a lane hand-off was lost", g, deadline)
				}
			}
		}
	}
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	for i, ln := range srv.lanes {
		ln.mu.Lock()
		serving, queued, held := ln.serving, len(ln.queue), len(ln.core.held)
		ln.mu.Unlock()
		if serving || queued != 0 || held != 0 {
			t.Fatalf("lane %d after the run: serving %v, %d queued, %d held", i, serving, queued, held)
		}
	}
	st := srv.Close()
	const computes = callers / 2 * batches
	if want := int64(callers*batches*6 + computes); st.Requests != want || st.Computes != computes || st.Errors != 0 {
		t.Fatalf("served %d requests (%d computes, %d errors), want %d (%d computes)", st.Requests, st.Computes, st.Errors, want, computes)
	}
	if c, u := mem.ScrubAll(); c != 0 || u != 0 {
		t.Fatalf("scrub after the run: corrected %d, uncorrectable %d", c, u)
	}
}
