package serve

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/mmpu"
	"repro/internal/pmem"
)

// computeMix is the two-tenant contention scenario the admission tests
// share: an interactive read/write tenant and a compute-only batch tenant.
var computeMix = []TenantMix{
	{Name: "client", ReadFrac: 50, WriteFrac: 50},
	{Name: "batch", ComputeFrac: 100},
}

// TestComputeKernels proves every advertised kernel builds a runnable
// plan at the paper geometry (n=90): positive latency, at least one
// critical op, and a full row set.
func TestComputeKernels(t *testing.T) {
	for _, name := range ComputeKernelNames() {
		plan, err := BuildComputePlan(name, 90, 1)
		if err != nil {
			// Kernels wider than the crossbar are allowed to refuse mapping;
			// they must do so loudly, not panic or mis-map.
			t.Logf("kernel %s: %v (unmappable at n=90)", name, err)
			continue
		}
		if plan.Kernel != name || plan.Mapping == nil || plan.Rows == nil {
			t.Fatalf("kernel %s: incomplete plan %+v", name, plan)
		}
		if plan.Mapping.Latency() <= 0 || plan.Mapping.CriticalOps() <= 0 {
			t.Fatalf("kernel %s: degenerate mapping (latency %d, critical %d)",
				name, plan.Mapping.Latency(), plan.Mapping.CriticalOps())
		}
	}
	if _, err := BuildComputePlan("no-such-kernel", 90, 1); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

// TestParseTenants covers the spec grammar and its rejections.
func TestParseTenants(t *testing.T) {
	mixes, err := ParseTenants("client=50/50/0, batch=0/0/100")
	if err != nil {
		t.Fatal(err)
	}
	if len(mixes) != 2 || mixes[0].Name != "client" || mixes[1].Name != "batch" {
		t.Fatalf("parsed %+v", mixes)
	}
	if mixes[1].ComputeFrac <= 0 {
		t.Fatalf("batch compute weight lost: %+v", mixes[1])
	}
	for _, bad := range []string{
		"noequals", "=1/1/1", "a=1/1", "a=1/1/1/1", "a=x/1/1", "a=-1/1/1",
		"a=0/0/0", "a=1/1/1,a=1/1/1",
	} {
		if _, err := ParseTenants(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
	if mixes, err := ParseTenants(""); err != nil || mixes != nil {
		t.Fatalf("empty spec: %v, %+v", err, mixes)
	}
}

// TestMultiTenantReplayDeterministic extends the replay determinism
// contract to compute traffic: at 1, 8, and 32 workers a multi-tenant
// trace with admission control replays byte-identically from the seed,
// and the *served traffic* — total and per-tenant op counts — is
// invariant across worker counts (only queueing may move).
func TestMultiTenantReplayDeterministic(t *testing.T) {
	topts := TraceOpts{
		Mode: "open", Mix: "uniform", Requests: 3000, Clients: 6, Seed: 7,
		Tenants: []TenantMix{
			{Name: "client", ReadFrac: 60, WriteFrac: 30},
			{Name: "etl", ReadFrac: 20, WriteFrac: 20, ComputeFrac: 10},
			{Name: "batch", ComputeFrac: 100},
		},
	}
	rcfg := ReplayConfig{ScrubPeriod: 500, ComputeAdmit: 700}
	var ref Result
	for i, workers := range []int{1, 8, 32} {
		a := replayOnce(t, workers, topts, rcfg)
		b := replayOnce(t, workers, topts, rcfg)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("workers=%d: replay not reproducible", workers)
		}
		if a.Stats.Errors != 0 {
			t.Fatalf("workers=%d: %d errors", workers, a.Stats.Errors)
		}
		if len(a.Stats.Tenants) != 3 {
			t.Fatalf("workers=%d: %d tenant blocks", workers, len(a.Stats.Tenants))
		}
		if i == 0 {
			ref = a
			continue
		}
		if a.Stats.Requests != ref.Stats.Requests || a.Stats.Computes != ref.Stats.Computes {
			t.Fatalf("workers=%d: served traffic moved: %d/%d vs %d/%d computes",
				workers, a.Stats.Requests, a.Stats.Computes, ref.Stats.Requests, ref.Stats.Computes)
		}
		for j := range ref.Stats.Tenants {
			x, y := a.Stats.Tenants[j], ref.Stats.Tenants[j]
			if x.Name != y.Name || x.Requests != y.Requests || x.Reads != y.Reads ||
				x.Writes != y.Writes || x.Computes != y.Computes || x.Errors != y.Errors {
				t.Fatalf("workers=%d: tenant %q counts moved: %+v vs %+v", workers, x.Name, x, y)
			}
		}
	}
	if ref.Stats.Computes == 0 || ref.Stats.ComputeTicks == 0 {
		t.Fatalf("no compute served: %+v", ref.Stats)
	}
}

// TestStatsMergeUnevenTenants: merging tenant breakdowns of different
// lengths keeps every tenant, in either order, and leaves both inputs
// untouched.
func TestStatsMergeUnevenTenants(t *testing.T) {
	one := Stats{Requests: 3, Tenants: []TenantStats{{Name: "a", Requests: 3, Reads: 3}}}
	two := Stats{Requests: 5, Tenants: []TenantStats{{Name: "a", Requests: 1, Writes: 1}, {Name: "b", Requests: 4, Computes: 4}}}
	want := []TenantStats{{Name: "a", Requests: 4, Reads: 3, Writes: 1}, {Name: "b", Requests: 4, Computes: 4}}
	for _, m := range []Stats{one.Merge(two), two.Merge(one)} {
		if m.Requests != 8 || !reflect.DeepEqual(m.Tenants, want) {
			t.Fatalf("merge = %d requests, tenants %+v; want 8, %+v", m.Requests, m.Tenants, want)
		}
	}
	if one.Tenants[0].Requests != 3 || two.Tenants[0].Requests != 1 {
		t.Fatal("Merge mutated its inputs")
	}
}

// TestComputeStormECCConformance replays a compute-heavy mix (no fault
// overlay) under every registered protection scheme, then audits the
// memory: the critical-update protocol plus the post-pipeline reconcile
// must leave check bits consistent everywhere, so a full scrub finds
// nothing to correct.
func TestComputeStormECCConformance(t *testing.T) {
	for _, scheme := range []string{"diagonal", "hamming", "parity"} {
		t.Run(scheme, func(t *testing.T) {
			mem, err := pmem.New(pmem.Config{
				Org: mmpu.Custom(90, 8, 2), M: 15, K: 2, ECCEnabled: true, Scheme: scheme,
			})
			if err != nil {
				t.Fatal(err)
			}
			tr, err := GenTrace(mem.Config().Org, TraceOpts{
				Mode: "open", Mix: "uniform", Requests: 1200, Seed: 11,
				Tenants: computeMix,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Replay(ReplayConfig{Mem: mem, Workers: 8, ComputeAdmit: 600}, tr)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Errors != 0 || res.Stats.Computes == 0 {
				t.Fatalf("served %+v", res.Stats)
			}
			org := mem.Config().Org
			for i := 0; i < org.Banks*org.PerBank; i++ {
				if !mem.Crossbar(i).CheckConsistent() {
					t.Fatalf("crossbar %d inconsistent after compute storm", i)
				}
			}
			if c, u := mem.ScrubAll(); c != 0 || u != 0 {
				t.Fatalf("scrub after compute storm: corrected %d, uncorrectable %d", c, u)
			}
		})
	}
}

// TestAdmissionBoundsClientTail is the tentpole's SLO claim: with a
// compute-monopolizing tenant sharing banks with an interactive tenant,
// the admission budget bounds the client tail. FIFO (budget 0) lets
// client p99 absorb whole compute bursts; a budget two pipelines wide
// must cut it by at least an order of magnitude here.
func TestAdmissionBoundsClientTail(t *testing.T) {
	topts := TraceOpts{
		Mode: "open", Mix: "uniform", Requests: 4000, Clients: 8, Seed: 1,
		Tenants: computeMix,
	}
	clientP99 := func(admit int64) int64 {
		res := replayOnce(t, 8, topts, ReplayConfig{ComputeAdmit: admit})
		if res.Stats.Errors != 0 {
			t.Fatalf("admit=%d: %d errors", admit, res.Stats.Errors)
		}
		return res.Stats.Tenants[0].Lat.Summary().P99
	}
	fifo, bounded := clientP99(0), clientP99(400)
	if bounded*10 > fifo {
		t.Fatalf("admission did not protect the client tail: p99 %d (FIFO) vs %d (admit=400)",
			fifo, bounded)
	}
}

// TestServeComputeUnderClientTraffic is the live-path race proof for
// compute-as-traffic: client goroutines keep read-after-write
// consistency on banks 1..N while a compute tenant streams SIMD
// pipelines into bank 0 through the same lanes, under admission
// control. Run with -race this exercises the deferred-compute queue
// discipline; afterward the memory must scrub clean.
func TestServeComputeUnderClientTraffic(t *testing.T) {
	mem := testMem(t, 90, 15, 8, 2)
	org := mem.Config().Org
	plan, err := BuildComputePlan("search", org.CrossbarN, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Mem: mem, Workers: 2, BatchSize: 8, ScrubEvery: 64, ComputeAdmit: 900})
	if err != nil {
		t.Fatal(err)
	}
	const clients, iters = 4, 60
	var wg sync.WaitGroup
	errCh := make(chan error, clients+1)
	wg.Add(1)
	go func() { // the compute tenant, pinned to bank 0
		defer wg.Done()
		for k := 0; k < iters; k++ {
			r := srv.Do(Request{Op: OpCompute, Addr: 0, Plan: plan})
			if r.Err != nil {
				errCh <- r.Err
				return
			}
		}
	}()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) { // client tenants, on banks 1.. (away from the scratch region)
			defer wg.Done()
			base := int64(1+c) * org.BankBits()
			for k := 0; k < iters; k++ {
				addr := base + int64(k*61)
				want := uint64(k)*0x9e3779b9 + uint64(c)
				if err := srv.Write(addr, 32, want); err != nil {
					errCh <- err
					return
				}
				got, err := srv.Read(addr, 32)
				if err != nil {
					errCh <- err
					return
				}
				if got != want&(1<<32-1) {
					errCh <- fmt.Errorf("client %d: read-back mismatch at %d: got %x want %x",
						c, addr, got, want&(1<<32-1))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := srv.Close()
	if st.Computes != iters || st.Errors != 0 {
		t.Fatalf("served %d computes, %d errors", st.Computes, st.Errors)
	}
	if c, u := mem.ScrubAll(); c != 0 || u != 0 {
		t.Fatalf("scrub after live compute: corrected %d, uncorrectable %d", c, u)
	}
}

// TestServerSubmitCloseRace hammers Submit from many goroutines racing
// one Close: every submission must either serve normally or fail with
// the typed ErrServerClosed — never panic on a closed queue, never
// deadlock, never return a third kind of error. Run with -race this
// pins the lock discipline the error's doc comment promises.
func TestServerSubmitCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		mem := testMem(t, 45, 15, 4, 1)
		srv, err := New(Config{Mem: mem, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		const submitters = 8
		var wg sync.WaitGroup
		errCh := make(chan error, submitters)
		start := make(chan struct{})
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for k := 0; ; k++ {
					addr := int64((g*131 + k*37) % int(mem.Config().Org.DataBits()-64))
					ch, err := srv.Submit(Request{Op: OpRead, Addr: addr, Width: 32})
					if err != nil {
						if err != ErrServerClosed {
							errCh <- err
						}
						return
					}
					if r := <-ch; r.Err != nil {
						errCh <- r.Err
						return
					}
				}
			}(g)
		}
		close(start)
		srv.Close()
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestServerDoBatchCloseRace is the batch twin of the Submit race: DoBatch
// callers, each writing slots of its own and reading them back in the
// same batch, race one Close. A batch is queued whole or not at all:
// either every request serves normally, reads returning the batch's own
// writes, or every one fails with ErrServerClosed. No caller may block
// on a group whose calls never reach a lane.
func TestServerDoBatchCloseRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		mem := testMem(t, 45, 15, 4, 1)
		srv, err := New(Config{Mem: mem, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		const callers, slots, warmup = 8, 30, 10
		var wg sync.WaitGroup
		errCh := make(chan error, callers)
		warm := make(chan struct{}, callers) // one send per caller at most
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				reqs := make([]Request, 2*(1+g%4))
				resps := make([]Response, len(reqs))
				for k := 0; ; k++ {
					if k == warmup {
						warm <- struct{}{}
					}
					for i := 0; i < len(reqs); i += 2 {
						addr := int64(g*slots+(k+i)%slots) * 32
						v := uint64(g<<20 | k<<8 | i)
						reqs[i] = Request{Op: OpWrite, Addr: addr, Width: 32, Data: v}
						reqs[i+1] = Request{Op: OpRead, Addr: addr, Width: 32}
					}
					srv.DoBatch(reqs, resps)
					closed := 0
					for i, r := range resps {
						switch {
						case r.Err == ErrServerClosed:
							closed++
						case r.Err != nil:
							errCh <- r.Err
							return
						case reqs[i].Op == OpRead && r.Data != reqs[i-1].Data:
							errCh <- fmt.Errorf("caller %d batch %d: read %#x after writing %#x", g, k, r.Data, reqs[i-1].Data)
							return
						}
					}
					if closed > 0 {
						if closed != len(resps) {
							errCh <- fmt.Errorf("caller %d: %d of %d requests closed: a batch was split by Close", g, closed, len(resps))
						}
						return
					}
				}
			}(g)
		}
		<-warm // Close once some caller has verified a few batches
		srv.Close()
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestExecutorRejectsOverflowingSpans is the regression net for the
// executor's overflow-safe range guard: a near-MaxInt64 address must be
// rejected as a validation error, not wrap negative past the guard.
func TestExecutorRejectsOverflowingSpans(t *testing.T) {
	mem := testMem(t, 45, 15, 2, 1)
	ex := executor{mem: mem, org: mem.Config().Org}
	cases := []struct {
		name string
		req  Request
	}{
		{"max-addr", Request{Op: OpRead, Addr: math.MaxInt64, Width: 64}},
		{"near-max-addr", Request{Op: OpRead, Addr: math.MaxInt64 - 63, Width: 64}},
		{"write-near-max", Request{Op: OpWrite, Addr: math.MaxInt64 - 1, Width: 2}},
		{"negative", Request{Op: OpRead, Addr: -1, Width: 8}},
		{"end-past-range", Request{Op: OpRead, Addr: mem.Config().Org.DataBits() - 8, Width: 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, ok := ex.singleRow(tc.req); ok {
				t.Fatal("singleRow accepted an out-of-range span")
			}
			var got Response
			ex.run([]Request{tc.req}, func(_ int, resp Response, _ execInfo) { got = resp })
			if got.Err == nil {
				t.Fatal("executor served an out-of-range span")
			}
		})
	}
}

// TestGenTraceZipfBankHead pins the bank-confined zipf bugfix: in a
// closed-loop zipf trace each client's hot set must concentrate at its
// home bank's start (the per-bank zipf head), not be a global-range
// sample smeared across the bank. The old fold produced ≈19% of
// requests in each bank's first 8 words; the per-bank generator
// concentrates ≳27% there.
func TestGenTraceZipfBankHead(t *testing.T) {
	org := mmpu.Custom(90, 16, 2)
	tr, err := GenTrace(org, TraceOpts{
		Mode: "closed", Mix: "zipf", Requests: 8000, Clients: 16, Width: 32, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	head, total := 0, 0
	const headBits = 8 * 64 // the first 8 hot words of each bank
	for bank, reqs := range tr.PerBank {
		lo := int64(bank) * org.BankBits()
		for _, tq := range reqs {
			if off := tq.Req.Addr - lo; off < 0 || off >= org.BankBits() {
				t.Fatalf("bank %d request at %d leaks its bank", bank, tq.Req.Addr)
			} else if off < headBits {
				head++
			}
			total++
		}
	}
	if frac := float64(head) / float64(total); frac < 0.24 {
		t.Fatalf("zipf head concentration %.3f < 0.24 — bank-confined zipf regressed", frac)
	}
}
