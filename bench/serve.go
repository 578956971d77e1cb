package main

import (
	"time"

	"repro/internal/pmem"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// serveSys is an in-process serve.Server over a fresh memory, configured
// as examples/serve runs it. reg is nil unless the run is traced.
type serveSys struct {
	mem  *pmem.Memory
	srv  *serve.Server
	reg  *telemetry.Registry
	plan *serve.ComputePlan // serve-compute only
}

func newServeSys(cfg runConfig, parent int64, admit int64, withPlan bool) (*serveSys, error) {
	s := &serveSys{}
	if cfg.tr != nil {
		s.reg = telemetry.New()
	}
	err := cfg.tr.step(parent, "pmem", "setup.pmem_new", func() (err error) {
		s.mem, err = pmem.New(memCfg)
		if err == nil && s.reg != nil {
			s.mem.Instrument(s.reg)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if withPlan {
		err = cfg.tr.step(parent, "serve", "setup.plan_build", func() (err error) {
			s.plan, err = serve.BuildComputePlan("search", org.CrossbarN, planSeed)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	err = cfg.tr.step(parent, "serve", "setup.server_start", func() (err error) {
		s.srv, err = serve.New(serve.Config{Mem: s.mem, Workers: workers, ScrubEvery: scrubEvery,
			ComputeAdmit: admit, Telemetry: s.reg})
		return err
	})
	return s, err
}

func (s *serveSys) close() { s.srv.Close() }

// submitAll submits every request before collecting any response, the
// way a netfleet node serves one frame.
func submitAll(srv *serve.Server, reqs []serve.Request) []serve.Response {
	resps := make([]serve.Response, len(reqs))
	chans := make([]<-chan serve.Response, len(reqs))
	for i, r := range reqs {
		ch, err := srv.Submit(r)
		if err != nil {
			resps[i].Err = err
			continue
		}
		chans[i] = ch
	}
	for i, ch := range chans {
		if ch != nil {
			resps[i] = <-ch
		}
	}
	return resps
}

// finish reads back the client slots, closes the server and checks the
// quiesced memory.
func (s *serveSys) finish(res *result, slots []int64, shadow []uint64) {
	a, f, probs := readBack(func(reqs []serve.Request) []serve.Response { return submitAll(s.srv, reqs) }, slots, shadow)
	res.attempted += a
	res.failed += f
	res.problems = append(res.problems, probs...)
	st := s.srv.Close()
	if st.Corrected != 0 || st.Uncorrectable != 0 {
		res.problem("background scrubs corrected %d and found %d uncorrectable blocks with no fault injected",
			st.Corrected, st.Uncorrectable)
	}
	res.problems = append(res.problems, checkMemory(s.mem)...)
}

// runServeRW: two clients, each writing a random value to a random slot
// of its own and reading it back, one Server.Do per request.
func runServeRW(cfg runConfig) (*result, error) {
	sys, setupS, err := setUp(cfg, func(parent int64) (*serveSys, error) {
		return newServeSys(cfg, parent, 0, false)
	}, (*serveSys).close)
	if err != nil {
		return nil, err
	}
	res := &result{setupS: setupS, heapMB: heapMB()}
	e := &env{tr: cfg.tr}
	shadow := make([]uint64, numSlots)
	var cs []clientFn
	var all []int64
	for c := 0; c < numClients; c++ {
		own := stripe(c)
		all = append(all, own...)
		cs = append(cs, rwClient(e, sys.srv.Do, own, shadow, clientRand(cfg.seed, c)))
	}
	runLive(cfg, e, res, cs, sys.reg)
	sys.finish(res, all, shadow)
	return res, nil
}

// xbarBits is one crossbar's data capacity, the offset of crossbar 1
// within its bank.
var xbarBits = int64(org.CrossbarN) * int64(org.CrossbarN)

// crossbar0Slots lists the slots lying wholly inside crossbar 0 of some
// bank: the serve-compute client traffic, which never shares a cell with
// the pipelines running on crossbar 1.
func crossbar0Slots() []int64 {
	var out []int64
	for s := int64(0); s < numSlots; s++ {
		lo := s * slotBits
		base := lo / org.BankBits() * org.BankBits()
		if lo+slotBits <= base+xbarBits {
			out = append(out, s)
		}
	}
	return out
}

// computeClient issues the search pipeline round-robin over crossbar 1 of
// every bank. Its latencies are not op samples: op_p50_us and op_p995_us
// are the read/write client's writes, which wait behind the pipelines.
func computeClient(e *env, do func(serve.Request) serve.Response, plan *serve.ComputePlan) clientFn {
	next := 0
	return func(deadline time.Time, t *clientTally) {
		for now := time.Now(); now.Before(deadline); {
			bank := next % org.Banks
			next++
			req := serve.Request{Op: serve.OpCompute, Addr: int64(bank)*org.BankBits() + xbarBits, Plan: plan}
			e.rec.add(req)
			t0 := time.Now()
			resp := do(req)
			now = time.Now()
			e.tr.op(e.phase, "serve", "serve.Server.Do(compute)", t0, now, false)
			t.attempted++
			if resp.Err != nil {
				t.fail("compute on bank %d: %v", bank, resp.Err)
				continue
			}
			t.computes++
		}
	}
}

// runServeCompute: client 0 runs search pipelines on crossbar 1 of every
// bank while client 1 runs the serve-rw loop on crossbar 0's slots; they
// share bank workers and locks but never cells.
func runServeCompute(cfg runConfig) (*result, error) {
	sys, setupS, err := setUp(cfg, func(parent int64) (*serveSys, error) {
		return newServeSys(cfg, parent, computeAdmit, true)
	}, (*serveSys).close)
	if err != nil {
		return nil, err
	}
	res := &result{setupS: setupS, heapMB: heapMB()}
	e := &env{tr: cfg.tr}
	shadow := make([]uint64, numSlots)
	own := crossbar0Slots()
	cs := []clientFn{
		computeClient(e, sys.srv.Do, sys.plan),
		rwClient(e, sys.srv.Do, own, shadow, clientRand(cfg.seed, 1)),
	}
	runLive(cfg, e, res, cs, sys.reg)
	sys.finish(res, own, shadow)
	if res.computes == 0 {
		res.problem("no compute pipeline completed in the timed phase")
	}
	return res, nil
}
