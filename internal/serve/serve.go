// Package serve is the online face of the protected memory: a concurrent,
// request-driven service over internal/pmem in which client reads and
// writes race with the background scrub work that keeps the paper's
// diagonal-ECC guarantee alive. The ROADMAP's north star is a memory
// *serving* heavy traffic, not replaying offline workloads — this package
// is that regime, and it is where the Θ(1) per-write check-bit update
// actually pays: every write commits its ECC delta inline, so scrubbing
// can be admission-controlled background work instead of a stop-the-world
// pass.
//
// # Architecture
//
// Requests route by the bank that owns their starting address to one of a
// configurable number of lanes (mmpu.ShardBanks), each owning a disjoint
// set of banks. The server runs no goroutines of its own: the submitter
// that queues onto an idle lane serves that lane's rounds itself, draining
// the lane's queue in batches, coalescing consecutive same-row requests
// into one row activation (executor), and admitting background scrub work
// under a budget: one crossbar scrub per ScrubEvery served requests. It
// leaves the lane once its own calls there are answered, handing it to
// the submitter of the oldest call still waiting — flat combining with an
// explicit hand-off. Requests whose span leaks into a neighboring bank
// stay correct — pmem's per-bank locks, not lane ownership, are the
// safety boundary.
//
// Latency is accounted per request (submit to response) into a mergeable
// telemetry.Hist. For the deterministic virtual-time counterpart used by
// cmd/loadgen, see Replay; a live lane and a replay worker run through the
// same core (core.go), so the two engines differ only in their clocks.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mmpu"
	"repro/internal/pmem"
	"repro/internal/telemetry"
)

// OpKind enumerates request operations.
type OpKind int

const (
	// OpRead returns up to 64 bits starting at a bit address.
	OpRead OpKind = iota
	// OpWrite stores up to 64 bits starting at a bit address.
	OpWrite
	// OpCompute executes the request's ComputePlan on the crossbar owning
	// Addr (SIMD over the plan's row set). Width and Data are unused; the
	// crossbar's working region [0, plan.Mapping.RowSize) is scratch.
	OpCompute
)

// Request is one client memory operation.
type Request struct {
	Op    OpKind
	Addr  int64  // starting bit address (OpCompute: selects the crossbar)
	Width int    // bits, 1..64 (0 is a valid no-op; unused by OpCompute)
	Data  uint64 // OpWrite payload, LSB first

	// Plan is the prepared SIMD pipeline an OpCompute request executes
	// (required for OpCompute, ignored otherwise). Plans are immutable and
	// shared: every compute request of a trace points at the same plan.
	Plan *ComputePlan
}

// Response answers one request.
type Response struct {
	Data uint64 // OpRead result, LSB first
	Err  error
}

// ErrServerClosed reports a submission to a server that has shut down.
// Submit and DoBatch check the closed flag under the lock Close sets it
// under, so a racing submission is either served whole before Close
// returns or fails whole with this error.
var ErrServerClosed = errors.New("serve: server closed")

// Config sizes a server.
type Config struct {
	Mem *pmem.Memory // the served memory (required)

	// Workers is the lane count; banks are partitioned across lanes so
	// each bank has exactly one. <=0 uses GOMAXPROCS, capped at the bank
	// count. A lane is not a goroutine: its rounds run on the goroutine of
	// a submitter with calls queued there, so at most Workers rounds run
	// at once.
	Workers int
	// BatchSize caps the requests drained and coalesced per service
	// round (<=0 → 32).
	BatchSize int
	// ScrubEvery is the scrub admission budget: each lane runs one
	// crossbar scrub per this many served requests, round-robin over its
	// crossbars. 0 disables background scrubbing.
	ScrubEvery int

	// ComputeAdmit bounds how long a compute burst may starve pending
	// client requests: per service round a lane admits compute requests
	// only while their modeled cost (machine.Config.ComputeCost, in
	// cycles) stays under this budget, deferring the rest until after the
	// next client drain — so a client request arriving behind a compute
	// burst waits at most ~one budget plus one in-flight pipeline. At
	// least one compute is admitted per round (progress). 0 = FIFO: no
	// deferral, computes serve strictly in arrival order.
	ComputeAdmit int64

	// Telemetry, when non-nil, receives the live service series
	// (serve_requests_total, wall-clock latency/wait histograms, the
	// round-size histogram serve_batch_backlog) and admission/coalescing
	// events. Nil — the default — keeps the hot path at one nil check
	// per probe.
	Telemetry *telemetry.Registry
}

// Stats aggregates service activity. Merge is commutative and
// associative, like fleet.Result — per-lane (or, in Replay, per-worker)
// tallies combine into one total in any order.
type Stats struct {
	Requests int64
	Reads    int64
	Writes   int64
	Computes int64
	Errors   int64
	Batches  int64

	// ComputeTicks is the total virtual time charged to compute requests
	// (Replay only; the live server accounts wall time in Lat).
	ComputeTicks int64

	// Tenants is the per-tenant breakdown, index-aligned with the trace's
	// tenant list; nil for single-tenant (legacy) traffic.
	Tenants []TenantStats

	Coalesced int64 // requests served from an already-open row
	Spanning  int64 // requests crossing a row boundary
	Segments  int64 // crossbar-row segments touched

	Scrubs        int64
	Corrected     int64
	Uncorrectable int64
	Injected      int64 // fault-overlay flips (Replay only)

	Lat telemetry.Hist // live server: wall nanoseconds; Replay: model ticks
}

// Merge returns the field-wise combination of two stats.
func (s Stats) Merge(o Stats) Stats {
	return Stats{
		Requests:      s.Requests + o.Requests,
		Reads:         s.Reads + o.Reads,
		Writes:        s.Writes + o.Writes,
		Computes:      s.Computes + o.Computes,
		ComputeTicks:  s.ComputeTicks + o.ComputeTicks,
		Tenants:       mergeTenants(s.Tenants, o.Tenants),
		Errors:        s.Errors + o.Errors,
		Batches:       s.Batches + o.Batches,
		Coalesced:     s.Coalesced + o.Coalesced,
		Spanning:      s.Spanning + o.Spanning,
		Segments:      s.Segments + o.Segments,
		Scrubs:        s.Scrubs + o.Scrubs,
		Corrected:     s.Corrected + o.Corrected,
		Uncorrectable: s.Uncorrectable + o.Uncorrectable,
		Injected:      s.Injected + o.Injected,
		Lat:           s.Lat.Merge(o.Lat),
	}
}

// call carries a request through a lane's queue. The lane's server stores
// the response in the call, marks it served and then counts it off its
// group.
type call struct {
	req    Request
	resp   Response
	g      *group
	lane   *lane // the lane the request routes to; nil if it failed unqueued
	served bool  // read and written only by the lane's current server
}

// group is one submission: the calls of a Submit, a Do or a DoBatch, the
// time they were queued, and the two channels its submitter waits on. The
// call that brings left to zero sends on done; a server leaving a lane
// whose oldest waiting call belongs to the group sends the lane on turn.
type group struct {
	left atomic.Int32 // calls not yet served, plus the submitter's own count
	t0   time.Time
	done chan struct{} // capacity 1: one completion
	turn chan *lane    // capacity: the lane count, for at most one hand-off per lane
}

// finish stores a served call's response, marks it served and counts it
// off its group. Once another call may still be outstanding, neither the
// call nor the group is touched again: the submitter reuses both as soon
// as the group completes.
func (c *call) finish(resp Response) {
	c.resp = resp
	c.served = true
	if g := c.g; g.left.Add(-1) == 0 {
		g.done <- struct{}{}
	}
}

// batch is a pooled group with its slab of calls, index-aligned with the
// requests of one submission, and the lanes its submitter claimed.
type batch struct {
	group
	calls   []call
	claimed []*lane
}

// maxPooledCalls caps the slab a finished batch returns to the pool (the
// fleet's default 256-request frame): a larger batch's slab is dropped,
// so one outsized batch cannot pin it.
const maxPooledCalls = 256

// lane is one share of the banks and the state that serves them: a FIFO
// of waiting calls, whether a submitter holds the lane, and the service
// core its rounds run through. The queue and the serving flag are guarded
// by mu; the rest belongs to the lane's current server, the one submitter
// that holds it.
type lane struct {
	mu      sync.Mutex
	queue   []*call // waiting calls, oldest first
	serving bool    // a submitter holds the lane: it serves it or was handed it

	core   *core[*call]
	window []*call
	credit int // requests served toward the next scrub
}

// Server is the live concurrent service. It starts no goroutines: each
// request routes to the lane owning its starting bank, and a submitter
// that finds its lane idle serves the lane's rounds itself, answering
// every call queued there until its own are answered, then hands the lane
// to the submitter of the oldest call still waiting. Other submitters
// wait for their answers or for a lane handed to them. Each bank's
// requests are served in FIFO order, so a client that awaits each
// response observes read-after-write consistency for its addresses.
type Server struct {
	cfg      Config
	org      mmpu.Organization
	lanes    []*lane
	bankLane []*lane        // bank → owning lane
	stats    []Stats        // per lane; written only by its server until Close
	tel      probes         // shared across lanes (atomic); zero value = off
	batches  sync.Pool      // *batch, one per submission
	inflight sync.WaitGroup // submissions admitted before Close

	mu     sync.RWMutex
	closed bool
}

// effectiveWorkers resolves a worker count against a bank count.
func effectiveWorkers(w, banks int) int {
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > banks {
		w = banks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// New builds the server's lanes, each with its banks and service core.
func New(cfg Config) (*Server, error) {
	if cfg.Mem == nil {
		return nil, fmt.Errorf("serve: nil memory")
	}
	org := cfg.Mem.Config().Org
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	n := effectiveWorkers(cfg.Workers, org.Banks)
	s := &Server{
		cfg:      cfg,
		org:      org,
		lanes:    make([]*lane, n),
		bankLane: make([]*lane, org.Banks),
		stats:    make([]Stats, n),
		tel:      liveProbes(cfg.Telemetry),
	}
	now := func() int64 { return time.Now().UnixNano() }
	for i, banks := range org.ShardBanks(n) {
		ln := &lane{
			core:   newCore[*call](cfg.Mem, banks, cfg.BatchSize, cfg.ComputeAdmit, &s.stats[i], s.tel, now),
			window: make([]*call, 0, cfg.BatchSize),
		}
		s.lanes[i] = ln
		for _, b := range banks {
			s.bankLane[b] = ln
		}
	}
	return s, nil
}

// EffectiveWorkers returns the lane count.
func (s *Server) EffectiveWorkers() int { return len(s.lanes) }

// Submit serves req on the caller's goroutine, as Do does, and returns a
// channel already holding its response. An address outside the memory
// fails here, as does a submission to a closed server.
func (s *Server) Submit(req Request) (<-chan Response, error) {
	if _, err := s.org.BankOf(req.Addr); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	resp := s.Do(req)
	if errors.Is(resp.Err, ErrServerClosed) {
		return nil, ErrServerClosed
	}
	ch := make(chan Response, 1)
	ch <- resp
	return ch, nil
}

// Do serves one request and awaits its response: a DoBatch of one.
func (s *Server) Do(req Request) Response {
	var resp [1]Response
	s.DoBatch([]Request{req}, resp[:])
	return resp[0]
}

// DoBatch serves reqs and returns once all of them are answered, storing
// request i's response in resps[i]; resps must be at least as long as
// reqs. Each request queues on the lane owning its starting bank, so a
// bank's requests keep their order. The caller serves every lane it finds
// idle, and any lane handed to it while it waits, until its own calls
// there are answered. A request whose address lies outside the memory
// fails alone, in its own response; on a closed server every other
// request fails with ErrServerClosed. The calls come from a pooled slab,
// so DoBatch allocates nothing per request.
func (s *Server) DoBatch(reqs []Request, resps []Response) {
	resps = resps[:len(reqs)]
	s.mu.RLock()
	open := !s.closed
	if open {
		s.inflight.Add(1)
		defer s.inflight.Done()
	}
	s.mu.RUnlock()
	b, _ := s.batches.Get().(*batch)
	if b == nil {
		b = &batch{group: group{done: make(chan struct{}, 1), turn: make(chan *lane, len(s.lanes))}}
	}
	b.calls = slices.Grow(b.calls[:0], len(reqs))[:len(reqs)]
	g := &b.group
	// One count per request plus the submitter's own, released once the
	// lanes it claimed are served, so no round completes the group early.
	g.left.Store(int32(len(reqs)) + 1)
	g.t0 = time.Now()
	for i, r := range reqs {
		c := &b.calls[i]
		*c = call{req: r, g: g}
		bank, err := s.org.BankOf(r.Addr)
		switch {
		case err != nil:
			c.resp.Err = fmt.Errorf("serve: %w", err)
		case !open:
			c.resp.Err = ErrServerClosed
		default:
			c.lane = s.bankLane[bank]
			continue
		}
		g.left.Add(-1)
	}
	b.claimed = s.queue(b.calls, b.claimed[:0])
	for _, ln := range b.claimed {
		s.serve(ln, b.calls)
	}
	if g.left.Add(-1) != 0 {
		s.wait(g, b.calls)
	}
	for i := range resps {
		resps[i] = b.calls[i].resp
	}
	if cap(b.calls) <= maxPooledCalls {
		s.batches.Put(b)
	}
}

// queue appends each routed call to its lane's queue, taking one lane
// lock per run of calls bound for the same lane, claims every idle lane
// it queues onto, and returns claimed extended by those lanes.
func (s *Server) queue(calls []call, claimed []*lane) []*lane {
	for i := 0; i < len(calls); {
		ln := calls[i].lane
		if ln == nil {
			i++
			continue
		}
		ln.mu.Lock()
		for ; i < len(calls) && (calls[i].lane == ln || calls[i].lane == nil); i++ {
			if calls[i].lane != nil {
				ln.queue = append(ln.queue, &calls[i])
			}
		}
		if !ln.serving {
			ln.serving = true
			claimed = append(claimed, ln)
		}
		ln.mu.Unlock()
	}
	return claimed
}

// serve runs ln's rounds until every call of own queued on ln is
// answered, then hands ln on. The caller holds ln.
func (s *Server) serve(ln *lane, own []call) {
	for i := 0; i < len(own); {
		if c := &own[i]; c.lane != ln || c.served {
			i++
			continue
		}
		s.round(ln)
	}
	s.release(ln)
}

// round takes up to BatchSize calls from the front of ln's queue and
// serves them, with any computes held over, through ln's core, then runs
// the scrubs they earned: one crossbar scrub per ScrubEvery served
// requests, the remainder carried to the next round.
func (s *Server) round(ln *lane) {
	ln.mu.Lock()
	n := min(len(ln.queue), s.cfg.BatchSize)
	ln.window = append(ln.window[:0], ln.queue[:n]...)
	ln.queue = ln.queue[:copy(ln.queue, ln.queue[n:])]
	ln.mu.Unlock()
	c := ln.core
	round := c.admit(ln.window)
	if s.tel.enabled {
		start := time.Now()
		for _, x := range round {
			s.tel.wait.Observe(start.Sub(x.g.t0).Nanoseconds())
		}
	}
	c.serve(round, func(i int, resp Response, info execInfo) {
		c.record(resp, info, time.Since(round[i].g.t0).Nanoseconds(), -1)
		round[i].finish(resp)
	})
	if s.cfg.ScrubEvery > 0 {
		for ln.credit += len(round); ln.credit >= s.cfg.ScrubEvery; ln.credit -= s.cfg.ScrubEvery {
			c.scrub()
		}
	}
}

// release hands ln to the group of its oldest waiting call (a compute
// held over under the admission budget, else the head of the queue), or
// marks it idle when nothing waits. The send never blocks: a group is
// handed each lane at most once before it is answered, and its turn
// channel holds one hand-off per lane.
func (s *Server) release(ln *lane) {
	var next *group
	ln.mu.Lock()
	switch {
	case len(ln.core.held) > 0:
		next = ln.core.held[0].g
	case len(ln.queue) > 0:
		next = ln.queue[0].g
	default:
		ln.serving = false
	}
	ln.mu.Unlock()
	if next != nil {
		next.turn <- ln
	}
}

// wait returns once g's calls are all answered, serving each lane handed
// to it meanwhile. A call answered in another submitter's round ends the
// wait at once: the submitter waits on its own group's channels, never on
// a lane.
func (s *Server) wait(g *group, own []call) {
	for {
		select {
		case <-g.done:
			return
		case ln := <-g.turn:
			s.serve(ln, own)
		}
	}
}

// Read serves a blocking read of up to 64 bits.
func (s *Server) Read(addr int64, width int) (uint64, error) {
	r := s.Do(Request{Op: OpRead, Addr: addr, Width: width})
	return r.Data, r.Err
}

// Write serves a blocking write of up to 64 bits.
func (s *Server) Write(addr int64, width int, data uint64) error {
	return s.Do(Request{Op: OpWrite, Addr: addr, Width: width, Data: data}).Err
}

// Close refuses further submissions, waits for the ones in flight to be
// answered, and returns the merged service statistics. Further
// submissions fail with ErrServerClosed.
func (s *Server) Close() Stats {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.inflight.Wait()
	var total Stats
	for _, st := range s.stats {
		total = total.Merge(st)
	}
	return total
}
