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
// Requests route by the bank that owns their starting address into
// per-worker queues; a configurable number of bank workers
// (mmpu.ShardBanks) each own a disjoint set of banks. A worker drains its
// queue in batches, coalescing consecutive same-row requests into one row
// activation (executor), and between batches admits background scrub work
// under a budget: one crossbar scrub per ScrubEvery served requests.
// Requests whose span leaks into a neighboring bank stay correct —
// pmem's per-bank locks, not worker ownership, are the safety boundary.
//
// Latency is accounted per request (submit to response) into a mergeable
// telemetry.Hist. For the deterministic virtual-time counterpart used by
// cmd/loadgen, see Replay; both engines run each bank worker through the
// same core (core.go), so they differ only in their clocks.
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
// Submit and DoBatch check the closed flag under the same lock Close
// closes the queues under, so a racing submission either enqueues before
// the close or fails with this error — it can never send on a closed
// queue.
var ErrServerClosed = errors.New("serve: server closed")

// Config sizes a server.
type Config struct {
	Mem *pmem.Memory // the served memory (required)

	// Workers is the bank-worker count; banks are partitioned across
	// workers so each bank has exactly one worker. <=0 uses GOMAXPROCS,
	// capped at the bank count.
	Workers int
	// QueueDepth is each worker's request-queue capacity (<=0 → 128).
	QueueDepth int
	// BatchSize caps the requests drained and coalesced per service
	// round (<=0 → 32).
	BatchSize int
	// ScrubEvery is the scrub admission budget: each worker runs one
	// crossbar scrub per this many served requests, round-robin over its
	// crossbars. 0 disables background scrubbing.
	ScrubEvery int

	// ComputeAdmit bounds how long a compute burst may starve pending
	// client requests: per service round a worker admits compute requests
	// only while their modeled cost (machine.Config.ComputeCost, in
	// cycles) stays under this budget, deferring the rest until after the
	// next client drain — so a client request arriving behind a compute
	// burst waits at most ~one budget plus one in-flight pipeline. At
	// least one compute is admitted per round (progress). 0 = FIFO: no
	// deferral, computes serve strictly in arrival order.
	ComputeAdmit int64

	// Telemetry, when non-nil, receives the live service series
	// (serve_requests_total, wall-clock latency/wait histograms, the
	// queue-depth gauge) and admission/coalescing events. Nil — the
	// default — keeps the hot path at one nil check per probe.
	Telemetry *telemetry.Registry
}

// Stats aggregates service activity. Merge is commutative and
// associative, like fleet.Result — per-worker tallies combine into one
// total in any order.
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

// call carries a request through a worker queue. The worker stores the
// response in the call and then counts the call off its group.
type call struct {
	req  Request
	resp Response
	g    *group
}

// group is one submission's completion: the calls of a Submit, a Do or a
// DoBatch, the time they were queued, and the one channel the last of
// them to be served sends its response on.
type group struct {
	left atomic.Int32 // calls not yet served
	t0   time.Time
	done chan Response // capacity 1: the sending worker never blocks
}

// finish stores a served call's response and counts the call off its
// group. Once another call may still be outstanding, neither the call nor
// the group is touched again: the submitter reuses both as soon as the
// group completes.
func (c *call) finish(resp Response) {
	c.resp = resp
	if g := c.g; g.left.Add(-1) == 0 {
		g.done <- c.resp
	}
}

// batch is a pooled group with its slab of calls, index-aligned with the
// requests of one Do or DoBatch.
type batch struct {
	group
	calls []call
}

// maxPooledCalls caps the slab a finished batch returns to the pool (the
// fleet's default 256-request frame): a larger batch's slab is dropped,
// so one outsized batch cannot pin it.
const maxPooledCalls = 256

// Server is the live concurrent service. Clients may Submit from any
// number of goroutines; each bank's requests serialize through its one
// owning worker in FIFO order, so a client that awaits each response
// observes read-after-write consistency for its addresses.
type Server struct {
	cfg        Config
	org        mmpu.Organization
	workers    int
	bankWorker []int // bank → owning worker
	queues     []chan *call
	stats      []Stats   // per worker; written only by the owner until Close
	tel        probes    // shared across workers (atomic); zero value = off
	batches    sync.Pool // *batch, for Do and DoBatch
	wg         sync.WaitGroup

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

// New starts the server's bank workers.
func New(cfg Config) (*Server, error) {
	if cfg.Mem == nil {
		return nil, fmt.Errorf("serve: nil memory")
	}
	org := cfg.Mem.Config().Org
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 128
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	workers := effectiveWorkers(cfg.Workers, org.Banks)
	s := &Server{
		cfg:        cfg,
		org:        org,
		workers:    workers,
		bankWorker: make([]int, org.Banks),
		queues:     make([]chan *call, workers),
		stats:      make([]Stats, workers),
		tel:        liveProbes(cfg.Telemetry),
	}
	shards := org.ShardBanks(workers)
	for w, banks := range shards {
		for _, b := range banks {
			s.bankWorker[b] = w
		}
	}
	for w := 0; w < workers; w++ {
		s.queues[w] = make(chan *call, cfg.QueueDepth)
		s.wg.Add(1)
		go s.worker(w, shards[w])
	}
	return s, nil
}

// EffectiveWorkers returns the bank-worker count actually running.
func (s *Server) EffectiveWorkers() int { return s.workers }

// Submit enqueues a request and returns the channel its response will
// arrive on. Routing is by the bank owning the starting address. The
// request is a group of one whose channel the caller keeps, so unlike Do
// it is not pooled.
func (s *Server) Submit(req Request) (<-chan Response, error) {
	bank, err := s.org.BankOf(req.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	one := new(struct {
		g group
		c call
	})
	one.g.left.Store(1)
	one.g.t0 = time.Now()
	one.g.done = make(chan Response, 1)
	one.c = call{req: req, g: &one.g}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrServerClosed
	}
	s.queues[s.bankWorker[bank]] <- &one.c
	return one.g.done, nil
}

// Do serves one request and awaits its response: a DoBatch of one.
func (s *Server) Do(req Request) Response {
	var resp [1]Response
	s.DoBatch([]Request{req}, resp[:])
	return resp[0]
}

// DoBatch serves reqs and waits once for all of them, storing request
// i's response in resps[i]; resps must be at least as long as reqs. Each
// request routes to its bank's worker as Submit's does, so requests to
// different banks run concurrently and a bank's requests keep their
// order. A request whose address lies outside the memory fails alone, in
// its own response; on a closed server every request fails with
// ErrServerClosed. The calls come from a pooled slab and the batch's last
// served call completes it, so DoBatch allocates nothing per request.
func (s *Server) DoBatch(reqs []Request, resps []Response) {
	resps = resps[:len(reqs)]
	b, _ := s.batches.Get().(*batch)
	if b == nil {
		b = &batch{group: group{done: make(chan Response, 1)}}
	}
	b.calls = slices.Grow(b.calls[:0], len(reqs))[:len(reqs)]
	g := &b.group
	// One count per request plus the submitter's own, released after the
	// last call is queued, so no worker completes the group early.
	g.left.Store(int32(len(reqs)) + 1)
	g.t0 = time.Now()
	s.mu.RLock()
	for i, r := range reqs {
		c := &b.calls[i]
		*c = call{req: r, g: g}
		bank, err := s.org.BankOf(r.Addr)
		switch {
		case err != nil:
			c.resp.Err = fmt.Errorf("serve: %w", err)
		case s.closed:
			c.resp.Err = ErrServerClosed
		default:
			s.queues[s.bankWorker[bank]] <- c
			continue
		}
		g.left.Add(-1)
	}
	s.mu.RUnlock()
	if g.left.Add(-1) != 0 {
		<-g.done
	}
	for i := range resps {
		resps[i] = b.calls[i].resp
	}
	if cap(b.calls) <= maxPooledCalls {
		s.batches.Put(b)
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

// Close drains the queues, stops the workers, and returns the merged
// service statistics. Further submissions fail with ErrServerClosed.
func (s *Server) Close() Stats {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		for _, q := range s.queues {
			close(q)
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	var total Stats
	for _, st := range s.stats {
		total = total.Merge(st)
	}
	return total
}

// worker owns a set of banks: it drains its queue into service rounds and
// runs them through the shared core. The live scrub trigger is request
// count: one crossbar scrub per ScrubEvery served requests, the remainder
// carried to the next round.
func (s *Server) worker(w int, banks []int) {
	defer s.wg.Done()
	c := newCore[*call](s.cfg.Mem, banks, s.cfg.BatchSize, s.cfg.ComputeAdmit, &s.stats[w], s.tel,
		func() int64 { return time.Now().UnixNano() })
	q := s.queues[w]
	window := make([]*call, 0, s.cfg.BatchSize)
	credit, open := 0, true
	for {
		// Block for the first arrival only when the worker is idle; with
		// requests in hand or computes held over, take what is queued.
		window = window[:0]
	drain:
		for open && len(window) < s.cfg.BatchSize {
			var x *call
			if len(window) == 0 && len(c.held) == 0 {
				x, open = <-q
			} else {
				select {
				case x, open = <-q:
				default:
					break drain
				}
			}
			if open {
				window = append(window, x)
			}
		}
		round := c.admit(window)
		if len(round) == 0 {
			return // closed, drained, and nothing held over
		}
		if s.tel.enabled {
			s.tel.queueDepth.Set(int64(len(q)))
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
			for credit += len(round); credit >= s.cfg.ScrubEvery; credit -= s.cfg.ScrubEvery {
				c.scrub()
			}
		}
	}
}
