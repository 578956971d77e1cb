package serve

import (
	"repro/internal/pmem"
	"repro/internal/telemetry"
)

// job is one queued request as an engine carries it: the live server's
// *call or the replay's TimedReq.
type job interface{ request() Request }

func (c *call) request() Request    { return c.req }
func (t TimedReq) request() Request { return t.Req }

// core is the service policy of one live lane or one replay worker,
// written once for both engines: the live Server and its virtual-time
// twin Replay. It owns the three decisions the engines must make
// identically — which requests a service round admits under the
// ComputeAdmit budget, which crossbar the next background scrub visits,
// and how a served request or scrub is accounted in Stats, TenantStats
// and the probes. An engine keeps only its clock: how a window of
// arrivals forms, how a request's latency is measured, and when a scrub
// is due.
type core[J job] struct {
	mem    *pmem.Memory
	ex     executor
	st     *Stats
	tel    probes
	now    func() int64           // the engine's clock, stamping ring events
	inject func(bank, xb int) int // fault overlay run before each scrub (Replay only)

	budget int64 // ComputeAdmit; 0 = FIFO
	cost   func(*ComputePlan) int64

	banks   []int   // owned banks, in rotation order
	perBank int     // crossbars per bank
	cursor  int     // next crossbar of the bank-major scrub rotation
	scrubs  []int64 // scrubs per owned bank, index-aligned with banks

	held  []J // computes held over under the admission budget
	round []J
	reqs  []Request
}

func newCore[J job](mem *pmem.Memory, banks []int, batch int, budget int64, st *Stats, tel probes, now func() int64) *core[J] {
	c := &core[J]{
		mem: mem, ex: executor{mem: mem, org: mem.Config().Org},
		st: st, tel: tel, now: now,
		budget: budget, cost: computeCostFor(mem.Config()),
		banks: banks, perBank: mem.Config().Org.PerBank, scrubs: make([]int64, len(banks)),
		reqs: make([]Request, 0, batch),
	}
	if tel.enabled {
		c.ex.coalesce = func(bank, xb, row, merged int) {
			tel.ring.Emit(telemetry.EvCoalesce, c.now(), bank, xb, int64(merged), int64(row))
		}
	}
	return c
}

// admit assembles the next service round from a window of new arrivals.
// FIFO (no budget) serves the window as it stands. Under a budget the
// window's client requests go first, in arrival order, then computes —
// held-over ones first — while their summed modeled cost stays under the
// budget, at least one per round so a compute-monopolized bank still
// drains; the rest are held for the next round. The engines re-form a
// window every round, so a client request arriving behind a compute burst
// waits at most ~one budget plus one in-flight pipeline.
func (c *core[J]) admit(window []J) []J {
	if c.budget <= 0 {
		return window
	}
	comps := c.held
	c.round = c.round[:0]
	for _, j := range window {
		if j.request().Op == OpCompute {
			comps = append(comps, j)
		} else {
			c.round = append(c.round, j)
		}
	}
	var spent int64
	n := 0
	for n < len(comps) && (n == 0 || spent < c.budget) {
		spent += c.cost(comps[n].request().Plan)
		n++
	}
	c.held = comps[n:]
	c.round = append(c.round, comps[:n]...)
	return c.round
}

// serve executes one admitted round through the executor, handing each
// request's response and execution facts to done in service order.
func (c *core[J]) serve(round []J, done func(i int, resp Response, info execInfo)) {
	if c.tel.enabled {
		c.tel.backlog.Observe(int64(len(round)))
	}
	c.reqs = c.reqs[:0]
	for _, j := range round {
		c.reqs = append(c.reqs, j.request())
	}
	c.st.Batches++
	c.tel.batches.Inc()
	c.ex.run(c.reqs, done)
}

// pick returns the one of three values matching the served request's
// kind: read, write or compute.
func pick[T any](info execInfo, read, write, compute T) T {
	switch {
	case info.compute:
		return compute
	case info.write:
		return write
	}
	return read
}

// record accounts one served request in Stats, the probes and, for a
// tenant inside the trace's tenant list, that tenant's breakdown. lat is
// in the engine's time base (wall nanoseconds or model ticks).
func (c *core[J]) record(resp Response, info execInfo, lat int64, tenant int) {
	st, p := c.st, &c.tel
	st.Requests++
	*pick(info, &st.Reads, &st.Writes, &st.Computes)++
	pick(info, p.readReqs, p.writeReqs, p.computeReqs).Inc()
	if resp.Err != nil {
		st.Errors++
		p.errors.Inc()
	}
	if info.coalesced {
		st.Coalesced++
		p.coalesced.Inc()
	}
	if info.segments > 1 {
		st.Spanning++
		p.spanning.Inc()
	}
	st.Segments += int64(info.segments)
	p.segments.Add(int64(info.segments))
	st.Lat.Observe(lat)
	p.latency.Observe(lat)
	if tenant < 0 {
		return
	}
	if tenant < len(st.Tenants) {
		ts := &st.Tenants[tenant]
		ts.Requests++
		*pick(info, &ts.Reads, &ts.Writes, &ts.Computes)++
		if resp.Err != nil {
			ts.Errors++
		}
		ts.Lat.Observe(lat)
	}
	if tenant < len(p.tenants) {
		p.tenants[tenant].reqs.Inc()
		p.tenants[tenant].lat.Observe(lat)
	}
}

// scrub runs one background crossbar scrub — the next stop of the
// round-robin rotation over the worker's banks × PerBank crossbars, bank
// major — preceded by the fault overlay when one is set, and accounts it.
// When a scrub is due is the engine's call.
func (c *core[J]) scrub() {
	slot, xb := c.cursor/c.perBank, c.cursor%c.perBank
	c.cursor = (c.cursor + 1) % (len(c.banks) * c.perBank)
	bank := c.banks[slot]
	if c.inject != nil {
		c.st.Injected += int64(c.inject(bank, xb))
	}
	corr, unc := c.mem.ScrubCrossbar(bank, xb)
	c.st.Scrubs++
	c.st.Corrected += int64(corr)
	c.st.Uncorrectable += int64(unc)
	c.scrubs[slot]++
	c.tel.scrubAdm.Inc()
	if c.tel.enabled {
		t := c.now()
		c.tel.ring.Emit(telemetry.EvAdmission, t, bank, xb, t, 0)
	}
}
