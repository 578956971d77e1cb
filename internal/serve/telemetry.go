package serve

import "repro/internal/telemetry"

// probes is the serving layer's telemetry handle set. The zero value is
// the disabled layer: every handle is nil and no-ops, so the hot loops
// update them unconditionally. One probe set is shared by all workers —
// counter adds and histogram bucket increments commute, so the snapshot
// totals are invariant to worker count and scheduling (the event ring,
// arrival-ordered, is deliberately outside that contract).
type probes struct {
	enabled bool

	readReqs    *telemetry.Counter
	writeReqs   *telemetry.Counter
	computeReqs *telemetry.Counter
	errors      *telemetry.Counter
	batches     *telemetry.Counter
	coalesced   *telemetry.Counter
	spanning    *telemetry.Counter
	segments    *telemetry.Counter
	scrubAdm    *telemetry.Counter

	backlog *telemetry.Histogram // requests per service round
	latency *telemetry.Histogram // submit → response
	wait    *telemetry.Histogram // submit → start of service
	service *telemetry.Histogram // replay only: ticks charged per request

	// tenants holds per-tenant series, index-aligned with the trace's
	// tenant list (bindTenants); empty for single-tenant traffic, so
	// default snapshots carry no tenant series.
	tenants []tenantProbes

	ring *telemetry.Ring
}

// tenantProbes is one tenant's series pair.
type tenantProbes struct {
	reqs *telemetry.Counter
	lat  *telemetry.Histogram
}

// bindTenants resolves per-tenant series (serve_tenant_requests_total and
// serve_tenant_latency_ticks, labeled tenant=name) for a tenant-named
// trace. No-op without a registry or tenants.
func (p *probes) bindTenants(reg *telemetry.Registry, names []string) {
	if reg == nil || len(names) == 0 {
		return
	}
	for _, n := range names {
		p.tenants = append(p.tenants, tenantProbes{
			reqs: reg.Counter("serve_tenant_requests_total", "tenant", n),
			lat:  reg.Histogram("serve_tenant_latency_ticks", "tenant", n),
		})
	}
}

// commonProbes resolves the series shared by the live and replay paths.
func commonProbes(reg *telemetry.Registry) probes {
	return probes{
		enabled:     true,
		readReqs:    reg.Counter("serve_requests_total", "op", "read"),
		writeReqs:   reg.Counter("serve_requests_total", "op", "write"),
		computeReqs: reg.Counter("serve_requests_total", "op", "compute"),
		errors:      reg.Counter("serve_errors_total"),
		batches:     reg.Counter("serve_batches_total"),
		coalesced:   reg.Counter("serve_coalesced_total"),
		spanning:    reg.Counter("serve_spanning_total"),
		segments:    reg.Counter("serve_segments_total"),
		scrubAdm:    reg.Counter("serve_scrub_admissions_total"),
		backlog:     reg.Histogram("serve_batch_backlog"),
		ring:        reg.Events(),
	}
}

// liveProbes resolves the live server's probe set: wall-clock timings in
// nanoseconds.
func liveProbes(reg *telemetry.Registry) probes {
	if reg == nil {
		return probes{}
	}
	p := commonProbes(reg)
	p.latency = reg.Histogram("serve_latency_ns")
	p.wait = reg.Histogram("serve_wait_ns")
	return p
}

// replayProbes resolves the deterministic replay's probe set:
// virtual-time timings in model ticks.
func replayProbes(reg *telemetry.Registry) probes {
	if reg == nil {
		return probes{}
	}
	p := commonProbes(reg)
	p.latency = reg.Histogram("serve_latency_ticks")
	p.wait = reg.Histogram("serve_wait_ticks")
	p.service = reg.Histogram("serve_service_ticks")
	return p
}
