package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/bitmat"
	"repro/internal/cmem"
	"repro/internal/ecc"
	"repro/internal/machine"
	"repro/internal/mmpu"
	"repro/internal/pmem"
	"repro/internal/serve"
	"repro/internal/shifter"
	"repro/internal/telemetry"
	"repro/internal/xbar"
)

// The ladder replays a run's recorded ops single-threaded through each
// layer's public function, innermost first: xbar → shifter → cmem → ecc →
// machine → pmem → serve → netfleet. Each rung reports wall time (and, for
// the request path, heap allocations) per call; on the request path, rung
// k minus the rungs below it is layer k's own cost. Rungs run on fresh
// systems, so they measure the layer, not the run's contention, and they
// run interleaved — every round times one pass of every rung — so host
// drift during the ladder moves all rungs alike instead of skewing their
// differences.

const (
	ladderRounds = 3   // each rung reports its median pass
	microCalls   = 200 // calls per pass of the rungs costing tens of µs or more
	computeCalls = 40  // pipelines per pass of the compute rungs
)

// rung is one timed public function of one layer.
type rung struct {
	layer  string
	metric string  // per-call time metric
	scale  float64 // ns per metric unit: 1 for _ns, 1e3 for _us
	allocs string  // per-call allocation metric, or ""
	calls  int
	call   func(i int)

	passNs []float64
	allocN float64
}

// pass times one pass of the rung's calls and counts the heap allocations
// of every goroutine meanwhile, so a server's workers count.
func (r *rung) pass() {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	for i := 0; i < r.calls; i++ {
		r.call(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	r.passNs = append(r.passNs, float64(d.Nanoseconds())/float64(r.calls))
	r.allocN = float64(b.Mallocs-a.Mallocs) / float64(r.calls)
}

// ladderOp is a recorded write located in its first crossbar row.
type ladderOp struct {
	req      serve.Request
	row, col int
	bits     int // bits of the request inside that row
}

func locate(req serve.Request) ladderOp {
	a, _ := org.Locate(req.Addr)
	return ladderOp{req: req, row: a.Row, col: a.Col, bits: min(req.Width, org.CrossbarN-a.Col)}
}

// setBits writes the op's bits that fall in its first row into v.
func (o ladderOp) setBits(v *bitmat.Vec) {
	for i := 0; i < o.bits; i++ {
		v.Set(o.col+i, o.req.Data>>uint(i)&1 != 0)
	}
}

// splitOps returns the recorded reads and writes, together in recorded
// order and apart.
func splitOps(ops []serve.Request) (rw, reads, writes []serve.Request) {
	for _, r := range ops {
		switch r.Op {
		case serve.OpRead:
			reads = append(reads, r)
		case serve.OpWrite:
			writes = append(writes, r)
		default:
			continue
		}
		rw = append(rw, r)
	}
	return rw, reads, writes
}

// ladder is the ladder's output: per-layer metric values, each layer's
// own cost per request, and the live series of the serve and netfleet
// rungs for runs whose timed phase had no live server or no fleet.
type ladder struct {
	vals       map[string]float64
	selfNs     map[string]float64
	serveTally tally
	fleetTally tally
	fleetSecs  float64
}

// runLadder measures every rung over ops, the run's first recorded ops;
// the compute rungs run serve-compute's search pipeline.
func runLadder(tr *tracer, ops []serve.Request, seed int64) (*ladder, error) {
	rw, reads, writes := splitOps(ops)
	if len(reads) == 0 || len(writes) == 0 {
		return nil, fmt.Errorf("ladder: %d reads and %d writes recorded, need both", len(reads), len(writes))
	}
	plan, err := serve.BuildComputePlan("search", org.CrossbarN, planSeed)
	if err != nil {
		return nil, err
	}
	root, rootStart := tr.begin()
	defer tr.end(root, 0, "bench", "ladder", rootStart)

	var lerr error // the first error any timed call reported
	check := func(err error) {
		if err != nil && lerr == nil {
			lerr = err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	n := org.CrossbarN
	var rungs []*rung
	add := func(layer, metric string, scale float64, allocs string, calls int, call func(int)) {
		rungs = append(rungs, &rung{layer: layer, metric: metric, scale: scale, allocs: allocs, calls: calls, call: call})
	}

	// xbar: one in-row and one in-column NOR over every line.
	x := xbar.New(n, n)
	x.Mat().Randomize(rng)
	rows, cols := x.AllRows(), x.AllCols()
	add("xbar", "xbar.nor_rows_ns", 1, "", ladderOps, func(int) { x.NORRows(1, 2, 3, rows) })
	add("xbar", "xbar.nor_cols_ns", 1, "", ladderOps, func(int) { x.NORCols(1, 2, 3, cols) })

	// shifter: route one stored row into diagonal order.
	sh := shifter.New(n, blockM)
	src := bitmat.NewMat(n, n)
	src.Randomize(rng)
	dst := bitmat.NewVec(n)
	fams := []shifter.Family{shifter.Leading, shifter.Counter}
	add("shifter", "shifter.route_packed_ns", 1, "", ladderOps, func(i int) {
		sh.RoutePacked(dst, src.Row(i%n), i%blockM, fams[i&1], shifter.ColParallel)
	})

	// cmem: one critical update per recorded write — the written row's old
	// and new contents, as machine.LoadRow hands them over — and one block
	// row's check.
	ws := make([]ladderOp, len(writes))
	ups := make([]cmem.CriticalUpdate, len(writes))
	img := bitmat.NewMat(n, n)
	for i, w := range writes {
		ws[i] = locate(w)
		old := img.Row(ws[i].row).Clone()
		ws[i].setBits(img.Row(ws[i].row))
		ups[i] = cmem.CriticalUpdate{Orientation: shifter.ColParallel, Index: ws[i].row, Old: old, New: img.Row(ws[i].row).Clone()}
	}
	cm := cmem.New(cmem.Config{N: n, M: blockM, K: procXbars})
	add("cmem", "cmem.update_critical_ns", 1, "", len(ups), func(i int) { cm.UpdateCritical(i%procXbars, ups[i]) })
	checked, err := loadedMachine(rng)
	if err != nil {
		return nil, err
	}
	blocks := n / blockM
	add("cmem", "cmem.check_line_us", 1e3, "", microCalls, func(i int) {
		checked.CMEM().CheckLine(checked.MEM(), shifter.ColParallel, i%blocks, i%procXbars)
	})

	// ecc: a from-scratch check-bit build, as the compute reconcile does.
	p := ecc.Params{N: n, M: blockM}
	add("ecc", "ecc.build_us", 1e3, "", microCalls, func(int) { ecc.Build(p, src) })

	// machine: the protected row write, a whole-crossbar scrub and one
	// SIMD pipeline.
	m, err := loadedMachine(rng)
	if err != nil {
		return nil, err
	}
	add("machine", "machine.update_row_ns", 1, "machine.update_row_allocs", len(ws), func(i int) {
		_, err := m.UpdateRow(ws[i].row, func(v *bitmat.Vec) bool { ws[i].setBits(v); return true })
		check(err)
	})
	add("machine", "machine.scrub_us", 1e3, "", microCalls, func(int) { m.Scrub() })
	mc, err := loadedMachine(rng)
	if err != nil {
		return nil, err
	}
	add("machine", "machine.execute_simd_us", 1e3, "", computeCalls, func(int) { check(mc.ExecuteSIMD(plan.Mapping, plan.Rows)) })
	simdBefore := mc.Stats()

	// pmem: word writes and reads at the recorded addresses, a crossbar
	// scrub and a pipeline, all under the bank locks.
	mem, err := pmem.New(memCfg)
	if err != nil {
		return nil, err
	}
	add("pmem", "pmem.write_word_ns", 1, "pmem.write_word_allocs", len(writes), func(i int) {
		check(mem.WriteWord(writes[i].Addr, writes[i].Data, writes[i].Width))
	})
	add("pmem", "pmem.read_word_ns", 1, "pmem.read_word_allocs", len(reads), func(i int) {
		_, err := mem.ReadWord(reads[i].Addr, reads[i].Width)
		check(err)
	})
	add("pmem", "pmem.scrub_xbar_us", 1e3, "", microCalls, func(i int) { mem.ScrubCrossbar(org.CrossbarAt(i % org.Crossbars())) })
	add("pmem", "pmem.execute_simd_us", 1e3, "", computeCalls, func(i int) {
		check(mem.ExecuteSIMD(i%org.Banks, 1, plan.Mapping, plan.Rows))
	})

	// serve: configured as the workloads run it but with background
	// scrubbing off, so the rung holds only the request path.
	srv, err := newLadderServer(nil)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	batches := chunks(rw)
	add("serve", "serve.do_ns", 1, "serve.do_allocs", len(rw), func(i int) { check(srv.Do(rw[i]).Err) })
	add("serve", "serve.batch64_us", 1e3, "", len(batches), func(i int) {
		for _, r := range submitAll(srv, batches[i]) {
			check(r.Err)
		}
	})
	add("serve", "serve.compute_do_us", 1e3, "", computeCalls, func(i int) {
		check(srv.Do(serve.Request{Op: serve.OpCompute, Addr: int64(i%org.Banks)*org.BankBits() + xbarBits, Plan: plan}).Err)
	})

	// netfleet: one Fleet.Do of a 64-request batch on the fleet-read
	// topology.
	fs, err := newFleetSys(nil, 0)
	if err != nil {
		return nil, err
	}
	defer fs.close()
	add("netfleet", "netfleet.batch64_us", 1e3, "", len(batches), func(i int) {
		for _, r := range fs.f.Do(batches[i]) {
			check(r.Err)
		}
	})
	fleetBefore := takeProbe(fs.registries()...)

	for round := 0; round < ladderRounds; round++ {
		for _, r := range rungs {
			id, start := tr.begin()
			r.pass()
			tr.end(id, root, r.layer, "ladder."+r.metric, start)
			if lerr != nil {
				return nil, fmt.Errorf("ladder %s: %w", r.metric, lerr)
			}
		}
	}

	l := &ladder{vals: map[string]float64{}}
	for _, r := range rungs {
		l.vals[r.metric] = median(r.passNs) / r.scale
		if r.allocs != "" {
			l.vals[r.allocs] = r.allocN
		}
	}
	simd, calls := mc.Stats(), float64(ladderRounds*computeCalls)
	l.vals["ecc.critical_ops_per_compute"] = float64(simd.CriticalOps-simdBefore.CriticalOps) / calls
	l.vals["ecc.input_checks_per_compute"] = float64(simd.InputChecks-simdBefore.InputChecks) / calls
	l.vals["machine.mem_cycles_per_compute"] = float64(simd.MEMCycles-simdBefore.MEMCycles) / calls
	fleetAfter := takeProbe(fs.registries()...)
	l.fleetTally = fleetAfter.tel.since(fleetBefore.tel)
	l.fleetSecs = fleetAfter.at.Sub(fleetBefore.at).Seconds()

	// The serve layer's own wait and latency series, from an instrumented
	// server replaying the same requests once.
	reg := telemetry.New()
	isrv, err := newLadderServer(reg)
	if err != nil {
		return nil, err
	}
	for _, r := range rw {
		check(isrv.Do(r).Err)
	}
	isrv.Close()
	if lerr != nil {
		return nil, fmt.Errorf("ladder: %w", lerr)
	}
	l.serveTally = tallyOf(reg)

	v := l.vals
	v["netfleet.wire_us"] = v["netfleet.batch64_us"] - v["serve.batch64_us"]
	var segs, nw int
	for _, r := range rw {
		if r.Op == serve.OpWrite {
			nw++
			_ = org.ForEachSegment(r.Addr, int64(r.Width), func(mmpu.Segment) error { segs++; return nil })
		}
	}
	wshare := float64(nw) / float64(len(rw))
	l.selfNs = map[string]float64{
		"machine":  v["machine.update_row_ns"] - v["cmem.update_critical_ns"],
		"pmem":     v["pmem.write_word_ns"] - float64(segs)/float64(max(nw, 1))*v["machine.update_row_ns"],
		"serve":    v["serve.do_ns"] - (wshare*v["pmem.write_word_ns"] + (1-wshare)*v["pmem.read_word_ns"]),
		"netfleet": v["netfleet.wire_us"] * 1e3 / fleetBatch,
	}
	return l, nil
}

// newLadderServer starts a server over a fresh memory with the workloads'
// worker count and no background scrubbing; reg may be nil.
func newLadderServer(reg *telemetry.Registry) (*serve.Server, error) {
	mem, err := pmem.New(memCfg)
	if err != nil {
		return nil, err
	}
	mem.Instrument(reg)
	return serve.New(serve.Config{Mem: mem, Workers: workers, Telemetry: reg})
}

// loadedMachine returns a protected crossbar holding random data with
// consistent check bits, written through the controller path.
func loadedMachine(rng *rand.Rand) (*machine.Machine, error) {
	n := org.CrossbarN
	m, err := machine.New(machine.Config{N: n, M: blockM, K: procXbars, ECCEnabled: true})
	if err != nil {
		return nil, err
	}
	src := bitmat.NewMat(n, n)
	src.Randomize(rng)
	for r := 0; r < n; r++ {
		if err := m.LoadRow(r, src.Row(r)); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// chunks cuts ops into fleetBatch-request batches.
func chunks(ops []serve.Request) [][]serve.Request {
	var out [][]serve.Request
	for lo := 0; lo < len(ops); lo += fleetBatch {
		out = append(out, ops[lo:min(lo+fleetBatch, len(ops))])
	}
	return out
}
