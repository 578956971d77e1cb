package serve

import (
	"fmt"
	"slices"

	"repro/internal/bitmat"
	"repro/internal/mmpu"
	"repro/internal/pmem"
)

// execInfo describes how one request was physically served — the facts
// the cost model and the statistics both derive from.
type execInfo struct {
	write     bool
	compute   bool // an OpCompute SIMD pipeline (never coalesced)
	coalesced bool // served from the previous request's open row
	segments  int  // crossbar-row segments touched (1 for in-row requests)
}

// executor turns request streams into pmem accesses. It is the shared
// service core of the live Server and the deterministic Replay engine:
// requests execute strictly in arrival order, but consecutive requests
// hitting the same crossbar row are coalesced into one row
// activation — one AccessRow with a single ECC delta update however many
// requests share the row (the row-buffer model of a DRAM controller,
// here paying off through the paper's Θ(1) diagonal check-bit update).
type executor struct {
	mem *pmem.Memory
	org mmpu.Organization

	// coalesce, when set, observes each multi-request row activation:
	// merged requests served by one open row (the telemetry EvCoalesce
	// hook; nil when tracing is off).
	coalesce func(bank, xb, row, merged int)

	// One coalesced group's scratch, reused: each core owns its executor.
	cols  []int
	resps []Response
}

// singleRow reports whether the request lies entirely within one crossbar
// row, returning its segment. Malformed requests and row-crossing spans
// both take the spanning path, which produces the validation error.
func (ex *executor) singleRow(r Request) (mmpu.Segment, bool) {
	// Addr > DataBits()-Width is the overflow-safe form of Addr+Width >
	// DataBits(): a near-MaxInt64 address must not wrap negative and
	// skate past the guard into Locate. (Width is already in [1,64], so
	// the subtraction cannot itself underflow.)
	if r.Width <= 0 || r.Width > 64 || r.Addr < 0 || r.Addr > ex.org.DataBits()-int64(r.Width) {
		return mmpu.Segment{}, false
	}
	a, err := ex.org.Locate(r.Addr)
	if err != nil || a.Col+r.Width > ex.org.CrossbarN {
		return mmpu.Segment{}, false
	}
	return mmpu.Segment{Bank: a.Bank, Crossbar: a.Crossbar, Row: a.Row, Col: a.Col, Bits: r.Width}, true
}

// runSpanning serves one request through pmem's word path (which walks
// the range segment by segment under the bank locks).
func (ex *executor) runSpanning(r Request) (Response, execInfo) {
	info := execInfo{write: r.Op == OpWrite, segments: 1}
	var resp Response
	if r.Op == OpWrite {
		resp.Err = ex.mem.WriteWord(r.Addr, r.Data, r.Width)
	} else {
		resp.Data, resp.Err = ex.mem.ReadWord(r.Addr, r.Width)
	}
	if resp.Err == nil && r.Width > 0 {
		// Segments break at row ends, every CrossbarN bits: one for the
		// head run plus one per further (possibly partial) row.
		n := ex.org.CrossbarN
		head := n - int(r.Addr%int64(n))
		info.segments = 1
		if rem := r.Width - head; rem > 0 {
			info.segments += (rem + n - 1) / n
		}
	}
	return resp, info
}

// runCompute serves one OpCompute request: the plan's SIMD pipeline runs
// on the crossbar owning the request's address, under that bank's lock.
// Compute never coalesces — each pipeline is its own row-region pass.
func (ex *executor) runCompute(r Request) (Response, execInfo) {
	info := execInfo{compute: true, segments: 1}
	if r.Plan == nil || r.Plan.Mapping == nil {
		return Response{Err: fmt.Errorf("serve: compute request without a plan")}, info
	}
	a, err := ex.org.Locate(r.Addr)
	if err != nil {
		return Response{Err: fmt.Errorf("serve: %w", err)}, info
	}
	rows := r.Plan.Rows
	if rows == nil {
		return Response{Err: fmt.Errorf("serve: compute plan without a row set")}, info
	}
	if err := ex.mem.ExecuteSIMD(a.Bank, a.Crossbar, r.Plan.Mapping, rows); err != nil {
		return Response{Err: err}, info
	}
	return Response{}, info
}

// run executes reqs in arrival order, emitting each request's response
// and execution facts in that same order.
func (ex *executor) run(reqs []Request, emit func(i int, resp Response, info execInfo)) {
	for i := 0; i < len(reqs); {
		if reqs[i].Op == OpCompute {
			resp, info := ex.runCompute(reqs[i])
			emit(i, resp, info)
			i++
			continue
		}
		seg, ok := ex.singleRow(reqs[i])
		if !ok {
			resp, info := ex.runSpanning(reqs[i])
			emit(i, resp, info)
			i++
			continue
		}
		// Extend the run while requests keep hitting the open row.
		cols := append(ex.cols[:0], seg.Col)
		j := i + 1
		for j < len(reqs) {
			s, ok := ex.singleRow(reqs[j])
			if !ok || s.Bank != seg.Bank || s.Crossbar != seg.Crossbar || s.Row != seg.Row {
				break
			}
			cols = append(cols, s.Col)
			j++
		}
		group := reqs[i:j]
		resps := slices.Grow(ex.resps[:0], len(group))[:len(group)]
		clear(resps)
		ex.cols, ex.resps = cols, resps
		err := ex.mem.AccessRow(seg.Bank, seg.Crossbar, seg.Row, func(v *bitmat.Vec) bool {
			dirty := false
			for k, r := range group {
				col := cols[k]
				if r.Op == OpWrite {
					v.SetUint64At(col, r.Width, r.Data)
					dirty = true
				} else {
					// Reads see the group's earlier writes: the row buffer
					// serves read-your-write within the batch.
					resps[k].Data = v.Uint64At(col, r.Width)
				}
			}
			return dirty
		})
		for k := range group {
			if err != nil {
				resps[k] = Response{Err: err}
			}
			emit(i+k, resps[k], execInfo{write: group[k].Op == OpWrite, coalesced: k > 0, segments: 1})
		}
		if len(group) > 1 && ex.coalesce != nil {
			ex.coalesce(seg.Bank, seg.Crossbar, seg.Row, len(group))
		}
		i = j
	}
}
