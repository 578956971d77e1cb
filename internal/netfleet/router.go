package netfleet

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mmpu"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// FleetConfig describes the fleet from the client's side: the global
// organization (identical to every node's) and one address per node, in
// node order. Routing is a pure function of the organization and the
// address list — no metadata service, no discovery round-trip: bank b
// lives on node Org.ShardNodes(len(Addrs)).NodeOf(b), always.
type FleetConfig struct {
	Org   mmpu.Organization
	Addrs []string

	// BatchSize caps requests per frame (default 256). Window caps
	// in-flight frames per node (default 8) — the per-node backpressure
	// bound.
	BatchSize int
	Window    int

	// RetryDeadline bounds the total retry budget per call (default 5s):
	// a node restarting within it costs latency, not errors.
	RetryDeadline time.Duration
}

// dialTimeout bounds one connection attempt; callTimeout bounds one
// request round-trip.
const (
	dialTimeout = time.Second
	callTimeout = 10 * time.Second
)

// Fleet is the client-side router: it splits request batches by owning
// node, ships the shards concurrently over pipelined connections, and
// stitches responses back into request order.
type Fleet struct {
	cfg   FleetConfig
	nm    mmpu.NodeMap
	conns []*nodeConn

	mu     sync.Mutex
	closed bool
}

// Dial builds a fleet handle. Connections are established lazily on
// first use, so Dial succeeds even while nodes are still starting; the
// per-call retry deadline absorbs the race.
func Dial(cfg FleetConfig) (*Fleet, error) {
	if err := cfg.Org.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("netfleet: no node addresses")
	}
	nm := cfg.Org.ShardNodes(len(cfg.Addrs))
	if nm.Nodes() != len(cfg.Addrs) {
		return nil, fmt.Errorf("netfleet: %d nodes over %d banks leaves empty shards", len(cfg.Addrs), cfg.Org.Banks)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.BatchSize > maxBatch {
		cfg.BatchSize = maxBatch
	}
	if cfg.Window <= 0 {
		cfg.Window = 8
	}
	if cfg.RetryDeadline <= 0 {
		cfg.RetryDeadline = 5 * time.Second
	}
	opts := connOpts{window: cfg.Window, retryDeadline: cfg.RetryDeadline}
	f := &Fleet{cfg: cfg, nm: nm}
	for _, addr := range cfg.Addrs {
		f.conns = append(f.conns, newNodeConn(addr, opts))
	}
	return f, nil
}

// Nodes returns the fleet size.
func (f *Fleet) Nodes() int { return f.nm.Nodes() }

// NodeMap returns the routing map.
func (f *Fleet) NodeMap() mmpu.NodeMap { return f.nm }

// Check hellos every node and verifies its view of the fleet — geometry,
// fleet size, own index, owned bank range — against the client's. A
// mis-started fleet (wrong -nodes, swapped addresses, different
// geometry) fails here, loudly, before any request is routed.
func (f *Fleet) Check() error {
	for i, c := range f.conns {
		h, err := c.hello()
		if err != nil {
			return fmt.Errorf("netfleet: node %d (%s): %w", i, c.addr, err)
		}
		lo, hi := f.nm.Range(i)
		switch {
		case h.Node != i:
			return fmt.Errorf("netfleet: address %d (%s) answered as node %d", i, c.addr, h.Node)
		case h.Nodes != f.nm.Nodes():
			return fmt.Errorf("netfleet: node %d sized for %d-node fleet, client for %d", i, h.Nodes, f.nm.Nodes())
		case h.N != f.cfg.Org.CrossbarN || h.Banks != f.cfg.Org.Banks || h.PerBank != f.cfg.Org.PerBank:
			return fmt.Errorf("netfleet: node %d geometry %dx%d banks=%d perbank=%d differs from client %dx%d banks=%d perbank=%d",
				i, h.N, h.N, h.Banks, h.PerBank,
				f.cfg.Org.CrossbarN, f.cfg.Org.CrossbarN, f.cfg.Org.Banks, f.cfg.Org.PerBank)
		case h.BankLo != lo || h.BankHi != hi:
			return fmt.Errorf("netfleet: node %d owns banks [%d,%d), client routes [%d,%d)", i, h.BankLo, h.BankHi, lo, hi)
		}
	}
	return nil
}

// routed is one wire-bound sub-request: which node serves it, which
// original request it answers, and where its bits land in the stitched
// result (LSB-first, as everywhere in pmem).
type routed struct {
	origIdx int
	node    int
	req     serve.Request
	shift   int
}

// Do executes a batch of requests across the fleet and returns responses
// in request order. Requests are grouped by owning node, chunked to
// BatchSize, and shipped concurrently; per-node windows apply
// backpressure independently, so one slow node does not stall traffic to
// the others. Addresses stay global on the wire — nodes rebase them.
//
// A request whose bit span crosses a shard boundary is split at the
// boundary and served by both owners, then stitched back LSB-first —
// the fleet keeps the single-process server's spanning semantics (width
// is at most 64 bits and shards are whole banks, so a span touches at
// most two nodes).
func (f *Fleet) Do(reqs []serve.Request) []serve.Response {
	resps := make([]serve.Response, len(reqs))
	items := make([]routed, 0, len(reqs))
	for i, r := range reqs {
		if r.Op != serve.OpRead && r.Op != serve.OpWrite {
			resps[i] = serve.Response{Err: ErrNotTransportable}
			continue
		}
		node, err := f.nm.NodeOfBit(r.Addr)
		if err != nil {
			resps[i] = serve.Response{Err: err}
			continue
		}
		endNode := node
		if r.Width > 1 {
			endNode, err = f.nm.NodeOfBit(r.Addr + int64(r.Width) - 1)
			if err != nil {
				resps[i] = serve.Response{Err: err}
				continue
			}
		}
		if endNode == node {
			items = append(items, routed{origIdx: i, node: node, req: r})
			continue
		}
		_, hi := f.nm.Range(node)
		cut := int64(hi) * f.cfg.Org.BankBits()
		w1 := int(cut - r.Addr)
		r1, r2 := r, r
		r1.Width = w1
		r2.Addr, r2.Width = cut, r.Width-w1
		if r.Op == serve.OpWrite {
			r1.Data = r.Data & (1<<w1 - 1)
			r2.Data = r.Data >> w1
		}
		items = append(items,
			routed{origIdx: i, node: node, req: r1},
			routed{origIdx: i, node: endNode, req: r2, shift: w1})
	}
	out := make([]serve.Response, len(items))
	groups := make([][]int, f.nm.Nodes())
	for j, it := range items {
		groups[it.node] = append(groups[it.node], j)
	}
	var wg sync.WaitGroup
	for node, idxs := range groups {
		for len(idxs) > 0 {
			n := len(idxs)
			if n > f.cfg.BatchSize {
				n = f.cfg.BatchSize
			}
			chunk := idxs[:n]
			idxs = idxs[n:]
			wg.Add(1)
			go func(node int, chunk []int) {
				defer wg.Done()
				batch := make([]serve.Request, len(chunk))
				for k, j := range chunk {
					batch[k] = items[j].req
				}
				resp, err := f.conns[node].batch(batch)
				if err != nil {
					for _, j := range chunk {
						out[j] = serve.Response{Err: err}
					}
					return
				}
				for k, j := range chunk {
					out[j] = resp[k]
				}
			}(node, chunk)
		}
	}
	wg.Wait()
	for j, it := range items {
		if out[j].Err != nil {
			if resps[it.origIdx].Err == nil {
				resps[it.origIdx].Err = out[j].Err
			}
			continue
		}
		resps[it.origIdx].Data |= out[j].Data << it.shift
	}
	return resps
}

// Read serves one blocking read of up to 64 bits at a global bit address.
func (f *Fleet) Read(addr int64, width int) (uint64, error) {
	r := f.Do([]serve.Request{{Op: serve.OpRead, Addr: addr, Width: width}})[0]
	return r.Data, r.Err
}

// Write serves one blocking write of up to 64 bits at a global bit address.
func (f *Fleet) Write(addr int64, width int, data uint64) error {
	return f.Do([]serve.Request{{Op: serve.OpWrite, Addr: addr, Width: width, Data: data}})[0].Err
}

// Snapshot fetches every node's telemetry snapshot and merges them into
// one fleet-wide view. Merge is commutative and associative, so the
// result is independent of node order — the same guarantee the
// in-process shards have, preserved across the network by the wire
// codec (telemetry.WireSnapshot).
func (f *Fleet) Snapshot() (telemetry.Snapshot, error) {
	var merged telemetry.Snapshot
	for i, c := range f.conns {
		s, err := c.snapshot()
		if err != nil {
			return telemetry.Snapshot{}, fmt.Errorf("netfleet: node %d snapshot: %w", i, err)
		}
		merged = merged.Merge(s)
	}
	return merged, nil
}

// Stats fetches every node's introspection document, in node order.
func (f *Fleet) Stats() ([]NodeStats, error) {
	out := make([]NodeStats, len(f.conns))
	for i, c := range f.conns {
		s, err := c.stats()
		if err != nil {
			return nil, fmt.Errorf("netfleet: node %d stats: %w", i, err)
		}
		out[i] = s
	}
	return out, nil
}

// Close releases every connection. In-flight calls fail with
// ErrFleetClosed; subsequent calls refuse immediately.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.mu.Unlock()
	for _, c := range f.conns {
		c.close()
	}
}
