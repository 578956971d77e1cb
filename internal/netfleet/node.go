package netfleet

import (
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/election"
	"repro/internal/mmpu"
	"repro/internal/pmem"
	"repro/internal/repair"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// NodeConfig sizes one fleet node: which shard of the global organization
// it owns, how to reach its peers, and the serving knobs threaded through
// from the single-process layer (-ecc, -repair, -admit, -workers all keep
// their meaning per node).
type NodeConfig struct {
	Org   mmpu.Organization // the GLOBAL geometry, identical fleet-wide
	Nodes int               // fleet size
	Index int               // this node's index in [0, Nodes)

	// Addr is the listen address. Tests that need a kernel-assigned port
	// may pass an existing Listener instead; Addr is then ignored.
	Addr     string
	Listener net.Listener
	// Peers holds every node's address, indexed by node; the entry at
	// Index is this node itself (ignored for sends). Election gossip and
	// scrub grants flow over these links.
	Peers []string

	// Memory configuration, as in pmem.Config / the shared CLI flags.
	M, K   int
	ECC    bool
	Scheme string
	Repair repair.Config

	// Serving knobs (serve.Config semantics, per node).
	Workers      int
	BatchSize    int
	ScrubEvery   int // node-local scrub admission; 0 leaves scrubbing to the fleet rotation
	ComputeAdmit int64

	// Round is the election round period (default 25ms); ElectionK the
	// hearsay lease in rounds (default election.DefaultK).
	Round     time.Duration
	ElectionK int

	// ChannelNs models the node's memory channel: every served request
	// occupies the channel for this many wall nanoseconds, serialized
	// node-wide — the live-server analogue of replay's virtual service
	// clocks. Per-node throughput is then device-bound rather than
	// host-bound, which is what makes fleet scaling measurable (and
	// reproducible) on any host. 0 serves as fast as the host allows.
	ChannelNs int64

	// Telemetry receives the node's series; nil creates a private
	// registry — a network node is always introspectable.
	Telemetry *telemetry.Registry
}

// NodeStats is the introspection document a node serves over msgStatsReq.
type NodeStats struct {
	Node     int   `json:"node"`
	BankLo   int   `json:"bank_lo"`
	BankHi   int   `json:"bank_hi"`
	Leader   int64 `json:"leader"`
	Epoch    int64 `json:"epoch"`
	IsLeader bool  `json:"is_leader"`

	Requests    int64 `json:"requests"`
	Batches     int64 `json:"batches"`
	Scrubs      int64 `json:"scrubs"`
	StaleGrants int64 `json:"stale_grants"`

	// Grants is the node's executed-scrub log (epoch, crossbar) — the
	// evidence the no-double-scrub assertions read.
	Grants []GrantRec `json:"grants,omitempty"`
}

// peerLink is a lazily dialed, best-effort, one-way link for gossip and
// grants. Send failures drop the message and back off: the election is
// built to survive lost rounds, so the link never blocks a round on a
// dead peer.
type peerLink struct {
	addr    string
	timeout time.Duration

	mu        sync.Mutex
	conn      net.Conn
	failUntil time.Time
}

func (p *peerLink) send(typ byte, payload []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if p.conn == nil {
		if now.Before(p.failUntil) {
			return false
		}
		c, err := net.DialTimeout("tcp", p.addr, p.timeout)
		if err != nil {
			p.failUntil = now.Add(4 * p.timeout)
			return false
		}
		p.conn = c
	}
	_ = p.conn.SetWriteDeadline(now.Add(p.timeout))
	if err := writeFrame(p.conn, typ, 0, payload); err != nil {
		_ = p.conn.Close()
		p.conn = nil
		p.failUntil = now.Add(4 * p.timeout)
		return false
	}
	return true
}

func (p *peerLink) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != nil {
		_ = p.conn.Close()
		p.conn = nil
	}
}

// pacer enforces ChannelNs: one schedule clock per node, advanced by
// every served batch, so aggregate service never outruns the modeled
// channel no matter how many connections or workers are active.
type pacer struct {
	perReq time.Duration
	mu     sync.Mutex
	next   time.Time
}

func (p *pacer) charge(n int) {
	if p == nil || p.perReq <= 0 || n <= 0 {
		return
	}
	p.mu.Lock()
	now := time.Now()
	if p.next.Before(now) {
		p.next = now
	}
	p.next = p.next.Add(time.Duration(n) * p.perReq)
	d := p.next.Sub(now)
	p.mu.Unlock()
	time.Sleep(d)
}

// Node is one running shard server.
type Node struct {
	cfg  NodeConfig
	nm   mmpu.NodeMap
	lo   int // first owned bank (global index)
	hi   int
	mem  *pmem.Memory
	srv  *serve.Server
	reg  *telemetry.Registry
	ln   net.Listener
	rot  *rotation
	pace *pacer

	peers  []*peerLink
	frames sync.Pool // *frame, batch-frame scratch

	reads, writes, batches  *telemetry.Counter
	scrubs, stale, grantsRx *telemetry.Counter
	gossipRx, gossipTx      *telemetry.Counter
	scrubCorr, scrubUncorr  *telemetry.Counter

	wg    sync.WaitGroup
	done  chan struct{}
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	open  bool
}

// NewNode builds the shard memory and its server, and starts the
// listener and the election loop.
func NewNode(cfg NodeConfig) (*Node, error) {
	if err := cfg.Org.Validate(); err != nil {
		return nil, err
	}
	if cfg.Nodes <= 0 || cfg.Index < 0 || cfg.Index >= cfg.Nodes {
		return nil, fmt.Errorf("netfleet: node %d of %d out of range", cfg.Index, cfg.Nodes)
	}
	if len(cfg.Peers) != 0 && len(cfg.Peers) != cfg.Nodes {
		return nil, fmt.Errorf("netfleet: %d peer addresses for %d nodes", len(cfg.Peers), cfg.Nodes)
	}
	if cfg.Round <= 0 {
		cfg.Round = 25 * time.Millisecond
	}
	nm := cfg.Org.ShardNodes(cfg.Nodes)
	if nm.Nodes() != cfg.Nodes {
		return nil, fmt.Errorf("netfleet: %d nodes over %d banks leaves empty shards", cfg.Nodes, cfg.Org.Banks)
	}
	lo, hi := nm.Range(cfg.Index)
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.New()
	}
	mem, err := pmem.New(pmem.Config{
		Org: nm.LocalOrg(cfg.Index), M: cfg.M, K: cfg.K,
		ECCEnabled: cfg.ECC, Scheme: cfg.Scheme, Repair: cfg.Repair,
	})
	if err != nil {
		return nil, err
	}
	mem.Instrument(reg)
	srv, err := serve.New(serve.Config{
		Mem: mem, Workers: cfg.Workers,
		BatchSize: cfg.BatchSize, ScrubEvery: cfg.ScrubEvery,
		ComputeAdmit: cfg.ComputeAdmit, Telemetry: reg,
	})
	if err != nil {
		return nil, err
	}
	ln := cfg.Listener
	if ln == nil {
		ln, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			srv.Close()
			return nil, err
		}
	}
	k := cfg.ElectionK
	if k <= 0 {
		k = election.DefaultK
	}
	n := &Node{
		cfg: cfg, nm: nm, lo: lo, hi: hi, mem: mem, srv: srv, reg: reg, ln: ln,
		rot:  newRotation(int64(cfg.Index), k, cfg.Nodes == 1),
		pace: &pacer{perReq: time.Duration(cfg.ChannelNs)},
		done: make(chan struct{}), conns: make(map[net.Conn]struct{}), open: true,
	}
	n.reads = reg.Counter("netfleet_requests_total", "node", strconv.Itoa(cfg.Index), "op", "read")
	n.writes = reg.Counter("netfleet_requests_total", "node", strconv.Itoa(cfg.Index), "op", "write")
	n.batches = reg.Counter("netfleet_batches_total", "node", strconv.Itoa(cfg.Index))
	n.scrubs = reg.Counter("netfleet_scrubs_total", "node", strconv.Itoa(cfg.Index))
	n.stale = reg.Counter("netfleet_scrub_stale_total", "node", strconv.Itoa(cfg.Index))
	n.grantsRx = reg.Counter("netfleet_grants_rx_total", "node", strconv.Itoa(cfg.Index))
	n.gossipRx = reg.Counter("netfleet_gossip_rx_total", "node", strconv.Itoa(cfg.Index))
	n.gossipTx = reg.Counter("netfleet_gossip_tx_total", "node", strconv.Itoa(cfg.Index))
	n.scrubCorr = reg.Counter("netfleet_scrub_corrected_total", "node", strconv.Itoa(cfg.Index))
	n.scrubUncorr = reg.Counter("netfleet_scrub_uncorrectable_total", "node", strconv.Itoa(cfg.Index))
	peerTimeout := cfg.Round / 2
	if peerTimeout < 5*time.Millisecond {
		peerTimeout = 5 * time.Millisecond
	}
	for i, addr := range cfg.Peers {
		if i == cfg.Index {
			n.peers = append(n.peers, nil)
			continue
		}
		n.peers = append(n.peers, &peerLink{addr: addr, timeout: peerTimeout})
	}
	n.wg.Add(2)
	go n.acceptLoop()
	go n.electionLoop()
	return n, nil
}

// Addr returns the bound listen address.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Registry returns the node's telemetry registry.
func (n *Node) Registry() *telemetry.Registry { return n.reg }

// Banks returns the global bank range [lo, hi) this node owns.
func (n *Node) Banks() (lo, hi int) { return n.lo, n.hi }

// ScrubLog returns the executed-grant log.
func (n *Node) ScrubLog() []GrantRec {
	_, _, _, log := n.rot.snapshot()
	return log
}

// Rotation returns the node's current election/rotation view.
func (n *Node) Rotation() (leader, epoch int64, isLeader bool) {
	leader, epoch, isLeader, _ = n.rot.snapshot()
	return leader, epoch, isLeader
}

// Stats assembles the introspection document.
func (n *Node) Stats() NodeStats {
	leader, epoch, isLeader, log := n.rot.snapshot()
	return NodeStats{
		Node: n.cfg.Index, BankLo: n.lo, BankHi: n.hi,
		Leader: leader, Epoch: epoch, IsLeader: isLeader,
		Requests:    n.reads.Value() + n.writes.Value(),
		Batches:     n.batches.Value(),
		Scrubs:      n.scrubs.Value(),
		StaleGrants: n.stale.Value(),
		Grants:      log,
	}
}

// Close stops the listener and the election loop, waits for the frames in
// flight, and closes the server, returning the merged serving statistics.
func (n *Node) Close() serve.Stats {
	n.mu.Lock()
	if !n.open {
		n.mu.Unlock()
		return serve.Stats{}
	}
	n.open = false
	close(n.done)
	_ = n.ln.Close()
	for c := range n.conns {
		_ = c.Close()
	}
	n.mu.Unlock()
	for _, p := range n.peers {
		if p != nil {
			p.close()
		}
	}
	n.wg.Wait()
	return n.srv.Close()
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		if !n.open {
			n.mu.Unlock()
			_ = conn.Close()
			return
		}
		n.conns[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.handle(conn)
	}
}

// framesInFlight bounds the batch frames one connection executes at once.
const framesInFlight = 16

// maxPooledReqs caps the frame scratch a node pools (the fleet's default
// 256-request frame): scratch a larger frame grew is dropped after use,
// so one outsized frame cannot pin its buffers.
const maxPooledReqs = 256

// frame is one batch frame's scratch, pooled across frames and
// connections: the payload as read, the decoded requests, their
// responses and the encoded response frame, header included.
type frame struct {
	seq   uint64
	in    []byte
	reqs  []serve.Request
	resps []serve.Response
	out   []byte
}

func (n *Node) newFrame() *frame {
	if f, ok := n.frames.Get().(*frame); ok {
		return f
	}
	return new(frame)
}

// recycle pools f unless a frame above maxPooledReqs grew it (resps
// grows with reqs). The byte buffers may hold twice such a frame's
// request payload, which covers the frame header and allocation
// rounding; a long control frame or long error texts can pass that.
func (n *Node) recycle(f *frame) {
	const maxBytes = 2 * maxPooledReqs * reqSize
	if cap(f.reqs) <= maxPooledReqs && cap(f.in) <= maxBytes && cap(f.out) <= maxBytes {
		n.frames.Put(f)
	}
}

// handle serves one connection. Batch frames execute concurrently
// (pipelining across in-flight frames) on up to framesInFlight frame
// workers that live as long as the connection: a frame goes to an idle
// worker, else to a new one, else waits until one frees up. Responses
// are matched by sequence number, so completion order is free.
func (n *Node) handle(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		n.mu.Lock()
		delete(n.conns, conn)
		n.mu.Unlock()
		_ = conn.Close()
	}()
	var wmu sync.Mutex
	var workers sync.WaitGroup
	work := make(chan *frame)
	started := 0
	defer func() {
		close(work)
		workers.Wait()
	}()
	f := n.newFrame()
	for {
		typ, seq, payload, err := readFrame(conn, f.in)
		if err != nil {
			return
		}
		f.in = payload
		switch typ {
		case msgBatch:
			f.seq = seq
			select {
			case work <- f:
			default:
				if started < framesInFlight {
					started++
					workers.Add(1)
					go func() {
						defer workers.Done()
						for f := range work {
							n.serveBatch(conn, &wmu, f)
							n.recycle(f)
						}
					}()
				}
				work <- f
			}
			f = n.newFrame()
		case msgHello:
			n.reply(conn, &wmu, msgHelloResp, seq, n.helloDoc())
		case msgSnapshotReq:
			n.reply(conn, &wmu, msgSnapshotResp, seq, n.reg.Snapshot().Wire())
		case msgStatsReq:
			n.reply(conn, &wmu, msgStatsResp, seq, n.Stats())
		case msgGossip:
			var g gossipMsg
			if json.Unmarshal(payload, &g) == nil {
				n.gossipRx.Inc()
				n.rot.observe(g)
			}
		case msgGrant:
			var g grantMsg
			if json.Unmarshal(payload, &g) == nil {
				n.grantsRx.Inc()
				n.execGrant(g)
			}
		default:
			n.reply(conn, &wmu, msgErr, seq, wireError{Error: fmt.Sprintf("unknown message type %d", typ)})
		}
	}
}

// reply writes one JSON-payload response frame.
func (n *Node) reply(conn net.Conn, wmu *sync.Mutex, typ byte, seq uint64, doc any) {
	payload, err := json.Marshal(doc)
	if err != nil {
		return
	}
	wmu.Lock()
	defer wmu.Unlock()
	_ = writeFrame(conn, typ, seq, payload)
}

func (n *Node) helloDoc() hello {
	_, epoch, _, _ := n.rot.snapshot()
	return hello{
		Node: n.cfg.Index, Nodes: n.cfg.Nodes,
		N: n.cfg.Org.CrossbarN, Banks: n.cfg.Org.Banks, PerBank: n.cfg.Org.PerBank,
		BankLo: n.lo, BankHi: n.hi, Epoch: epoch,
	}
}

// serveBatch decodes, translates, executes, paces, and answers one
// request batch in f's scratch. Addresses arrive in the global flat
// space; the node rebases them into its shard. A request routed to the
// wrong node lands outside the local address space and fails with the
// range error — loud, never silently served from the wrong bank.
func (n *Node) serveBatch(conn net.Conn, wmu *sync.Mutex, f *frame) {
	reqs, err := decodeBatch(f.reqs, f.in)
	if err != nil {
		n.reply(conn, wmu, msgErr, f.seq, wireError{Error: err.Error()})
		return
	}
	f.reqs = reqs
	writes := 0
	for i := range reqs {
		reqs[i].Addr = n.nm.ToLocal(n.cfg.Index, reqs[i].Addr)
		if reqs[i].Op == serve.OpWrite {
			writes++
		}
	}
	n.writes.Add(int64(writes))
	n.reads.Add(int64(len(reqs) - writes))
	f.resps = slices.Grow(f.resps[:0], len(reqs))[:len(reqs)]
	n.srv.DoBatch(reqs, f.resps)
	n.batches.Inc()
	n.pace.charge(len(reqs))
	out, err := encodeResponses(appendHeader(f.out[:0], msgBatchResp, f.seq), f.resps)
	f.out = out
	if err != nil {
		n.reply(conn, wmu, msgErr, f.seq, wireError{Error: err.Error()})
		return
	}
	putLength(out)
	wmu.Lock()
	defer wmu.Unlock()
	_, _ = conn.Write(out)
}

// electionLoop drives the rotation: one Tick per Round, gossip to every
// peer, and — while stable leader — one scrub grant per round.
func (n *Node) electionLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.Round)
	defer t.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-t.C:
		}
		gossip, grant := n.rot.tick(n.cfg.Org.Crossbars())
		payload, err := json.Marshal(gossip)
		if err == nil {
			for i, p := range n.peers {
				if p == nil || i == n.cfg.Index {
					continue
				}
				if p.send(msgGossip, payload) {
					n.gossipTx.Inc()
				}
			}
		}
		if grant == nil {
			continue
		}
		bank, _ := n.cfg.Org.CrossbarAt(grant.Xbar)
		owner := n.nm.NodeOf(bank)
		if owner == n.cfg.Index {
			n.execGrant(*grant)
			continue
		}
		if gp, err := json.Marshal(grant); err == nil && n.peers != nil && owner < len(n.peers) && n.peers[owner] != nil {
			n.peers[owner].send(msgGrant, gp)
		}
	}
}

// execGrant runs one admitted scrub grant against the owned crossbar.
func (n *Node) execGrant(g grantMsg) {
	bank, xb := n.cfg.Org.CrossbarAt(g.Xbar)
	if bank < n.lo || bank >= n.hi {
		n.stale.Inc() // misrouted: not ours
		return
	}
	if !n.rot.admit(g) {
		n.stale.Inc()
		return
	}
	c, u := n.mem.ScrubCrossbar(bank-n.lo, xb)
	n.scrubs.Inc()
	n.scrubCorr.Add(int64(c))
	n.scrubUncorr.Add(int64(u))
	if ring := n.reg.Events(); ring != nil {
		ring.Emit(telemetry.EvAdmission, time.Now().UnixNano(), bank, xb, g.Epoch, 0)
	}
}
