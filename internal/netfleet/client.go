package netfleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/telemetry"
)

// ErrFleetClosed reports an operation on a closed Fleet. It mirrors
// serve.ErrServerClosed's discipline: a racing call either completes
// before the close or returns this error.
var ErrFleetClosed = errors.New("netfleet: fleet closed")

// ErrNodeUnavailable reports that a node stayed unreachable past the
// retry deadline. Transient failures — a node restarting, a dropped
// connection — are retried with backoff and surface as latency, not as
// this error; only a node down for the whole deadline produces it.
var ErrNodeUnavailable = errors.New("netfleet: node unavailable")

// ErrNotTransportable reports a request the wire cannot carry (compute
// plans are process-local pointers; the fleet serves memory traffic).
var ErrNotTransportable = errors.New("netfleet: request not transportable")

// wireResp is one matched response frame or the connection failure that
// preempted it.
type wireResp struct {
	typ     byte
	payload []byte
	err     error
}

// liveConn is one established connection: a shared reader matching
// responses to callers by sequence number, so any number of frames may
// be in flight (pipelining), with completion order free.
type liveConn struct {
	conn net.Conn
	wmu  sync.Mutex // serializes frame writes

	pmu     sync.Mutex
	pending map[uint64]chan wireResp
	dead    bool
	reason  error
}

func (lc *liveConn) register(seq uint64) (chan wireResp, error) {
	lc.pmu.Lock()
	defer lc.pmu.Unlock()
	if lc.dead {
		return nil, lc.reason
	}
	ch := make(chan wireResp, 1)
	lc.pending[seq] = ch
	return ch, nil
}

func (lc *liveConn) deliver(seq uint64, typ byte, payload []byte) {
	lc.pmu.Lock()
	ch := lc.pending[seq]
	delete(lc.pending, seq)
	lc.pmu.Unlock()
	if ch != nil {
		ch <- wireResp{typ: typ, payload: payload}
	}
}

// fail kills the connection and answers every in-flight caller with err;
// callers then retry on a fresh connection (reads and writes are
// idempotent, so re-sending is safe).
func (lc *liveConn) fail(err error) {
	lc.pmu.Lock()
	if lc.dead {
		lc.pmu.Unlock()
		return
	}
	lc.dead = true
	lc.reason = err
	pending := lc.pending
	lc.pending = nil
	lc.pmu.Unlock()
	_ = lc.conn.Close()
	for _, ch := range pending {
		ch <- wireResp{err: err}
	}
}

func (lc *liveConn) isDead() bool {
	lc.pmu.Lock()
	defer lc.pmu.Unlock()
	return lc.dead
}

// connOpts are the per-node transport knobs, defaulted by FleetConfig.
type connOpts struct {
	window        int
	retryDeadline time.Duration
}

// nodeConn is the client's handle on one node: a (re)dialed connection,
// a window semaphore bounding in-flight frames (per-node backpressure —
// a slow node queues its own callers without starving the others), and
// the retry/backoff loop that turns node restarts into latency.
type nodeConn struct {
	addr   string
	opts   connOpts
	window chan struct{}

	mu     sync.Mutex
	lc     *liveConn
	seq    uint64
	closed bool
}

func newNodeConn(addr string, opts connOpts) *nodeConn {
	return &nodeConn{addr: addr, opts: opts, window: make(chan struct{}, opts.window)}
}

// live returns the current connection, dialing if needed, and the
// sequence number allotted to the caller's frame.
func (c *nodeConn) live() (*liveConn, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, 0, ErrFleetClosed
	}
	if c.lc == nil || c.lc.isDead() {
		conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
		if err != nil {
			return nil, 0, err
		}
		lc := &liveConn{conn: conn, pending: make(map[uint64]chan wireResp)}
		c.lc = lc
		go c.readLoop(lc)
	}
	c.seq++
	return c.lc, c.seq, nil
}

func (c *nodeConn) readLoop(lc *liveConn) {
	for {
		typ, seq, payload, err := readFrame(lc.conn, nil)
		if err != nil {
			lc.fail(fmt.Errorf("netfleet: connection to %s lost: %w", c.addr, err))
			return
		}
		lc.deliver(seq, typ, payload)
	}
}

// attempt sends one frame and waits for its response on the current
// connection. Any transport failure is returned for the caller to retry.
func (c *nodeConn) attempt(typ byte, payload []byte) (byte, []byte, error) {
	lc, seq, err := c.live()
	if err != nil {
		return 0, nil, err
	}
	ch, err := lc.register(seq)
	if err != nil {
		return 0, nil, err
	}
	lc.wmu.Lock()
	err = writeFrame(lc.conn, typ, seq, payload)
	lc.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("netfleet: write to %s: %w", c.addr, err)
		lc.fail(err)
		return 0, nil, err
	}
	t := time.NewTimer(callTimeout)
	defer t.Stop()
	select {
	case r := <-ch:
		if r.err != nil {
			return 0, nil, r.err
		}
		return r.typ, r.payload, nil
	case <-t.C:
		err := fmt.Errorf("netfleet: %s did not answer within %s", c.addr, callTimeout)
		lc.fail(err)
		return 0, nil, err
	}
}

// call sends one frame with retry: transient transport failures back off
// exponentially (2ms doubling, 250ms cap) until the retry deadline, then
// surface as ErrNodeUnavailable. The window semaphore is held across the
// whole call, including retries — a struggling node is never hammered by
// more than `window` concurrent callers.
func (c *nodeConn) call(typ byte, payload []byte) (byte, []byte, error) {
	c.window <- struct{}{}
	defer func() { <-c.window }()
	deadline := time.Now().Add(c.opts.retryDeadline)
	backoff := 2 * time.Millisecond
	var lastErr error
	for {
		rtyp, rp, err := c.attempt(typ, payload)
		if err == nil {
			return rtyp, rp, nil
		}
		if errors.Is(err, ErrFleetClosed) {
			return 0, nil, err
		}
		lastErr = err
		if time.Now().Add(backoff).After(deadline) {
			return 0, nil, fmt.Errorf("%w: %s: %v", ErrNodeUnavailable, c.addr, lastErr)
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > 250*time.Millisecond {
			backoff = 250 * time.Millisecond
		}
	}
}

// expect unwraps a call into the expected response type, decoding a
// server-reported msgErr (deterministic, not retried) into an error.
func (c *nodeConn) expect(typ byte, payload []byte, want byte) ([]byte, error) {
	rtyp, rp, err := c.call(typ, payload)
	if err != nil {
		return nil, err
	}
	if rtyp == msgErr {
		var we wireError
		if json.Unmarshal(rp, &we) == nil && we.Error != "" {
			return nil, fmt.Errorf("netfleet: remote: %s", we.Error)
		}
		return nil, errors.New("netfleet: remote error")
	}
	if rtyp != want {
		return nil, fmt.Errorf("netfleet: %s answered type %d, want %d", c.addr, rtyp, want)
	}
	return rp, nil
}

// batch executes one request batch on the node.
func (c *nodeConn) batch(reqs []serve.Request) ([]serve.Response, error) {
	payload, err := encodeBatch(reqs)
	if err != nil {
		return nil, err
	}
	rp, err := c.expect(msgBatch, payload, msgBatchResp)
	if err != nil {
		return nil, err
	}
	resps, err := decodeResponses(rp)
	if err != nil {
		return nil, err
	}
	if len(resps) != len(reqs) {
		return nil, fmt.Errorf("netfleet: %d responses for %d requests", len(resps), len(reqs))
	}
	return resps, nil
}

// hello performs the geometry handshake.
func (c *nodeConn) hello() (hello, error) {
	var h hello
	rp, err := c.expect(msgHello, []byte("{}"), msgHelloResp)
	if err != nil {
		return h, err
	}
	if err := json.Unmarshal(rp, &h); err != nil {
		return h, fmt.Errorf("netfleet: bad hello from %s: %w", c.addr, err)
	}
	return h, nil
}

// snapshot fetches the node's telemetry snapshot.
func (c *nodeConn) snapshot() (telemetry.Snapshot, error) {
	rp, err := c.expect(msgSnapshotReq, nil, msgSnapshotResp)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	var w telemetry.WireSnapshot
	if err := json.Unmarshal(rp, &w); err != nil {
		return telemetry.Snapshot{}, fmt.Errorf("netfleet: bad snapshot from %s: %w", c.addr, err)
	}
	return w.Snapshot(), nil
}

// stats fetches the node's introspection document.
func (c *nodeConn) stats() (NodeStats, error) {
	var s NodeStats
	rp, err := c.expect(msgStatsReq, nil, msgStatsResp)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(rp, &s); err != nil {
		return s, fmt.Errorf("netfleet: bad stats from %s: %w", c.addr, err)
	}
	return s, nil
}

// close fails in-flight calls and refuses new ones.
func (c *nodeConn) close() {
	c.mu.Lock()
	c.closed = true
	lc := c.lc
	c.lc = nil
	c.mu.Unlock()
	if lc != nil {
		lc.fail(ErrFleetClosed)
	}
}
