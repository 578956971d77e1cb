package netfleet

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/mmpu"
	"repro/internal/pmem"
	"repro/internal/serve"
)

// testOrg is a small fleet-worthy geometry: 6 banks × 2 crossbars.
func testOrg() mmpu.Organization { return mmpu.Custom(45, 6, 2) }

// listenLoopback opens n kernel-assigned loopback listeners up front so
// every node can know the full peer address list before any node starts.
func listenLoopback(t testing.TB, n int) ([]net.Listener, []string) {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return lns, addrs
}

// startFleet boots n nodes over loopback and returns them with their
// addresses. mut may adjust each node's config before start.
func startFleet(t testing.TB, org mmpu.Organization, n int, mut func(i int, c *NodeConfig)) ([]*Node, []string) {
	t.Helper()
	lns, addrs := listenLoopback(t, n)
	nodes := make([]*Node, n)
	for i := range nodes {
		cfg := NodeConfig{
			Org: org, Nodes: n, Index: i,
			Listener: lns[i], Peers: addrs,
			M: 15, K: 2, ECC: true,
			Workers: 2, Round: 5 * time.Millisecond, ElectionK: 4,
		}
		if mut != nil {
			mut(i, &cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			if n != nil {
				n.Close()
			}
		}
	})
	return nodes, addrs
}

func dialFleet(t *testing.T, org mmpu.Organization, addrs []string) *Fleet {
	t.Helper()
	f, err := Dial(FleetConfig{Org: org, Addrs: addrs, RetryDeadline: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFleetLoopbackReadWrite proves the data plane end to end: random
// writes across every shard read back exactly, through routing, global→
// local rebasing, batching, and the binary codecs.
func TestFleetLoopbackReadWrite(t *testing.T) {
	org := testOrg()
	nodes, addrs := startFleet(t, org, 3, nil)
	f := dialFleet(t, org, addrs)

	// Disjoint 64-bit slots: requests in one batch ship concurrently, so
	// overlapping spans would race. Disjointness is the client's contract
	// here, as it is for the single-process server's worker pool.
	const count = 250
	rng := rand.New(rand.NewSource(7))
	slots := org.DataBits() / 64
	reqs := make([]serve.Request, 0, count)
	want := make([]uint64, 0, count)
	slotSeen := map[int64]bool{}
	for len(reqs) < count {
		slot := rng.Int63n(slots - 1)
		if slotSeen[slot] {
			continue
		}
		slotSeen[slot] = true
		off := rng.Int63n(3)
		width := 1 + rng.Intn(64-int(off))
		v := rng.Uint64() & (1<<width - 1)
		reqs = append(reqs, serve.Request{Op: serve.OpWrite, Addr: slot*64 + off, Width: width, Data: v})
		want = append(want, v)
	}
	for i, r := range f.Do(reqs) {
		if r.Err != nil {
			t.Fatalf("write %d (addr %d): %v", i, reqs[i].Addr, r.Err)
		}
	}
	reads := make([]serve.Request, len(reqs))
	for i, r := range reqs {
		reads[i] = serve.Request{Op: serve.OpRead, Addr: r.Addr, Width: r.Width}
	}
	for i, r := range f.Do(reads) {
		if r.Err != nil {
			t.Fatalf("read %d: %v", i, r.Err)
		}
		if r.Data != want[i] {
			t.Fatalf("addr %d width %d: read %#x, wrote %#x", reqs[i].Addr, reqs[i].Width, r.Data, want[i])
		}
	}

	// Every node served some of the traffic — the router really fanned out.
	for i, n := range nodes {
		if s := n.Stats(); s.Requests == 0 {
			t.Fatalf("node %d served no requests", i)
		}
	}

	// A span straddling the node-0/node-1 shard boundary is split, served
	// by both owners, and stitched back — same semantics as one process.
	_, hi := f.NodeMap().Range(0)
	cut := int64(hi) * org.BankBits()
	const spanVal = 0x5A5A_F00D_BEEF_CAFE
	if err := f.Write(cut-13, 64, spanVal); err != nil {
		t.Fatalf("cross-node write: %v", err)
	}
	got, err := f.Read(cut-13, 64)
	if err != nil {
		t.Fatalf("cross-node read: %v", err)
	}
	if got != spanVal {
		t.Fatalf("cross-node span read %#x, wrote %#x", got, uint64(spanVal))
	}
}

// TestFleetErrorsSurviveTheWire proves the typed-error discipline: range,
// span, and closed errors come back as the same sentinels in-process
// callers match on, and compute requests are refused client-side.
func TestFleetErrorsSurviveTheWire(t *testing.T) {
	org := testOrg()
	nodes, addrs := startFleet(t, org, 2, nil)
	f := dialFleet(t, org, addrs)

	if _, err := f.Read(org.DataBits()+5, 8); err == nil {
		t.Fatal("out-of-range read routed")
	}
	// Width 100 crosses the wire (width is a byte) and must fail remotely
	// with the same ErrSpan the local server returns.
	if _, err := f.Read(0, 100); !errors.Is(err, pmem.ErrSpan) {
		t.Fatalf("remote span error = %v, want pmem.ErrSpan", err)
	}
	if r := f.Do([]serve.Request{{Op: serve.OpCompute, Addr: 0}})[0]; !errors.Is(r.Err, ErrNotTransportable) {
		t.Fatalf("compute request = %v, want ErrNotTransportable", r.Err)
	}

	// A closed node inside the retry deadline surfaces ErrNodeUnavailable,
	// not a hang: use a short deadline fleet against a dead address.
	nodes[1].Close()
	short, err := Dial(FleetConfig{Org: org, Addrs: addrs, RetryDeadline: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer short.Close()
	lo, _ := short.NodeMap().Range(1)
	deadAddr := int64(lo) * org.BankBits()
	if _, err := short.Read(deadAddr, 8); !errors.Is(err, ErrNodeUnavailable) {
		t.Fatalf("dead node read = %v, want ErrNodeUnavailable", err)
	}

	// Fleet close: further calls refuse with ErrFleetClosed.
	short.Close()
	if _, err := short.Read(0, 8); !errors.Is(err, ErrFleetClosed) {
		t.Fatalf("closed fleet read = %v, want ErrFleetClosed", err)
	}
}

// TestFleetGeometryMismatchRefused proves the hello handshake: a node
// configured with a different fleet shape is refused at Check time.
func TestFleetGeometryMismatchRefused(t *testing.T) {
	org := testOrg()
	_, addrs := startFleet(t, org, 2, nil)
	// Client believes the same addresses form a fleet of a different
	// geometry (more banks).
	wrong := mmpu.Custom(45, 8, 2)
	f, err := Dial(FleetConfig{Org: wrong, Addrs: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Check(); err == nil {
		t.Fatal("geometry mismatch not detected")
	}
}

// TestFleetSnapshotMerges proves fleet-wide observability: the merged
// snapshot carries every node's series, with counts summing exactly.
func TestFleetSnapshotMerges(t *testing.T) {
	org := testOrg()
	_, addrs := startFleet(t, org, 3, nil)
	f := dialFleet(t, org, addrs)

	const count = 300
	rng := rand.New(rand.NewSource(11))
	// Single-bit requests cannot straddle a shard boundary, so none get
	// split and the fleet-wide request count must equal exactly `count`.
	reqs := make([]serve.Request, count)
	for i := range reqs {
		reqs[i] = serve.Request{Op: serve.OpWrite, Addr: rng.Int63n(org.DataBits()), Width: 1, Data: uint64(i) & 1}
	}
	for i, r := range f.Do(reqs) {
		if r.Err != nil {
			t.Fatalf("write %d: %v", i, r.Err)
		}
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var served int64
	for _, c := range snap.Counters {
		if c.Name == "netfleet_requests_total" {
			served += c.Value
		}
	}
	if served != count {
		t.Fatalf("fleet snapshot counts %d served requests, want %d", served, count)
	}
	// The serve-layer histograms crossed the wire with full buckets: the
	// merged summary must hold all observations.
	var latency int64
	for _, h := range snap.Hists {
		if h.Name == "serve_latency_ns" || h.Name == "serve_wait_ns" {
			latency += h.Count
		}
	}
	if latency == 0 {
		t.Fatal("fleet snapshot lost the serve-layer histograms")
	}
}

// TestFleetNodeRestartIsLatencyNotLoss proves the retry discipline: a
// request issued while its node is down completes when the node returns
// — the restart costs latency, never an error.
func TestFleetNodeRestartIsLatencyNotLoss(t *testing.T) {
	org := testOrg()
	lns, addrs := listenLoopback(t, 1)
	cfg := NodeConfig{
		Org: org, Nodes: 1, Index: 0, Listener: lns[0], Peers: addrs,
		M: 15, K: 2, Workers: 2, Round: 5 * time.Millisecond,
	}
	node, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := dialFleet(t, org, addrs)
	if err := f.Write(10, 16, 0xABCD); err != nil {
		t.Fatal(err)
	}
	node.Close()

	done := make(chan error, 1)
	go func() {
		_, err := f.Read(10, 16)
		done <- err
	}()
	// Hold the node down long enough that the read must ride the retry
	// loop, then bring it back on the same address.
	time.Sleep(250 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("read finished while node was down: %v", err)
	default:
	}
	cfg.Listener = nil
	cfg.Addr = addrs[0]
	node2, err := NewNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer node2.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("read across restart failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read did not complete after node restart")
	}
}

// TestWireBatchRoundTrip pins the binary request codec.
func TestWireBatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	reqs := make([]serve.Request, 257)
	for i := range reqs {
		op := serve.OpRead
		if i%2 == 0 {
			op = serve.OpWrite
		}
		reqs[i] = serve.Request{Op: op, Addr: rng.Int63(), Width: rng.Intn(65), Data: rng.Uint64()}
	}
	enc, err := encodeBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBatch(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, reqs) {
		t.Fatal("batch round trip diverged")
	}
	// A destination with room is filled in place, not reallocated.
	dst := make([]serve.Request, 0, len(reqs))
	if got, err = decodeBatch(dst, enc); err != nil || !reflect.DeepEqual(got, reqs) {
		t.Fatalf("decode into a destination diverged: %v", err)
	}
	if &got[0] != &dst[:1][0] {
		t.Fatal("decode into a destination with room reallocated it")
	}
	if _, err := encodeBatch([]serve.Request{{Op: serve.OpCompute}}); err == nil {
		t.Fatal("compute encoded")
	}
	if _, err := decodeBatch(nil, enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated batch decoded")
	}
}

// TestWireResponseRoundTrip pins the response codec and its error-code
// mapping: sentinels survive, free-form errors keep their text.
func TestWireResponseRoundTrip(t *testing.T) {
	resps := []serve.Response{
		{Data: 42},
		{Err: fmt.Errorf("wrapped: %w", pmem.ErrRange)},
		{Err: fmt.Errorf("wrapped: %w", pmem.ErrSpan)},
		{Err: serve.ErrServerClosed},
		{Err: errors.New("disk on fire")},
	}
	enc, err := encodeResponses(nil, resps)
	if err != nil {
		t.Fatal(err)
	}
	// The append form writes after dst's bytes and leaves them alone.
	if prefixed, err := encodeResponses([]byte{0xAB}, resps); err != nil || prefixed[0] != 0xAB || !bytes.Equal(prefixed[1:], enc) {
		t.Fatalf("append to a non-empty dst diverged: %v", err)
	}
	got, err := decodeResponses(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Err != nil || got[0].Data != 42 {
		t.Fatalf("ok response mangled: %+v", got[0])
	}
	if !errors.Is(got[1].Err, pmem.ErrRange) {
		t.Fatalf("range error lost: %v", got[1].Err)
	}
	if !errors.Is(got[2].Err, pmem.ErrSpan) {
		t.Fatalf("span error lost: %v", got[2].Err)
	}
	if !errors.Is(got[3].Err, serve.ErrServerClosed) {
		t.Fatalf("closed error lost: %v", got[3].Err)
	}
	if got[4].Err == nil || got[4].Err.Error() != "netfleet: remote: disk on fire" {
		t.Fatalf("free-form error mangled: %v", got[4].Err)
	}
}

// TestNodeFrameAllocsFlat: once warm, a node serves a 64-request batch
// frame with no more allocations than a 1-request frame, so nothing on
// its frame path — read, decode, serve, encode, write — is allocated per
// request.
func TestNodeFrameAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under -race")
	}
	org := testOrg()
	// No election rounds during the count: their gossip allocates.
	_, addrs := startFleet(t, org, 1, func(_ int, c *NodeConfig) { c.Round = time.Hour })
	conn, err := net.Dial("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frameOf := func(n int) []byte {
		reqs := make([]serve.Request, n)
		for i := range reqs {
			reqs[i] = serve.Request{Op: serve.OpRead, Addr: int64(i) * 64 % (org.DataBits() - 64), Width: 64}
			if i%4 == 0 {
				reqs[i].Op, reqs[i].Data = serve.OpWrite, uint64(i)
			}
		}
		payload, err := encodeBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := writeFrame(&b, msgBatch, uint64(n), payload); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	var in []byte
	roundTrip := func(frame []byte) func() {
		return func() {
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
			typ, _, payload, err := readFrame(conn, in)
			if err != nil || typ != msgBatchResp {
				t.Fatalf("batch answered with type %d: %v", typ, err)
			}
			in = payload
		}
	}
	one, many := roundTrip(frameOf(1)), roundTrip(frameOf(64))
	one()
	many()
	a1 := testing.AllocsPerRun(200, one)
	a64 := testing.AllocsPerRun(200, many)
	t.Logf("allocs per frame: %v for 1 request, %v for 64", a1, a64)
	if a64 > a1 {
		t.Fatalf("64-request frame: %v allocs, 1-request frame: %v", a64, a1)
	}
}
