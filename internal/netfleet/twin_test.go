package netfleet

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/pmem"
	"repro/internal/serve"
)

// TestReplayServerFleetTwins serves one seeded single-client stream of
// bank-confined 64-bit reads and writes — scrubs on, no faults — through
// all three engines: the virtual-time serve.Replay (as a closed-loop
// trace), a live serve.Server, and a two-node loopback fleet. The three
// final memory images must be identical, the fleet must answer op by op
// exactly as the server does, and every count that does not depend on the
// engine's clock must agree across all three.
func TestReplayServerFleetTwins(t *testing.T) {
	const ops = 3000
	org := testOrg()
	rng := rand.New(rand.NewSource(11))
	stream := make([]serve.Request, ops)
	tr := &serve.Trace{Mode: "closed", PerBank: make([][]serve.TimedReq, org.Banks)}
	for k := range stream {
		bank := rng.Intn(org.Banks)
		r := serve.Request{Op: serve.OpRead, Addr: int64(bank)*org.BankBits() + rng.Int63n(org.BankBits()-63), Width: 64}
		if rng.Intn(2) == 0 {
			r.Op, r.Data = serve.OpWrite, rng.Uint64()
		}
		stream[k] = r
		tr.PerBank[bank] = append(tr.PerBank[bank], serve.TimedReq{At: int64(k), Req: r})
	}
	newMem := func() *pmem.Memory {
		mem, err := pmem.New(pmem.Config{Org: org, M: 15, K: 2, ECCEnabled: true})
		if err != nil {
			t.Fatal(err)
		}
		return mem
	}
	image := func(mem *pmem.Memory, bit, nbits int64) []uint64 {
		words, err := mem.ReadRange(bit, nbits)
		if err != nil {
			t.Fatal(err)
		}
		return words
	}

	replayMem := newMem()
	res, err := serve.Replay(serve.ReplayConfig{Mem: replayMem, ScrubPeriod: 200}, tr)
	if err != nil {
		t.Fatal(err)
	}

	srvMem := newMem()
	srv, err := serve.New(serve.Config{Mem: srvMem, Workers: 2, ScrubEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]serve.Response, ops)
	for k, r := range stream {
		if want[k] = srv.Do(r); want[k].Err != nil {
			t.Fatalf("server op %d: %v", k, want[k].Err)
		}
	}
	srvStats := srv.Close()

	nodes, addrs := startFleet(t, org, 2, func(_ int, c *NodeConfig) { c.ScrubEvery = 16 })
	f := dialFleet(t, org, addrs)
	for k, r := range stream {
		if got := f.Do([]serve.Request{r})[0]; got != want[k] {
			t.Fatalf("op %d (%+v): fleet answered %+v, server %+v", k, r, got, want[k])
		}
	}
	var fleetStats serve.Stats
	for _, n := range nodes {
		fleetStats = fleetStats.Merge(n.Close())
	}

	total := image(srvMem, 0, org.DataBits())
	if !slices.Equal(image(replayMem, 0, org.DataBits()), total) {
		t.Fatal("replay and server memory images differ")
	}
	for i, n := range nodes {
		lo, hi := n.Banks()
		bits := int64(hi-lo) * org.BankBits()
		if !slices.Equal(image(n.mem, 0, bits), image(srvMem, int64(lo)*org.BankBits(), bits)) {
			t.Fatalf("node %d memory image differs from the server's banks [%d, %d)", i, lo, hi)
		}
	}

	counts := func(s serve.Stats) [8]int64 {
		return [8]int64{s.Requests, s.Reads, s.Writes, s.Errors, s.Batches, s.Coalesced, s.Spanning, s.Segments}
	}
	if counts(res.Stats) != counts(srvStats) || counts(fleetStats) != counts(srvStats) {
		t.Fatalf("counts (requests reads writes errors batches coalesced spanning segments) differ:\n replay %v\n server %v\n fleet  %v",
			counts(res.Stats), counts(srvStats), counts(fleetStats))
	}
	if srvStats.Requests != ops || res.Stats.Scrubs == 0 || srvStats.Scrubs == 0 {
		t.Fatalf("vacuous run: %d requests, %d replay and %d server scrubs", srvStats.Requests, res.Stats.Scrubs, srvStats.Scrubs)
	}
}
