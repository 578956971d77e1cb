// Command served runs one fleet node: a shard server owning a contiguous
// bank range of the global mMPU organization, speaking the netfleet wire
// protocol, and participating in the fleet's self-stabilizing scrub
// rotation. A fleet is N identical invocations differing only in -node:
//
//	served -peers host0:7001,host1:7001,host2:7001 -node 0 &
//	served -peers host0:7001,host1:7001,host2:7001 -node 1 &
//	served -peers host0:7001,host1:7001,host2:7001 -node 2 &
//
// Geometry and memory flags (-n -m -k -banks -perbank -ecc -repair) are
// the shared CLI surface and must be identical fleet-wide — clients
// verify this at dial time. -channel-ns models the node's memory-channel
// bandwidth (one request occupies the channel that many nanoseconds),
// making fleet scaling device-bound and host-independent.
//
// On startup the node prints one JSON line with its identity; on SIGINT/
// SIGTERM it shuts down and prints its serving stats as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliflags"
	"repro/internal/election"
	"repro/internal/mmpu"
	"repro/internal/netfleet"
	"repro/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("served", flag.ExitOnError)
	var g cliflags.Geometry
	cliflags.RegisterGeometry(fs, &g, cliflags.Geometry{N: 45, M: 15, K: 2, Banks: 8, PerBank: 2})
	var eccf cliflags.ECC
	cliflags.RegisterECC(fs, &eccf)
	var rep cliflags.Repair
	cliflags.RegisterRepair(fs, &rep)
	var workers int
	cliflags.RegisterWorkers(fs, &workers, "serve lanes the node's banks are split across (0 = GOMAXPROCS, capped at the owned banks)")
	var tel cliflags.Telemetry
	cliflags.RegisterTelemetry(fs, &tel)

	node := fs.Int("node", 0, "this node's index in the fleet")
	peers := fs.String("peers", "", "comma-separated node addresses in node order; the fleet size is the count")
	addr := fs.String("addr", "", "listen address override (default: the -peers entry at -node)")
	batch := fs.Int("batch", 0, "requests per lane service round (0 = serve default)")
	scrubEvery := fs.Int("scrub-every", 0, "node-local scrub admission: one crossbar scrub per this many served requests (0 = fleet rotation only)")
	round := fs.Duration("round", 25*time.Millisecond, "election round period")
	electionK := fs.Int("election-k", election.DefaultK, "election hearsay lease in rounds")
	channelNs := fs.Int64("channel-ns", 0, "modeled memory-channel occupancy per request in nanoseconds (0 = host speed)")
	_ = fs.Parse(os.Args[1:])
	eccf.Resolve()
	rep.Resolve()

	if *peers == "" {
		fmt.Fprintln(os.Stderr, "served: -peers is required")
		return 2
	}
	addrs := strings.Split(*peers, ",")
	if *node < 0 || *node >= len(addrs) {
		fmt.Fprintf(os.Stderr, "served: -node %d outside the %d-entry -peers list\n", *node, len(addrs))
		return 2
	}
	listen := *addr
	if listen == "" {
		listen = addrs[*node]
	}

	cfg := netfleet.NodeConfig{
		Org:        mmpu.Custom(g.N, g.Banks, g.PerBank),
		Nodes:      len(addrs),
		Index:      *node,
		Addr:       listen,
		Peers:      addrs,
		M:          g.M,
		K:          g.K,
		ECC:        eccf.Enabled,
		Scheme:     eccf.Scheme,
		Repair:     rep.Config,
		Workers:    workers,
		BatchSize:  *batch,
		ScrubEvery: *scrubEvery,
		Round:      *round,
		ElectionK:  *electionK,
		ChannelNs:  *channelNs,
		Telemetry:  tel.Registry(),
	}
	n, err := netfleet.NewNode(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "served: %v\n", err)
		return 1
	}
	stop, err := tel.Serve()
	if err != nil {
		fmt.Fprintf(os.Stderr, "served: %v\n", err)
		n.Close()
		return 1
	}

	lo, hi := n.Banks()
	enc := json.NewEncoder(os.Stdout)
	_ = enc.Encode(map[string]any{
		"node": *node, "nodes": len(addrs), "addr": n.Addr(),
		"bank_lo": lo, "bank_hi": hi, "channel_ns": *channelNs,
	})

	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch

	stats := n.Close()
	_ = stop()
	_ = enc.Encode(struct {
		Node  int         `json:"node"`
		Stats serve.Stats `json:"stats"`
	}{*node, stats})
	return 0
}
