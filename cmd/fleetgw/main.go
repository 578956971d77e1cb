// Command fleetgw is the fleet gateway: it dials a served fleet, verifies
// every node's geometry handshake, drives a read/write workload through
// the client-side router (consistent bank→node routing, batching,
// pipelining, per-node backpressure), and reports throughput, batch
// latency percentiles, per-node serving stats, and — with -telemetry —
// the merged fleet-wide telemetry snapshot.
//
// Every write is read back and verified, so a passing run is also a
// correctness proof of the full network path. With -verify the gateway
// additionally audits the fleet's scrub-rotation safety: executed grant
// epochs must be unique across all nodes (no double-scrub) and a clean
// memory must report zero uncorrectable scrub words; violations exit
// nonzero. Example:
//
//	fleetgw -peers :7001,:7002,:7003 -requests 100000 -verify -telemetry
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cliflags"
	"repro/internal/mmpu"
	"repro/internal/netfleet"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

// report is the gateway's JSON output.
type report struct {
	Nodes     int   `json:"nodes"`
	Requests  int64 `json:"requests"`
	Errors    int64 `json:"errors"`
	Mismatch  int64 `json:"read_mismatches"`
	Clients   int   `json:"clients"`
	Batch     int   `json:"batch"`
	Window    int   `json:"window"`
	ChannelNs int64 `json:"channel_ns,omitempty"`

	DurationNs int64   `json:"duration_ns"`
	ReqPerSec  float64 `json:"req_per_sec"`
	P50BatchNs int64   `json:"p50_batch_ns"`
	P99BatchNs int64   `json:"p99_batch_ns"`

	Verified bool                 `json:"verified,omitempty"`
	Fleet    []netfleet.NodeStats `json:"fleet"`

	Telemetry *telemetry.WireSnapshot `json:"telemetry,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("fleetgw", flag.ExitOnError)
	var g cliflags.Geometry
	cliflags.RegisterOrganization(fs, &g, cliflags.Geometry{N: 45, Banks: 8, PerBank: 2})
	var seed int64
	cliflags.RegisterSeed(fs, &seed, "workload seed")
	peers := fs.String("peers", "", "comma-separated node addresses in node order")
	requests := fs.Int64("requests", 20000, "total requests to drive (writes + verifying reads)")
	clients := fs.Int("clients", 4, "concurrent gateway clients")
	batch := fs.Int("batch", 256, "requests per wire batch")
	window := fs.Int("window", 8, "in-flight batches per node (backpressure bound)")
	retry := fs.Duration("retry-deadline", 5*time.Second, "per-call retry budget for unreachable nodes")
	channelNs := fs.Int64("channel-ns", 0, "annotate the report with the fleet's modeled channel occupancy")
	verify := fs.Bool("verify", false, "audit scrub-rotation safety (unique grant epochs, zero uncorrectable) and exit nonzero on violation")
	withTel := fs.Bool("telemetry", false, "embed the merged fleet telemetry snapshot in the report")
	_ = fs.Parse(os.Args[1:])

	if *peers == "" {
		fmt.Fprintln(os.Stderr, "fleetgw: -peers is required")
		return 2
	}
	addrs := strings.Split(*peers, ",")
	org := mmpu.Custom(g.N, g.Banks, g.PerBank)
	f, err := netfleet.Dial(netfleet.FleetConfig{
		Org: org, Addrs: addrs,
		BatchSize: *batch, Window: *window, RetryDeadline: *retry,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetgw: %v\n", err)
		return 1
	}
	defer f.Close()
	if err := f.Check(); err != nil {
		fmt.Fprintf(os.Stderr, "fleetgw: handshake: %v\n", err)
		return 1
	}

	// Each client owns a disjoint slice of 64-bit slots, so concurrent
	// batches never overlap and every read has one defined expected value.
	slots := org.DataBits() / 64
	perClient := slots / int64(*clients)
	if perClient == 0 {
		fmt.Fprintf(os.Stderr, "fleetgw: %d clients over %d slots\n", *clients, slots)
		return 2
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		rtts   []int64
		errs   int64
		wrong  int64
		served int64
	)
	perClientReqs := *requests / int64(*clients)
	start := time.Now()
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(c)))
			base := int64(c) * perClient
			var myRtts []int64
			var myErrs, myWrong, mine int64
			slot := int64(0)
			for mine < perClientReqs {
				// A batch never exceeds the client's slot pool: one
				// in-flight batch must not contain the same slot twice.
				n := int(*batch)
				if int64(n) > perClient {
					n = int(perClient)
				}
				if rem := perClientReqs - mine; rem < int64(2*n) {
					n = int(rem / 2)
				}
				if n == 0 {
					break
				}
				writes := make([]serve.Request, n)
				want := make([]uint64, n)
				for i := range writes {
					s := base + (slot+int64(i))%perClient
					width := 1 + rng.Intn(64)
					v := rng.Uint64() & (1<<width - 1)
					writes[i] = serve.Request{Op: serve.OpWrite, Addr: s * 64, Width: width, Data: v}
					want[i] = v
				}
				slot += int64(n)
				t0 := time.Now()
				for _, r := range f.Do(writes) {
					if r.Err != nil {
						myErrs++
					}
				}
				reads := make([]serve.Request, n)
				for i, w := range writes {
					reads[i] = serve.Request{Op: serve.OpRead, Addr: w.Addr, Width: w.Width}
				}
				for i, r := range f.Do(reads) {
					switch {
					case r.Err != nil:
						myErrs++
					case r.Data != want[i]:
						myWrong++
					}
				}
				rtt := time.Since(t0).Nanoseconds() / 2 // two batches timed together
				myRtts = append(myRtts, rtt, rtt)
				mine += int64(2 * n)
			}
			mu.Lock()
			rtts = append(rtts, myRtts...)
			errs += myErrs
			wrong += myWrong
			served += mine
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	stats, err := f.Stats()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetgw: stats: %v\n", err)
		return 1
	}
	rep := report{
		Nodes: f.Nodes(), Requests: served, Errors: errs, Mismatch: wrong,
		Clients: *clients, Batch: *batch, Window: *window, ChannelNs: *channelNs,
		DurationNs: elapsed.Nanoseconds(),
		ReqPerSec:  float64(served) / elapsed.Seconds(),
		Fleet:      stats,
	}
	sort.Slice(rtts, func(i, j int) bool { return rtts[i] < rtts[j] })
	if len(rtts) > 0 {
		rep.P50BatchNs = rtts[len(rtts)/2]
		rep.P99BatchNs = rtts[len(rtts)*99/100]
	}

	var snap telemetry.Snapshot
	if *withTel || *verify {
		snap, err = f.Snapshot()
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleetgw: snapshot: %v\n", err)
			return 1
		}
	}
	if *withTel {
		w := snap.Wire()
		rep.Telemetry = &w
	}

	code := 0
	if errs > 0 || wrong > 0 {
		fmt.Fprintf(os.Stderr, "fleetgw: %d errors, %d read mismatches\n", errs, wrong)
		code = 1
	}
	if *verify {
		if err := audit(stats, snap, served); err != nil {
			fmt.Fprintf(os.Stderr, "fleetgw: verify: %v\n", err)
			code = 1
		} else {
			rep.Verified = true
		}
	}
	out, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(out))
	return code
}

// audit is the fleet-wide safety check: scrub grant epochs unique across
// nodes, zero uncorrectable scrub words on a clean memory, and the
// merged snapshot accounting for at least every request driven.
func audit(stats []netfleet.NodeStats, snap telemetry.Snapshot, served int64) error {
	seen := map[int64]int{}
	for _, s := range stats {
		for _, g := range s.Grants {
			if prev, dup := seen[g.Epoch]; dup {
				return fmt.Errorf("scrub epoch %d executed on node %d and node %d", g.Epoch, prev, s.Node)
			}
			seen[g.Epoch] = s.Node
		}
	}
	var uncorr, reqs int64
	for _, c := range snap.Counters {
		switch c.Name {
		case "netfleet_scrub_uncorrectable_total":
			uncorr += c.Value
		case "netfleet_requests_total":
			reqs += c.Value
		}
	}
	if uncorr != 0 {
		return fmt.Errorf("%d uncorrectable scrub words on a clean memory", uncorr)
	}
	// Split cross-shard spans make the fleet count >= the driven count.
	if reqs < served {
		return fmt.Errorf("fleet telemetry accounts %d requests, gateway drove %d", reqs, served)
	}
	return nil
}
