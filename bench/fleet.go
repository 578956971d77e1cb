package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro/internal/netfleet"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

const (
	fleetNodes = 2
	// fleetBatch is the requests per Fleet.Do, and the fleet's frame cap.
	fleetBatch = 64
	// fleetWriteFrac is the YCSB-B write share.
	fleetWriteFrac = 0.05
)

// fleetSys is two netfleet nodes of eight banks each on loopback TCP and
// the client-side Fleet dialed to them. Nodes scrub only through the
// election's rotation (node ScrubEvery is 0), one bank worker each.
type fleetSys struct {
	nodes []*netfleet.Node
	f     *netfleet.Fleet
}

func newFleetSys(tr *tracer, parent int64) (*fleetSys, error) {
	s := &fleetSys{}
	addrs := make([]string, fleetNodes)
	err := tr.step(parent, "netfleet", "setup.nodes_start", func() error {
		lns := make([]net.Listener, fleetNodes)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				closeListeners(lns)
				return err
			}
			lns[i], addrs[i] = ln, ln.Addr().String()
		}
		for i, ln := range lns {
			n, err := netfleet.NewNode(netfleet.NodeConfig{
				Org: org, Nodes: fleetNodes, Index: i, Listener: ln, Peers: addrs,
				M: blockM, K: procXbars, ECC: true, Workers: workers / fleetNodes,
			})
			if err != nil {
				closeListeners(lns[i:])
				s.close()
				return err
			}
			s.nodes = append(s.nodes, n)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = tr.step(parent, "netfleet", "setup.dial_check", func() (err error) {
		s.f, err = netfleet.Dial(netfleet.FleetConfig{Org: org, Addrs: addrs, BatchSize: fleetBatch})
		if err != nil {
			return err
		}
		return s.f.Check()
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			_ = ln.Close()
		}
	}
}

func (s *fleetSys) close() {
	if s.f != nil {
		s.f.Close()
	}
	for _, n := range s.nodes {
		n.Close()
	}
}

func (s *fleetSys) registries() []*telemetry.Registry {
	var regs []*telemetry.Registry
	for _, n := range s.nodes {
		regs = append(regs, n.Registry())
	}
	return regs
}

// preload writes a seeded random value to every slot and returns the
// values written.
func (s *fleetSys) preload(seed int64) ([]uint64, error) {
	rng := rand.New(rand.NewSource(seed))
	shadow := make([]uint64, numSlots)
	for lo := int64(0); lo < numSlots; lo += fleetBatch {
		reqs := make([]serve.Request, 0, fleetBatch)
		for sl := lo; sl < min(lo+fleetBatch, numSlots); sl++ {
			shadow[sl] = rng.Uint64()
			reqs = append(reqs, writeReq(sl, shadow[sl]))
		}
		for i, r := range s.f.Do(reqs) {
			if r.Err != nil {
				return nil, fmt.Errorf("preload of slot %d: %w", lo+int64(i), r.Err)
			}
		}
	}
	return shadow, nil
}

// audit is the fleetgw -verify check: every executed scrub epoch is unique
// across the nodes (no crossbar scrubbed twice for one grant) and no scrub
// found an uncorrectable block on a memory no fault touched.
func (s *fleetSys) audit() []string {
	var probs []string
	seen := map[int64]int{}
	for i, n := range s.nodes {
		for _, g := range n.ScrubLog() {
			if prev, dup := seen[g.Epoch]; dup {
				probs = append(probs, fmt.Sprintf("scrub epoch %d executed on node %d and node %d", g.Epoch, prev, i))
			}
			seen[g.Epoch] = i
		}
	}
	if u := tallyOf(s.registries()...).counters["netfleet_scrub_uncorrectable_total"]; u != 0 {
		probs = append(probs, fmt.Sprintf("%d uncorrectable scrub blocks on a clean memory", u))
	}
	return probs
}

// fleetClient sends batches of fleetBatch distinct slots of its own:
// uniform keys, 95% reads checked against the shadow copy, 5% writes.
// One op is one Fleet.Do.
func fleetClient(e *env, f *netfleet.Fleet, own []int64, shadow []uint64, rng *rand.Rand) clientFn {
	perm := make([]int, len(own)) // partial Fisher–Yates draws distinct slots
	for i := range perm {
		perm[i] = i
	}
	reqs := make([]serve.Request, fleetBatch)
	return func(deadline time.Time, t *clientTally) {
		for now := time.Now(); now.Before(deadline); {
			for k := range reqs {
				j := k + rng.Intn(len(perm)-k)
				perm[k], perm[j] = perm[j], perm[k]
				s := own[perm[k]]
				if rng.Float64() < fleetWriteFrac {
					reqs[k] = writeReq(s, rng.Uint64())
				} else {
					reqs[k] = readReq(s)
				}
			}
			e.rec.add(reqs...)
			t0 := time.Now()
			resps := f.Do(reqs)
			now = time.Now()
			e.tr.op(e.phase, "netfleet", "netfleet.Fleet.Do", t0, now, false)
			t.lat = append(t.lat, now.Sub(t0).Nanoseconds())
			for k, r := range resps {
				t.attempted++
				s := reqs[k].Addr / slotBits
				switch {
				case r.Err != nil:
					t.fail("slot %d: %v", s, r.Err)
				case reqs[k].Op == serve.OpWrite:
					shadow[s] = reqs[k].Data
				case r.Data != shadow[s]:
					t.fail("slot %d read %#x, want %#x", s, r.Data, shadow[s])
				}
			}
		}
	}
}

// runFleetRead drives the fleet with two clients on striped slots after
// preloading every slot, then reads every slot back and audits the
// scrub rotation.
func runFleetRead(cfg runConfig) (*result, error) {
	type loaded struct {
		*fleetSys
		shadow []uint64
	}
	sys, setupS, err := setUp(cfg, func(parent int64) (loaded, error) {
		s, err := newFleetSys(cfg.tr, parent)
		if err != nil {
			return loaded{}, err
		}
		var shadow []uint64
		err = cfg.tr.step(parent, "netfleet", "setup.preload", func() (err error) {
			shadow, err = s.preload(cfg.seed)
			return err
		})
		if err != nil {
			s.close()
			return loaded{}, err
		}
		return loaded{s, shadow}, nil
	}, func(l loaded) { l.close() })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	res := &result{setupS: setupS, heapMB: heapMB()}
	e := &env{tr: cfg.tr}
	var cs []clientFn
	for c := 0; c < numClients; c++ {
		cs = append(cs, fleetClient(e, sys.f, stripe(c), sys.shadow, clientRand(cfg.seed, c)))
	}
	runLive(cfg, e, res, cs, sys.registries()...)

	all := make([]int64, numSlots)
	for i := range all {
		all[i] = int64(i)
	}
	a, f, probs := readBack(sys.f.Do, all, sys.shadow)
	res.attempted += a
	res.failed += f
	res.problems = append(res.problems, probs...)
	res.problems = append(res.problems, sys.audit()...)
	return res, nil
}
