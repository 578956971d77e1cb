// Package election is a practical self-stabilizing leader election in the
// style of PraSLE (Conard & Ebnenasir, 2021): nodes repeatedly exchange
// lexicographically ordered (min, leader) pairs, adopt any strictly
// smaller pair they hear, and bound how long hearsay survives so the
// algorithm recovers from *arbitrary* state — a crashed leader, a
// corrupted pair smaller than any live node, or a node rejoining with
// stale beliefs all converge back to "everyone agrees on the smallest
// live ID" within a bounded number of rounds.
//
// The package is the pure round-based state machine: no network, no
// clock. A transport (internal/netfleet) drives it by calling Tick once
// per round, broadcasting the returned Message to all peers, and feeding
// received Messages to Observe. With an all-to-all topology the
// stabilization bound is K+1 rounds: hearsay a live origin no longer
// backs expires after at most K rounds (the TTL drains by one per round),
// and one more round propagates the true minimum everywhere.
//
// Self-stabilization comes from the TTL discipline rather than a
// synchronized restart: a node's *own* pair is always (ID, ID) and is
// broadcast with a fresh TTL of K every round, while an adopted pair ages
// every round and is discarded when its TTL reaches zero. A pair with no
// live origin therefore cannot circulate forever — relays forward it with
// their remaining (decremented) TTL, so every hop strictly shortens its
// life. This is the lease-shaped variant of PraSLE's periodic
// re-initialization: both flush unsupported minima in O(K) rounds; the
// lease form avoids the fleet-wide agreement on when to restart.
package election

import "fmt"

// Pair is the (min, leader) tuple nodes exchange, ordered
// lexicographically as in PraSLE Algorithm 1. With node IDs as ranking
// values the two fields coincide in steady state; keeping both preserves
// the paper's shape and lets a ranking function diverge from identity
// later without a wire change.
type Pair struct {
	Min    int64 `json:"min"`
	Leader int64 `json:"leader"`
}

// Less is the lexicographic order: (m1,l1) < (m2,l2) iff m1 < m2, or
// m1 == m2 and l1 < l2.
func (p Pair) Less(q Pair) bool {
	return p.Min < q.Min || (p.Min == q.Min && p.Leader < q.Leader)
}

// Message is one round's broadcast: the sender's best-known pair and the
// remaining rounds it may be relayed (TTL). A message whose TTL has
// drained to zero carries no authority.
type Message struct {
	From int64 `json:"from"`
	Pair Pair  `json:"pair"`
	TTL  int   `json:"ttl"`
}

// DefaultK is the hearsay lease in rounds. All-to-all fleets converge in
// at most K+1 rounds after a failure; larger K tolerates more missed
// rounds (slow peers, dropped datagrams) before a live leader is
// spuriously flushed.
const DefaultK = 8

// State is one node's election state. It is not safe for concurrent use;
// the transport serializes Tick and Observe (netfleet runs both under the
// node's rotation lock).
type State struct {
	id   int64
	k    int
	best Pair // smallest pair currently believed, own pair if none adopted
	ttl  int  // remaining lease on an adopted pair; unused while best is own
}

// New returns a state believing in itself. K <= 0 selects DefaultK.
func New(id int64, k int) *State {
	if k <= 0 {
		k = DefaultK
	}
	s := &State{id: id, k: k}
	s.Restart()
	return s
}

// Restart resets the node to its initial belief (self as minimum and
// leader) — the state a node boots or rejoins with.
func (s *State) Restart() {
	s.best = Pair{Min: s.id, Leader: s.id}
	s.ttl = 0
}

// ID returns the node's identifier.
func (s *State) ID() int64 { return s.id }

// own reports whether the current belief is the node's own pair.
func (s *State) own() bool {
	return s.best == (Pair{Min: s.id, Leader: s.id})
}

// Observe folds one received message into the state: adopt a strictly
// smaller live pair, or refresh the lease when the same pair arrives with
// more life left. Messages with no TTL are ignored — they are hearsay
// whose origin may be gone.
func (s *State) Observe(m Message) {
	if m.TTL <= 0 {
		return
	}
	ttl := m.TTL
	if ttl > s.k {
		// Clamp forged or corrupted leases: no pair may outlive K rounds of
		// silence, whatever a peer claims — this is what makes recovery
		// from arbitrary state O(K) rather than O(corrupted TTL).
		ttl = s.k
	}
	switch {
	case m.Pair.Less(s.best):
		s.best = m.Pair
		s.ttl = ttl
	case m.Pair == s.best && !s.own() && ttl > s.ttl:
		s.ttl = ttl
	}
}

// Tick advances one round: adopted pairs age by one and expire back to
// self-belief when their lease drains. It returns the message to
// broadcast this round — the node's own pair always carries a fresh TTL
// of K; a relayed pair carries the sender's remaining lease, so every
// relay hop strictly shortens a pair's life.
func (s *State) Tick() Message {
	if !s.own() {
		if s.ttl > s.k {
			s.ttl = s.k // corrupted local lease: same clamp as Observe
		}
		s.ttl--
		if s.ttl <= 0 {
			s.Restart()
		}
	}
	ttl := s.k
	if !s.own() {
		ttl = s.ttl
	}
	return Message{From: s.id, Pair: s.best, TTL: ttl}
}

// Leader returns the node currently believed to lead.
func (s *State) Leader() int64 { return s.best.Leader }

// IsLeader reports whether this node believes itself the leader. During
// stabilization two nodes may transiently both answer true; protocols
// building on the election must keep their safety local (netfleet's scrub
// rotation executes each epoch at most once per node regardless of who
// granted it).
func (s *State) IsLeader() bool { return s.best.Leader == s.id }

func (s *State) String() string {
	return fmt.Sprintf("election{id=%d best=(%d,%d) ttl=%d}", s.id, s.best.Min, s.best.Leader, s.ttl)
}
