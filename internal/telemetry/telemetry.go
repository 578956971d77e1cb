// Package telemetry is the repo's unified observability layer: a
// dependency-free metrics registry with two series kinds (atomic
// counters and the log-linear histogram the fleet's latency accounting
// promoted here) plus a bounded structured event trace, shared by pmem,
// machine, serve, fleet, and campaign.
//
// # Design constraints
//
// The layer exists to watch the paper's cost/reliability tradeoffs while
// the memory runs, so it must not perturb what it measures:
//
//   - Zero allocations on the hot path. Handles (Counter, Histogram)
//     are resolved once at setup — name and labels are rendered then —
//     and every subsequent Inc/Add/Observe is an atomic word operation.
//   - Nil-safe when disabled. Every handle method no-ops on a nil
//     receiver, and a nil *Registry resolves nil handles, so
//     instrumented code never branches on "is telemetry on" — it just
//     calls through, and the disabled cost is one predictable nil check
//     (BenchmarkTelemetryOverhead pins this at 0 allocs/op).
//   - Deterministic snapshots. Counter adds and histogram merges are
//     commutative, and Snapshot sorts series by rendered name, so the
//     snapshot of a run is a pure function of the work performed — the
//     same at any worker count, byte-reproducible through MarshalJSON —
//     and every series in it merges across shards. Only the event ring
//     is arrival-ordered: it is a live-introspection view (the /trace
//     endpoint), deliberately outside the determinism contract.
//
// # Label model
//
// Series identity is the metric family name plus a sorted set of label
// pairs (Prometheus-style): Counter("pmem_scrubs_total", "bank", "3")
// and a second resolve with the same name and labels return the *same*
// handle, so per-bank/per-scheme/per-outcome series can be resolved
// independently by every component that contributes to them.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic series. The nil Counter
// discards observations, so disabled telemetry costs one nil check.
type Counter struct {
	meta
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds d (negative deltas are a caller bug; they are not checked on
// the hot path and will show up as a non-monotone series).
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is the concurrent counterpart of Hist: the same log-linear
// buckets, updated with atomic adds so any number of workers can observe
// into one series. Nil-safe like Counter.
type Histogram struct {
	meta
	n, sum, max atomic.Int64
	buckets     [histBuckets]atomic.Int64
}

// Observe records one value (negatives clamp to zero, as in Hist).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.n.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[histBucket(v)].Add(1)
}

// Hist snapshots the histogram into its mergeable value form. Under
// concurrent observation the fields are individually — not jointly —
// consistent; quiesce writers for an exact snapshot.
func (h *Histogram) Hist() Hist {
	var out Hist
	if h == nil {
		return out
	}
	out.N = h.n.Load()
	out.Sum = h.sum.Load()
	out.Max = h.max.Load()
	for i := range out.Buckets {
		out.Buckets[i] = h.buckets[i].Load()
	}
	return out
}

// meta is a series' resolved identity: family name, sorted label pairs,
// and the fully rendered key used for registry lookup and snapshot order.
type meta struct {
	name   string
	labels []LabelPair
	key    string
}

// LabelPair is one rendered label dimension.
type LabelPair struct {
	Key, Value string
}

// renderKey builds the canonical series key: name{k1="v1",k2="v2"}.
func renderKey(name string, labels []LabelPair) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies Prometheus label-value escaping (backslash, quote,
// newline). Our label values are digits and identifiers, but the
// exposition stays well-formed for any value.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// sortLabels canonicalizes variadic "k1", "v1", "k2", "v2" pairs.
func sortLabels(kv []string) []LabelPair {
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("telemetry: odd label list %q", kv))
	}
	if len(kv) == 0 {
		return nil
	}
	ls := make([]LabelPair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, LabelPair{Key: kv[i], Value: kv[i+1]})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// Registry holds the live series and the event ring. The zero value is
// not used directly — New builds one — and a nil *Registry is the
// disabled layer: every resolve returns a nil handle.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	ring     *Ring
}

// DefaultTraceDepth is the event ring capacity New allocates.
const DefaultTraceDepth = 1024

// New builds an empty registry with a DefaultTraceDepth event ring.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		ring:     NewRing(DefaultTraceDepth),
	}
}

// Counter resolves (creating on first use) the counter for name and the
// alternating key/value label pairs. Nil registry resolves nil.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	ls := sortLabels(labels)
	key := renderKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{meta: meta{name: name, labels: ls, key: key}}
		r.counters[key] = c
	}
	return c
}

// Histogram resolves the histogram for name and label pairs. Nil
// registry resolves nil.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	ls := sortLabels(labels)
	key := renderKey(name, ls)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[key]
	if !ok {
		h = &Histogram{meta: meta{name: name, labels: ls, key: key}}
		r.hists[key] = h
	}
	return h
}

// Events returns the registry's event ring (nil for a nil registry, and
// the nil Ring discards appends).
func (r *Registry) Events() *Ring {
	if r == nil {
		return nil
	}
	return r.ring
}
