package telemetry

import "sort"

// CounterPoint is one counter series in a snapshot.
type CounterPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  int64             `json:"value"`

	key string // rendered identity, for ordering and merging
}

// HistPoint is one histogram series: the report-facing digest plus the
// full bucket state (unexported) so snapshots stay mergeable.
type HistPoint struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	HistSummary

	key  string
	full Hist
}

// Hist returns the point's full mergeable histogram.
func (p HistPoint) Hist() Hist { return p.full }

// Snapshot is the deterministic, mergeable digest of a registry: every
// series sorted by rendered name, counters and histograms a pure
// function of the observations made (commutative adds and merges), so
// the same work snapshots to the same bytes at any worker count. The
// event ring is deliberately absent: its ordering is arrival time, a
// live-view concern served by the /trace endpoint instead.
type Snapshot struct {
	Counters []CounterPoint `json:"counters,omitempty"`
	Hists    []HistPoint    `json:"hists,omitempty"`
}

// labelMap renders sorted pairs into the JSON label map (encoding/json
// marshals map keys in sorted order, keeping the bytes deterministic).
func labelMap(ls []LabelPair) map[string]string {
	if len(ls) == 0 {
		return nil
	}
	m := make(map[string]string, len(ls))
	for _, l := range ls {
		m[l.Key] = l.Value
	}
	return m
}

// Snapshot digests the registry's current series. Safe to call
// concurrently with updates; for an exact cut, quiesce writers first
// (the CLIs snapshot after their run completes).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		s.Counters = append(s.Counters, CounterPoint{
			Name: c.name, Labels: labelMap(c.labels), Value: c.v.Load(), key: c.key,
		})
	}
	for _, h := range r.hists {
		full := h.Hist()
		s.Hists = append(s.Hists, HistPoint{
			Name: h.name, Labels: labelMap(h.labels), HistSummary: full.Summary(),
			key: h.key, full: full,
		})
	}
	s.sortSeries()
	return s
}

func (s *Snapshot) sortSeries() {
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].key < s.Counters[j].key })
	sort.Slice(s.Hists, func(i, j int) bool { return s.Hists[i].key < s.Hists[j].key })
}

// Merge combines two snapshots series-wise: counters sum,
// histograms merge bucket-wise (summaries recomputed). Commutative and
// associative, like the underlying types, so per-shard snapshots roll up
// into one total in any order.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	var m Snapshot

	cs := make(map[string]*CounterPoint, len(s.Counters)+len(o.Counters))
	for _, list := range [][]CounterPoint{s.Counters, o.Counters} {
		for _, p := range list {
			if got, ok := cs[p.key]; ok {
				got.Value += p.Value
				continue
			}
			cp := p
			cs[p.key] = &cp
		}
	}
	for _, p := range cs {
		m.Counters = append(m.Counters, *p)
	}

	hs := make(map[string]*HistPoint, len(s.Hists)+len(o.Hists))
	for _, list := range [][]HistPoint{s.Hists, o.Hists} {
		for _, p := range list {
			if got, ok := hs[p.key]; ok {
				got.full = got.full.Merge(p.full)
				continue
			}
			hp := p
			hs[p.key] = &hp
		}
	}
	for _, p := range hs {
		p.HistSummary = p.full.Summary()
		m.Hists = append(m.Hists, *p)
	}

	m.sortSeries()
	return m
}

// Empty reports whether the snapshot holds no series at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Hists) == 0
}

// Counter returns the value of the counter with the given rendered key
// (e.g. `pmem_scrubs_total{bank="0"}`), or 0 — a test and assertion
// convenience.
func (s Snapshot) Counter(key string) int64 {
	for _, p := range s.Counters {
		if p.key == key {
			return p.Value
		}
	}
	return 0
}

// CounterFamily sums every counter series of the given family name.
func (s Snapshot) CounterFamily(name string) int64 {
	var total int64
	for _, p := range s.Counters {
		if p.Name == name {
			total += p.Value
		}
	}
	return total
}
