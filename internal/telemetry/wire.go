package telemetry

import "sort"

// WirePoint is one counter series in transportable form: name
// plus raw label pairs, with none of the unexported identity state a
// Snapshot carries.
type WirePoint struct {
	Name   string      `json:"name"`
	Labels []LabelPair `json:"labels,omitempty"`
	Value  int64       `json:"value"`
}

// WireHist is one histogram series in transportable form. Unlike
// HistPoint — whose JSON digest drops the bucket counts — it carries the
// full Hist, so decoded snapshots keep merging exactly.
type WireHist struct {
	Name   string      `json:"name"`
	Labels []LabelPair `json:"labels,omitempty"`
	Hist   Hist        `json:"hist"`
}

// WireSnapshot is the network form of a Snapshot. Snapshot itself does
// not survive an encode/decode round trip: its JSON digest omits the
// series keys and the histogram buckets that Merge depends on. The wire
// form carries everything, so per-node snapshots shipped across a fleet
// reassemble into Snapshots that merge as if taken in-process —
// commutatively, to the same bytes in any arrival order.
type WireSnapshot struct {
	Counters []WirePoint `json:"counters,omitempty"`
	Hists    []WireHist  `json:"hists,omitempty"`
}

// wireLabels renders a snapshot label map back into sorted pairs.
func wireLabels(m map[string]string) []LabelPair {
	if len(m) == 0 {
		return nil
	}
	ls := make([]LabelPair, 0, len(m))
	for k, v := range m {
		ls = append(ls, LabelPair{Key: k, Value: v})
	}
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// Wire converts the snapshot to its transportable form.
func (s Snapshot) Wire() WireSnapshot {
	var w WireSnapshot
	for _, p := range s.Counters {
		w.Counters = append(w.Counters, WirePoint{Name: p.Name, Labels: wireLabels(p.Labels), Value: p.Value})
	}
	for _, p := range s.Hists {
		w.Hists = append(w.Hists, WireHist{Name: p.Name, Labels: wireLabels(p.Labels), Hist: p.full})
	}
	return w
}

// canonLabels sorts label pairs by key, canonicalizing whatever order a
// peer (or an adversarial byte stream) sent them in.
func canonLabels(ls []LabelPair) []LabelPair {
	if len(ls) == 0 {
		return nil
	}
	out := append([]LabelPair(nil), ls...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Snapshot rebuilds a full Snapshot from the wire form, recomputing the
// series keys and histogram summaries. Duplicate series — which a
// well-formed peer never sends but a corrupted stream can — fold together
// the same way Merge would, so the result is always canonical: sorted,
// deduplicated, and ready to merge with local snapshots.
func (w WireSnapshot) Snapshot() Snapshot {
	var s Snapshot

	cs := make(map[string]*CounterPoint, len(w.Counters))
	for _, p := range w.Counters {
		ls := canonLabels(p.Labels)
		key := renderKey(p.Name, ls)
		if got, ok := cs[key]; ok {
			got.Value += p.Value
			continue
		}
		cs[key] = &CounterPoint{Name: p.Name, Labels: labelMap(ls), Value: p.Value, key: key}
	}
	for _, p := range cs {
		s.Counters = append(s.Counters, *p)
	}

	hs := make(map[string]*HistPoint, len(w.Hists))
	for _, p := range w.Hists {
		ls := canonLabels(p.Labels)
		key := renderKey(p.Name, ls)
		if got, ok := hs[key]; ok {
			got.full = got.full.Merge(p.Hist)
			continue
		}
		hs[key] = &HistPoint{Name: p.Name, Labels: labelMap(ls), key: key, full: p.Hist}
	}
	for _, p := range hs {
		p.HistSummary = p.full.Summary()
		s.Hists = append(s.Hists, *p)
	}

	s.sortSeries()
	return s
}
