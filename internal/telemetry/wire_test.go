package telemetry

import (
	"encoding/json"
	"testing"
)

// buildRegistry populates a registry the way a fleet node would: per-bank
// counters and latency histograms with enough spread to make
// quantiles sensitive to lost buckets.
func buildRegistry(t *testing.T, seedBias int64) *Registry {
	t.Helper()
	reg := New()
	for bank := 0; bank < 4; bank++ {
		c := reg.Counter("pmem_reads_total", "bank", string(rune('0'+bank)))
		c.Add(100 + int64(bank)*7 + seedBias)
	}
	reg.Counter("serve_requests_total").Add(4096 + seedBias)
	h := reg.Histogram("serve_latency_ns")
	for i := int64(1); i < 2000; i += 13 {
		h.Observe(i * i % 100000)
	}
	reg.Histogram("serve_wait_ns", "tenant", "batch").Observe(77 + seedBias)
	return reg
}

func TestWireSnapshotRoundTrip(t *testing.T) {
	snap := buildRegistry(t, 0).Snapshot()
	raw, err := json.Marshal(snap.Wire())
	if err != nil {
		t.Fatal(err)
	}
	var w WireSnapshot
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	back := w.Snapshot()

	a, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("wire round trip changed the snapshot:\n%s\nvs\n%s", a, b)
	}
	// The rebuilt snapshot must still merge exactly: identity keys and
	// full histogram buckets survived the trip.
	merged := snap.Merge(back)
	if got, want := merged.Counter("serve_requests_total"), int64(2*4096); got != want {
		t.Fatalf("merged counter %d want %d", got, want)
	}
	for _, h := range merged.Hists {
		if h.Name == "serve_latency_ns" && h.Count != 2*snap.Hists[0].full.N && h.Count == 0 {
			t.Fatalf("merged hist lost observations: %+v", h.HistSummary)
		}
	}
}

func TestWireSnapshotMergeOrderIndependentAcrossNetwork(t *testing.T) {
	// Three "nodes" snapshot independently, ship their snapshots through
	// the wire codec, and a gateway merges them. The merged bytes must not
	// depend on arrival order — the fleet-wide aggregation contract.
	var shipped []Snapshot
	for n := 0; n < 3; n++ {
		snap := buildRegistry(t, int64(n)*31).Snapshot()
		raw, err := json.Marshal(snap.Wire())
		if err != nil {
			t.Fatal(err)
		}
		var w WireSnapshot
		if err := json.Unmarshal(raw, &w); err != nil {
			t.Fatal(err)
		}
		shipped = append(shipped, w.Snapshot())
	}
	orders := [][]int{{0, 1, 2}, {2, 1, 0}, {1, 0, 2}, {2, 0, 1}}
	var want []byte
	for _, ord := range orders {
		m := shipped[ord[0]].Merge(shipped[ord[1]]).Merge(shipped[ord[2]])
		got, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("merge order %v changed the fleet snapshot", ord)
		}
	}
	// Histogram merge across the network is exact, not summary-level: the
	// merged quantiles equal those of one registry observing everything.
	m := shipped[0].Merge(shipped[1]).Merge(shipped[2])
	var total Hist
	for _, s := range shipped {
		for _, h := range s.Hists {
			if h.Name == "serve_latency_ns" {
				total = total.Merge(h.full)
			}
		}
	}
	for _, h := range m.Hists {
		if h.Name == "serve_latency_ns" {
			if h.P99 != total.Quantile(0.99) || h.Count != total.N {
				t.Fatalf("network-merged hist %+v != in-process merge %+v", h.HistSummary, total.Summary())
			}
		}
	}
}

func TestWireSnapshotFoldsDuplicates(t *testing.T) {
	// A corrupted or adversarial peer may repeat series and scramble label
	// order; decoding must canonicalize rather than produce unmergeable
	// duplicates.
	w := WireSnapshot{
		Counters: []WirePoint{
			{Name: "x_total", Labels: []LabelPair{{Key: "b", Value: "2"}, {Key: "a", Value: "1"}}, Value: 5},
			{Name: "x_total", Labels: []LabelPair{{Key: "a", Value: "1"}, {Key: "b", Value: "2"}}, Value: 7},
		},
		Hists: []WireHist{
			{Name: "h", Hist: func() Hist { var h Hist; h.Observe(10); return h }()},
			{Name: "h", Hist: func() Hist { var h Hist; h.Observe(20); return h }()},
		},
	}
	s := w.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Value != 12 {
		t.Fatalf("duplicate counters not folded: %+v", s.Counters)
	}
	if got := s.Counter(`x_total{a="1",b="2"}`); got != 12 {
		t.Fatalf("canonical key lookup got %d", got)
	}
	if len(s.Hists) != 1 || s.Hists[0].Count != 2 || s.Hists[0].Max != 20 {
		t.Fatalf("duplicate hists not folded: %+v", s.Hists)
	}
}
