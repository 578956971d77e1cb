package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestNilRegistryIsDisabledLayer: a nil registry resolves nil handles,
// and every handle method no-ops without allocating — the contract that
// lets instrumented hot paths call through unconditionally.
func TestNilRegistryIsDisabledLayer(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total", "bank", "0")
	h := reg.Histogram("lat")
	ring := reg.Events()
	if c != nil || h != nil || ring != nil {
		t.Fatal("nil registry resolved live handles")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		h.Observe(42)
		ring.Emit(EvScrub, 1, 2, 3, 4, 5)
	}); allocs != 0 {
		t.Fatalf("disabled path allocates %v per op bundle", allocs)
	}
	if c.Value() != 0 || h.Hist().N != 0 || ring.Total() != 0 {
		t.Fatal("nil handles reported state")
	}
	if !reg.Snapshot().Empty() {
		t.Fatal("nil registry snapshot not empty")
	}
}

// TestEnabledHotPathZeroAllocs: resolved handles update without
// allocating — telemetry on must not add garbage to the serve loop.
func TestEnabledHotPathZeroAllocs(t *testing.T) {
	reg := New()
	c := reg.Counter("x_total", "bank", "0")
	h := reg.Histogram("lat")
	ring := reg.Events()
	if allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		h.Observe(1 << 20)
		ring.Emit(EvCoalesce, 10, 1, 0, 4, 7)
	}); allocs != 0 {
		t.Fatalf("enabled path allocates %v per op bundle", allocs)
	}
}

// TestRegistryResolvesSameHandle: series identity is name plus the
// sorted label set — label order at the call site must not matter.
func TestRegistryResolvesSameHandle(t *testing.T) {
	reg := New()
	a := reg.Counter("s_total", "bank", "3", "scheme", "diagonal")
	b := reg.Counter("s_total", "scheme", "diagonal", "bank", "3")
	if a != b {
		t.Fatal("label order changed series identity")
	}
	if c := reg.Counter("s_total", "bank", "4", "scheme", "diagonal"); c == a {
		t.Fatal("different label value resolved the same series")
	}
	if reg.Histogram("s_total") == nil {
		t.Fatal("family name can back different metric types")
	}
	a.Inc()
	b.Add(2)
	if got := reg.Snapshot().Counter(`s_total{bank="3",scheme="diagonal"}`); got != 3 {
		t.Fatalf("shared handle counted %d, want 3", got)
	}
}

// TestSnapshotDeterministicUnderConcurrency: counters and histograms are
// commutative, so however the same work is scattered across goroutines
// the snapshot marshals to identical bytes.
func TestSnapshotDeterministicUnderConcurrency(t *testing.T) {
	run := func(workers int) []byte {
		reg := New()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Every worker owns a slice of one fixed observation
				// stream: the total work is worker-count invariant.
				for i := w; i < 8000; i += workers {
					reg.Counter("ops_total", "bank", fmt.Sprint(i%4)).Inc()
					reg.Histogram("lat_ticks").Observe(int64(i % 977))
				}
			}(w)
		}
		wg.Wait()
		out, err := json.Marshal(reg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := run(1)
	for _, w := range []int{2, 8, 32} {
		if got := run(w); !bytes.Equal(base, got) {
			t.Fatalf("snapshot at %d workers diverged:\n%s\n---\n%s", w, base, got)
		}
	}
}

// TestSnapshotMergeOrderIndependent: per-shard snapshots roll up into
// the same total in any merge order (the fleet aggregation property).
func TestSnapshotMergeOrderIndependent(t *testing.T) {
	shard := func(seed int64) Snapshot {
		reg := New()
		for i := int64(0); i < 100; i++ {
			reg.Counter("c_total", "bank", fmt.Sprint((seed+i)%3)).Add(i)
			reg.Histogram("h").Observe(seed*37 + i)
		}
		return reg.Snapshot()
	}
	a, b, c := shard(1), shard(2), shard(3)
	ab := a.Merge(b).Merge(c)
	cb := c.Merge(b).Merge(a)
	// Keys are unexported; compare the canonical JSON forms.
	ja, _ := json.Marshal(ab)
	jb, _ := json.Marshal(cb)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("merge order changed snapshot:\n%s\n---\n%s", ja, jb)
	}
	if ab.CounterFamily("c_total") != a.CounterFamily("c_total")+b.CounterFamily("c_total")+c.CounterFamily("c_total") {
		t.Fatal("merged counters lost mass")
	}
	var wantH Hist
	for _, s := range []Snapshot{a, b, c} {
		wantH = wantH.Merge(s.Hists[0].Hist())
	}
	if !reflect.DeepEqual(ab.Hists[0].Hist(), wantH) {
		t.Fatal("merged histogram diverged from direct merge")
	}
}

// TestRingBounded: the ring retains exactly its capacity of newest
// events, keeps Seq monotone across overwrites, and returns them oldest
// first.
func TestRingBounded(t *testing.T) {
	g := NewRing(8)
	for i := 1; i <= 20; i++ {
		g.Emit(EvInject, int64(i), i, 0, int64(i), 0)
	}
	if g.Total() != 20 {
		t.Fatalf("total %d, want 20", g.Total())
	}
	events := g.Recent(0)
	if len(events) != 8 {
		t.Fatalf("retained %d, want capacity 8", len(events))
	}
	for i, e := range events {
		if want := uint64(13 + i); e.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, want)
		}
	}
	if last2 := g.Recent(2); len(last2) != 2 || last2[1].Seq != 20 {
		t.Fatalf("Recent(2) = %+v", last2)
	}
	// Before wrap-around: a partially filled ring returns what it holds.
	small := NewRing(16)
	small.Emit(EvScrub, 1, 0, 0, 0, 0)
	small.Emit(EvScrub, 2, 0, 0, 0, 0)
	if got := small.Recent(0); len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("partial ring Recent = %+v", got)
	}
}

// TestEventKindJSON: kinds marshal as their names (what /trace serves).
func TestEventKindJSON(t *testing.T) {
	for k := EventKind(0); k < numEventKinds; k++ {
		out, err := json.Marshal(Event{Kind: k})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(out, []byte(`"kind":"`+k.String()+`"`)) {
			t.Fatalf("kind %d marshaled as %s", k, out)
		}
	}
}
