package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span sampling: request spans are kept for one request in sampleEvery,
// and at most spanCap spans are kept in all. Phase, set-up and ladder
// spans are always kept (they are few).
const (
	sampleEvery = 64
	spanCap     = 100_000
)

// span is one benchmark-side call into a layer's public function. Spans of
// one request share Req; Req 0 marks set-up, phase and ladder spans. Times
// are nanoseconds since the tracer started. Self is the duration minus the
// part of [Start, End) covered by child spans, filled in when written out.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps spans in memory for one traced run. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branch.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	reqs  atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin reserves a span id for a span whose children are recorded before
// it ends; pass the id to end.
func (t *tracer) begin() (id int64, start time.Time) {
	if t == nil {
		return 0, time.Time{}
	}
	return t.ids.Add(1), time.Now()
}

// end records a span begun with begin.
func (t *tracer) end(id, parent int64, layer, name string, start time.Time) {
	if t == nil {
		return
	}
	t.add(span{ID: id, Parent: parent, Layer: layer, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: time.Since(t.epoch).Nanoseconds()})
}

// step times fn as a kept span (set-up steps and ladder rungs).
func (t *tracer) step(parent int64, layer, name string, fn func() error) error {
	id, start := t.begin()
	err := fn()
	t.end(id, parent, layer, name, start)
	return err
}

// op records one request's call, timed by the caller: every call when
// keep is set, otherwise one request in sampleEvery.
func (t *tracer) op(parent int64, layer, name string, start, stop time.Time, keep bool) {
	if t == nil {
		return
	}
	req := t.reqs.Add(1)
	if !keep && req%sampleEvery != 0 {
		return
	}
	t.add(span{ID: t.ids.Add(1), Parent: parent, Req: req, Layer: layer, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: stop.Sub(t.epoch).Nanoseconds()})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= spanCap {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// spanFile is the self-describing document written by -trace-out.
type spanFile struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	SampleEvery int    `json:"sample_every"`
	Cap         int    `json:"cap"`
	Dropped     int64  `json:"dropped"`
	Spans       []span `json:"spans"`
}

// write fills in self times and writes the spans as JSON to path.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	selfTimes(spans)
	doc, err := json.Marshal(spanFile{Workload: workload, Seed: seed,
		SampleEvery: sampleEvery, Cap: spanCap, Dropped: dropped, Spans: spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	return os.WriteFile(path, doc, 0o644)
}

// selfTimes sets each span's Self to its duration minus the union of its
// children's intervals clipped to it. spans must be sorted by Start, so
// each parent's children arrive in start order.
func selfTimes(spans []span) {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		s := &spans[i]
		covered, reach := int64(0), s.Start
		for _, c := range children[s.ID] {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}
