package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteMetrics renders the snapshot as Prometheus text exposition
// (version 0.0.4): counters as their native type, histograms as
// summaries (quantile series plus _sum and _count). Families are grouped
// under one # TYPE line each and emitted in sorted order, so the output
// is deterministic from the snapshot.
func WriteMetrics(w io.Writer, s Snapshot) error {
	type family struct {
		typ   string
		lines []string
	}
	fams := make(map[string]*family)
	get := func(name, typ string) *family {
		f, ok := fams[name]
		if !ok {
			f = &family{typ: typ}
			fams[name] = f
		}
		return f
	}
	for _, p := range s.Counters {
		f := get(p.Name, "counter")
		f.lines = append(f.lines, fmt.Sprintf("%s %d", renderSeries(p.Name, p.Labels, ""), p.Value))
	}
	for _, p := range s.Hists {
		f := get(p.Name, "summary")
		for _, q := range [...]struct {
			q string
			v int64
		}{{"0.5", p.P50}, {"0.99", p.P99}, {"0.999", p.P999}} {
			f.lines = append(f.lines,
				fmt.Sprintf("%s %d", renderSeries(p.Name, p.Labels, `quantile="`+q.q+`"`), q.v))
		}
		f.lines = append(f.lines,
			fmt.Sprintf("%s %d", renderSeries(p.Name+"_sum", p.Labels, ""), p.full.Sum),
			fmt.Sprintf("%s %d", renderSeries(p.Name+"_count", p.Labels, ""), p.Count))
	}
	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", n, f.typ); err != nil {
			return err
		}
		sort.Strings(f.lines)
		for _, l := range f.lines {
			if _, err := io.WriteString(w, l+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderSeries rebuilds a sample name from the snapshot's label map plus
// an optional extra rendered label (the summary quantile).
func renderSeries(name string, labels map[string]string, extra string) string {
	if len(labels) == 0 && extra == "" {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteString(`"`)
	}
	if extra != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extra)
	}
	b.WriteByte('}')
	return b.String()
}
