package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// metric is one named, unit-carrying number of a run. The names and units
// of endToEnd and perLayer are the ones BENCHMARK.json lists, in order.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd are the metrics a user of the memory sees; an untraced run
// reports exactly these.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "req_per_s", Unit: "req/s"},
	{Name: "op_p50_us", Unit: "us"},
	{Name: "op_p995_us", Unit: "us"},
	{Name: "heap_mb", Unit: "MB"},
}

// perLayer are the metrics a traced run reports, one or more per module
// on the request path, outermost last. Ladder rungs (per-call cost of one
// layer's public function over the run's recorded ops) carry _ns, _us or
// _allocs; ratios of telemetry counters over the timed phase carry count
// or fraction units.
var perLayer = []metric{
	{Name: "xbar.nor_rows_ns", Unit: "ns"},
	{Name: "xbar.nor_cols_ns", Unit: "ns"},
	{Name: "shifter.route_packed_ns", Unit: "ns"},
	{Name: "cmem.update_critical_ns", Unit: "ns"},
	{Name: "cmem.check_line_us", Unit: "us"},
	{Name: "ecc.build_us", Unit: "us"},
	{Name: "ecc.update_reads_per_write", Unit: "count"},
	{Name: "ecc.critical_ops_per_compute", Unit: "count"},
	{Name: "ecc.input_checks_per_compute", Unit: "count"},
	{Name: "ecc.corrections_per_kreq", Unit: "count"},
	{Name: "machine.update_row_ns", Unit: "ns"},
	{Name: "machine.update_row_allocs", Unit: "count"},
	{Name: "machine.scrub_us", Unit: "us"},
	{Name: "machine.execute_simd_us", Unit: "us"},
	{Name: "machine.mem_cycles_per_compute", Unit: "count"},
	{Name: "pmem.write_word_ns", Unit: "ns"},
	{Name: "pmem.write_word_allocs", Unit: "count"},
	{Name: "pmem.read_word_ns", Unit: "ns"},
	{Name: "pmem.read_word_allocs", Unit: "count"},
	{Name: "pmem.scrub_xbar_us", Unit: "us"},
	{Name: "pmem.execute_simd_us", Unit: "us"},
	{Name: "pmem.scrubs_per_kreq", Unit: "count"},
	{Name: "pmem.scrub_share", Unit: "fraction"},
	{Name: "serve.do_ns", Unit: "ns"},
	{Name: "serve.do_allocs", Unit: "count"},
	{Name: "serve.batch64_us", Unit: "us"},
	{Name: "serve.compute_do_us", Unit: "us"},
	{Name: "serve.wait_p50_us", Unit: "us"},
	{Name: "serve.wait_p99_us", Unit: "us"},
	{Name: "serve.latency_p99_us", Unit: "us"},
	{Name: "serve.batch_mean", Unit: "count"},
	{Name: "serve.coalesce_frac", Unit: "fraction"},
	{Name: "serve.segments_per_req", Unit: "count"},
	{Name: "netfleet.batch64_us", Unit: "us"},
	{Name: "netfleet.wire_us", Unit: "us"},
	{Name: "netfleet.reqs_per_frame", Unit: "count"},
	{Name: "netfleet.gossip_tx_per_s", Unit: "1/s"},
	{Name: "netfleet.rotation_scrubs_per_s", Unit: "1/s"},
	{Name: "go.alloc_bytes_per_req", Unit: "B"},
	{Name: "go.allocs_per_req", Unit: "count"},
	{Name: "go.gc_per_s", Unit: "1/s"},
	{Name: "host.calib_ns", Unit: "ns"},
	{Name: "host.probe_us", Unit: "us"},
	{Name: "trace.overhead_frac", Unit: "fraction"},
}

// fill returns the specs with values taken from vals; a spec with no
// value is an error, so a run can never silently omit a metric.
func fill(specs []metric, vals map[string]float64) ([]metric, error) {
	out := make([]metric, len(specs))
	for i, s := range specs {
		v, ok := vals[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		s.Value = v
		out[i] = s
	}
	return out, nil
}

// verdict is the last line of a run's standard output.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints every metric by name and unit, then the verdict line.
func report(w io.Writer, ms []metric, v verdict) error {
	v.Metrics = make(map[string]metric, len(ms))
	for _, m := range ms {
		fmt.Fprintf(w, "%-32s %16.6g %s\n", m.Name, m.Value, m.Unit)
		v.Metrics[m.Name] = m
	}
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// nearestRank returns the q-quantile (0 < q <= 1) of samples by the
// nearest-rank rule: the smallest sample with at least q of all samples
// at or below it. It sorts samples in place; empty input gives 0.
func nearestRank(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(math.Ceil(q * float64(len(samples))))
	return samples[max(rank, 1)-1]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count). It sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// heapMB forces a collection and returns the live heap in megabytes.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// calibSink keeps the calibration loop observable.
var calibSink uint64

// hostCalibNs times the repository's BenchmarkHostCalibration loop (a
// data-dependent LCG spin no code change can affect) and returns the
// median nanoseconds per loop, so host drift between runs shows.
func hostCalibNs() float64 {
	xs := make([]float64, 0, 501)
	for r := 0; r < cap(xs); r++ {
		t0 := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		for j := 0; j < 4096; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			x ^= x >> 29
		}
		calibSink = x
		xs = append(xs, float64(time.Since(t0).Nanoseconds()))
	}
	return median(xs)
}

const (
	// The host-speed probe is probeReps passes of probePasses sweeps of
	// word bit operations over probeWords, 8 KB that stay in cache like a
	// crossbar's rows: about 2.5 ms a pass on the baseline host.
	probeReps   = 5
	probePasses = 400
	// nominalProbeNs is one probe pass on the nominal host the end-to-end
	// metrics are scaled to.
	nominalProbeNs = 2.5e6
)

var (
	probeWords = func() (w [1024]uint64) {
		for i := range w {
			w[i] = uint64(i) * 0x9E3779B97F4A7C15
		}
		return w
	}()
	probeSink uint64
)

// hostFactor runs the host-speed probe and returns how much slower than
// the nominal host this one runs right now: 1.2 means the median pass
// took 3 ms. The probe is fixed benchmark code that no program change
// touches, so scaling a measurement taken next to it by it cancels the
// host's drift (other tenants' load moves it by tens of percent within
// seconds) and keeps the program's. Garbage is collected first, so no
// collection overlaps the probe.
func hostFactor() float64 {
	runtime.GC()
	passes := make([]float64, probeReps)
	w, mask := probeWords[:], len(probeWords)-1
	for r := range passes {
		t0 := time.Now()
		var acc uint64
		for p := 0; p < probePasses; p++ {
			for i := range w {
				v := w[i] ^ (w[(i+p+1)&mask] << 1) | w[(i+3)&mask]>>7
				if v&1 != 0 {
					acc += uint64(bits.OnesCount64(v))
				}
				w[i] = v &^ (v >> 3)
			}
		}
		probeSink += acc
		passes[r] = float64(time.Since(t0).Nanoseconds())
	}
	return median(passes) / nominalProbeNs
}

// probe is a point-in-time reading of the process: Go allocation and GC
// counters and the telemetry series of the run's registries.
type probe struct {
	at      time.Time
	mallocs uint64
	bytes   uint64
	gcs     uint32
	tel     tally
}

func takeProbe(regs ...*telemetry.Registry) probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return probe{at: time.Now(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC, tel: tallyOf(regs...)}
}

// tally sums a snapshot's series by family name, across every label set
// and every registry.
type tally struct {
	counters map[string]int64
	hists    map[string]telemetry.Hist
}

func tallyOf(regs ...*telemetry.Registry) tally {
	t := tally{counters: map[string]int64{}, hists: map[string]telemetry.Hist{}}
	for _, r := range regs {
		s := r.Snapshot()
		for _, c := range s.Counters {
			t.counters[c.Name] += c.Value
			if op, ok := c.Labels["op"]; ok {
				t.counters[c.Name+"{op="+op+"}"] += c.Value
			}
		}
		for _, h := range s.Hists {
			t.hists[h.Name] = t.hists[h.Name].Merge(h.Hist())
		}
	}
	return t
}

// since returns the series' growth from an earlier tally. A histogram's
// Max cannot be differenced; the later maximum is kept, which only loosens
// the top bucket's clamp.
func (t tally) since(prev tally) tally {
	d := tally{counters: map[string]int64{}, hists: map[string]telemetry.Hist{}}
	for k, v := range t.counters {
		d.counters[k] = v - prev.counters[k]
	}
	for k, h := range t.hists {
		p := prev.hists[k]
		h.N -= p.N
		h.Sum -= p.Sum
		for i := range h.Buckets {
			h.Buckets[i] -= p.Buckets[i]
		}
		d.hists[k] = h
	}
	return d
}

// ratio is a/b, or 0 when b is 0 (a series the phase never touched).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
