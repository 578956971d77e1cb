package telemetry

import "testing"

// BenchmarkTelemetryOverhead measures the instrumentation bundle a
// served request pays on the serve hot loop — two counter bumps, one
// histogram observation, one event append — with telemetry disabled
// (nil handles, the default) and enabled (live atomic series).
//
// The disabled variant is the acceptance gate: it must run at ~0 ns and
// 0 allocs/op, proving that default-off telemetry does not perturb the
// benchmarks or reports. cmd/benchjson parses the /telemetry= tag into
// its own field so snapshots compare the two by field.
func BenchmarkTelemetryOverhead(b *testing.B) {
	run := func(b *testing.B, c *Counter, h *Histogram, ring *Ring) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
			c.Add(2)
			h.Observe(int64(i % 4093))
			ring.Emit(EvCoalesce, int64(i), 1, 0, 4, int64(i&63))
		}
	}
	b.Run("telemetry=off", func(b *testing.B) {
		run(b, nil, nil, nil)
	})
	b.Run("telemetry=on", func(b *testing.B) {
		reg := New()
		run(b,
			reg.Counter("bench_requests_total", "bank", "0"),
			reg.Histogram("bench_latency_ticks"),
			reg.Events())
	})
}
