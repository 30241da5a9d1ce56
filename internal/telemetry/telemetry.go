// Package telemetry is the instrumentation substrate of the pipeline:
// integer-only, zero-alloc counters, gauges and log-bucketed latency
// histograms that hotpath code records into, plus causal span tracing
// that follows each 2-second window through every pipeline stage as a
// span tree whose depth-1 leaves tile its end-to-end decode latency
// (encode → transmit → retransmit attempts → link transit → reorder
// hold → solve → reconstruct; span.go, DESIGN.md §14).
//
// The recording side obeys the same embedded constraints csecg-vet
// enforces on the encoder: Counter.Add, Gauge.Set and
// Histogram.Observe are //csecg:hotpath (allocation-free, verified by
// AllocsPerRun tests) and take only int64 ticks, so device-side
// packages can call them without tripping the nofpu analyzer. Float
// conversion — percentiles, means, rate math — happens exclusively on
// the host side at export time and is marked //csecg:host.
//
// Three exporters turn a session's telemetry into files:
//
//   - WritePrometheus: a Prometheus text-format metrics dump (plus
//     CausalTracer.WriteStageSeconds, the per-stage histograms with
//     trace exemplars);
//   - WriteTraceRecords / ReadTraceRecords: round-trippable span-tree
//     JSONL, csecg-triage's input;
//   - WriteChromeTrace: the same span trees as Chrome trace_event JSON
//     loadable in chrome://tracing or Perfetto.
//
// All timing is injectable through the Clock interface so traces are
// reproducible in tests (the determinism analyzer bans bare time.Now
// in library packages); WallClock is the production implementation.
package telemetry
