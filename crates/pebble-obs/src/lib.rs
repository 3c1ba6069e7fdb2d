//! Observability substrate for the PRBP stack: metrics and structured
//! traces, with zero dependencies beyond `std`.
//!
//! The crate has three modules:
//!
//! - [`metrics`] — a process-global [`metrics::Registry`] of relaxed-atomic
//!   counters, gauges and log-bucketed histograms, plus per-worker
//!   [`metrics::ShardedCounter`]s for the engine's expansion loop. Rendered
//!   on demand in the Prometheus text exposition format (`GET /metrics`).
//! - [`trace`] — typed, monotonic-clock-stamped events
//!   ([`trace::TraceEvent`]) flowing through a process-global
//!   [`trace::TraceSink`] (JSONL file or discard). When no sink is
//!   installed the emit path is one relaxed atomic load, so instrumentation
//!   stays compiled into hot loops.
//! - [`analyze`] — the offline half: parse a JSONL stream back into events
//!   and summarize phase timings (`prbp trace <file.jsonl>`).
//!
//! The overhead contract instrumented crates rely on: metric updates are
//! single relaxed RMWs on pre-registered handles; trace emission is gated on
//! [`trace::enabled`]; per-worker counters live on distinct cache lines and
//! fold only at snapshot time. Measured end-to-end on the solver benchmark
//! corpus, total overhead stays under 3%.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod metrics;
pub mod trace;
