//! The engine's hook into the `pebble-obs` metrics registry.
//!
//! Handles are registered once per process and cached in a `OnceLock`;
//! recording is a handful of relaxed atomic adds per *solve*, so the
//! expansion loop itself pays nothing beyond the counters it already kept.

use super::StopReason;
use pebble_obs::metrics::{Counter, Gauge, Registry, ShardedCounter};
use std::sync::OnceLock;

pub(crate) struct EngineMetrics {
    /// States expanded. The engine writes shard 0; the name stays a
    /// sharded counter because other readers register it as one, and the
    /// registry rejects a second registration with another type.
    pub expanded: ShardedCounter,
    /// Successor states generated (sharded like `expanded`).
    pub generated: ShardedCounter,
    /// Distinct states interned across completed solves.
    pub distinct: Counter,
    /// Transposition-table occupancy (distinct states) of the most recent
    /// solve.
    pub tt_occupancy: Gauge,
    /// Solves by stop reason, indexed as [completed, deadline, budget,
    /// cutoff].
    pub solves: [Counter; 4],
}

pub(crate) fn metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = Registry::global();
        let solve_counter = |stop: &StopReason| {
            r.counter(
                "engine_solves_total",
                "Engine solves by stop reason",
                &[("stop", stop.as_str())],
            )
        };
        EngineMetrics {
            expanded: r.sharded_counter(
                "engine_expanded_total",
                "States expanded by the search engine",
                &[],
            ),
            generated: r.sharded_counter(
                "engine_generated_total",
                "Successor states generated by the search engine",
                &[],
            ),
            distinct: r.counter(
                "engine_distinct_total",
                "Distinct states interned across engine solves",
                &[],
            ),
            tt_occupancy: r.gauge(
                "engine_tt_occupancy",
                "Transposition-table occupancy (distinct states) of the most recent solve",
                &[],
            ),
            solves: [
                solve_counter(&StopReason::Completed),
                solve_counter(&StopReason::Deadline),
                solve_counter(&StopReason::Budget),
                solve_counter(&StopReason::Cutoff),
            ],
        }
    })
}

/// Record one solve's expansion and generation counts.
pub(crate) fn record_expansions(expanded: usize, generated: usize) {
    let m = metrics();
    m.expanded.add(0, expanded as u64);
    m.generated.add(0, generated as u64);
}

/// Record a finished solve: distinct-state total, transposition-table
/// occupancy, and the stop-reason counter.
pub(crate) fn record_solve(distinct: usize, stop: StopReason) {
    let m = metrics();
    m.distinct.add(distinct as u64);
    m.tt_occupancy.set(distinct as i64);
    let idx = match stop {
        StopReason::Completed => 0,
        StopReason::Deadline => 1,
        StopReason::Budget => 2,
        StopReason::Cutoff => 3,
    };
    m.solves[idx].inc();
}
