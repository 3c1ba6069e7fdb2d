//! The traced run's instruments: an in-memory trace sink that totals the
//! spans the program already emits, and before/after snapshots of the
//! global metrics registry.

use pebble_obs::metrics::Registry;
use pebble_obs::trace::{Stamped, TraceEvent, TraceSink};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Span totals by name: `(count, summed microseconds)`. Spans from parallel
/// threads overlap, so a total is busy time, never wall time.
#[derive(Default)]
pub struct SpanLedger {
    spans: Mutex<BTreeMap<String, (u64, u64)>>,
}

impl TraceSink for SpanLedger {
    fn emit(&self, event: &Stamped) {
        if let TraceEvent::SpanEnd { name, dur_us } = &event.event {
            let mut spans = self.spans.lock().expect("span ledger poisoned");
            let entry = spans.entry(name.clone()).or_default();
            entry.0 += 1;
            entry.1 += dur_us;
        }
    }
}

impl SpanLedger {
    /// Install a fresh ledger as the process-global trace sink.
    pub fn install() -> Arc<SpanLedger> {
        let ledger = Arc::new(SpanLedger::default());
        pebble_obs::trace::set_sink(ledger.clone());
        ledger
    }

    /// Detach the global sink.
    pub fn uninstall() {
        pebble_obs::trace::clear_sink();
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span ledger poisoned");
        spans.get(name).map_or(0.0, |&(_, us)| us as f64 / 1e6)
    }

    /// Number of spans whose name starts with `prefix`.
    pub fn count_prefix(&self, prefix: &str) -> u64 {
        let spans = self.spans.lock().expect("span ledger poisoned");
        spans
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, &(count, _))| count)
            .sum()
    }
}

/// The global registry's engine and cache counters, read through their
/// handles. (The help texts are the program's own, in case the benchmark
/// registers a family first.)
pub struct Snapshot {
    pub expanded: f64,
    pub generated: f64,
    pub distinct: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub revalidation_failures: f64,
}

impl Snapshot {
    pub fn take() -> Snapshot {
        let registry = Registry::global();
        let counter = |name, help| registry.counter(name, help, &[]).get() as f64;
        let sharded = |name, help| registry.sharded_counter(name, help, &[]).total() as f64;
        Snapshot {
            expanded: sharded(
                "engine_expanded_total",
                "States expanded by the search engine",
            ),
            generated: sharded(
                "engine_generated_total",
                "Successor states generated by the search engine",
            ),
            distinct: counter(
                "engine_distinct_total",
                "Distinct states interned across engine solves",
            ),
            cache_hits: counter(
                "cache_hits_total",
                "Schedule-cache lookups served from a validated stored entry",
            ),
            cache_misses: counter(
                "cache_misses_total",
                "Schedule-cache lookups that found nothing servable",
            ),
            revalidation_failures: counter(
                "cache_revalidation_failures_total",
                "Stored entries that failed shape check or simulator re-validation",
            ),
        }
    }

    /// How far every counter moved from `before` to `self`.
    pub fn since(&self, before: &Snapshot) -> Snapshot {
        Snapshot {
            expanded: self.expanded - before.expanded,
            generated: self.generated - before.generated,
            distinct: self.distinct - before.distinct,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            revalidation_failures: self.revalidation_failures - before.revalidation_failures,
        }
    }
}

/// Every per-layer metric, in report order, with its unit. A traced run of
/// any workload reports all of them: a layer that is not on the workload's
/// path reads 0.
pub const LAYER_METRICS: [(&str, &str); 45] = [
    ("io.parse_s", "s"),
    ("io.parse_mb_per_s", "MB/s"),
    ("canon.ms_p50", "ms"),
    ("canon.calls", "count"),
    ("cache.lookup_ms_p50", "ms"),
    ("cache.insert_ms_p50", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.revalidation_failures", "count"),
    ("http.overhead_ms_p50", "ms"),
    ("pool.queue_depth_max", "count"),
    ("anytime.solve_ms_p50", "ms"),
    ("anytime.overshoot_ms_p50", "ms"),
    ("anytime.seed_busy_s", "s"),
    ("anytime.improve_busy_s", "s"),
    ("anytime.proven_ratio", "ratio"),
    ("compose.s", "s"),
    ("compose.decompose_busy_s", "s"),
    ("compose.components_busy_s", "s"),
    ("compose.stitch_busy_s", "s"),
    ("compose.components", "count"),
    ("compose.exact_ratio", "ratio"),
    ("portfolio.beam_busy_s", "s"),
    ("portfolio.baseline_busy_s", "s"),
    ("portfolio.greedy_busy_s", "s"),
    ("portfolio.runs", "count"),
    ("order.s", "s"),
    ("greedy.certify_s", "s"),
    ("greedy.moves", "count"),
    ("greedy.io_cost", "count"),
    ("greedy.moves_per_s", "1/s"),
    ("bounds.ladder_s", "s"),
    ("engine.expanded", "count"),
    ("engine.generated", "count"),
    ("engine.distinct", "count"),
    ("sim.validate_s", "s"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.hit_ms_p99", "ms"),
    ("serve.cold_ms_p50", "ms"),
    ("serve.cold_ms_p90", "ms"),
    ("serve.req_per_s", "1/s"),
    ("mem.peak_rss_mb", "MB"),
    ("mem.rss_mb_p50", "MB"),
    ("blocking_path_pct", "%"),
    ("trace_overhead_pct", "%"),
    ("fail_ratio", "ratio"),
];

/// The per-layer values a traced run fills in.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, Option<f64>>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_opt(name, Some(value));
    }

    /// `None` marks a value that was not measured (a tail percentile with
    /// too few samples beyond it): it is left out of the report, not
    /// guessed.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        assert!(
            LAYER_METRICS.iter().any(|&(n, _)| n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The engine counters' change over a traced phase, per one of the
    /// `passes` it held.
    pub fn set_engine(&mut self, change: &Snapshot, passes: f64) {
        self.set("engine.expanded", change.expanded / passes);
        self.set("engine.generated", change.generated / passes);
        self.set("engine.distinct", change.distinct / passes);
    }

    /// The portfolio members' busy time and run count from a span ledger,
    /// per one of the `passes` it recorded.
    pub fn set_portfolio(&mut self, spans: &SpanLedger, passes: f64) {
        for (name, span) in [
            ("portfolio.beam_busy_s", "portfolio:beam"),
            ("portfolio.baseline_busy_s", "portfolio:baseline"),
            ("portfolio.greedy_busy_s", "portfolio:greedy"),
        ] {
            self.set(name, spans.busy_s(span) / passes);
        }
        self.set(
            "portfolio.runs",
            spans.count_prefix("portfolio:") as f64 / passes,
        );
    }

    pub fn into_metrics(self) -> Vec<crate::Metric> {
        LAYER_METRICS
            .iter()
            .filter_map(|&(name, unit)| match self.0.get(name) {
                Some(None) => None,
                Some(Some(v)) => Some(crate::metric(name, *v, unit)),
                None => Some(crate::metric(name, 0.0, unit)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_layer_table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let per_layer = &json[json.find("\"per_layer\"").expect("a per_layer list")..];
        let listed: Vec<(&str, &str)> = per_layer
            .split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let (name, rest) = entry.split_once('"').expect("a quoted name");
                let unit = rest.split("\"unit\": \"").nth(1).expect("a unit");
                (name, unit.split('"').next().expect("a quoted unit"))
            })
            .collect();
        assert_eq!(listed, LAYER_METRICS.to_vec());
    }

    #[test]
    fn every_layer_metric_is_reported_unless_unmeasured() {
        let mut layers = Layers::default();
        layers.set("io.parse_s", 1.5);
        layers.set_opt("serve.hit_ms_p99", None);
        let metrics = layers.into_metrics();
        assert_eq!(metrics.len(), LAYER_METRICS.len() - 1);
        assert!(metrics.iter().all(|m| m.name != "serve.hit_ms_p99"));
        let parse = metrics.iter().find(|m| m.name == "io.parse_s").unwrap();
        assert_eq!((parse.value, parse.unit), (1.5, "s"));
        let canon = metrics.iter().find(|m| m.name == "canon.calls").unwrap();
        assert_eq!(canon.value, 0.0);
    }

    #[test]
    fn spans_are_totalled_by_name() {
        let ledger = SpanLedger::default();
        for (name, dur_us) in [("portfolio:beam", 1_500_000), ("portfolio:beam", 500_000)] {
            ledger.emit(&Stamped {
                t_us: 0,
                event: TraceEvent::SpanEnd {
                    name: name.to_string(),
                    dur_us,
                },
            });
        }
        ledger.emit(&Stamped {
            t_us: 0,
            event: TraceEvent::SpanStart {
                name: "portfolio:greedy".to_string(),
            },
        });
        assert_eq!(ledger.busy_s("portfolio:beam"), 2.0);
        assert_eq!(ledger.busy_s("portfolio:greedy"), 0.0);
        assert_eq!(ledger.count_prefix("portfolio:"), 2);
    }
}
