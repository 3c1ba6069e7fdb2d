//! A process-global registry of atomic counters, gauges and log-bucketed
//! histograms, rendered in the Prometheus text exposition format.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cost.** Updating a metric is one relaxed atomic RMW on a
//!    handle the caller obtained once — no name lookup, no lock, no
//!    allocation. Counters written from many threads can use
//!    [`ShardedCounter`]: per-worker cache-padded shards written with
//!    relaxed ordering and folded only when a snapshot is rendered, so
//!    workers never contend on one cache line.
//! 2. **Misuse fails loudly.** Registering the same metric name twice with
//!    different types panics immediately (a silent type confusion would
//!    corrupt every dashboard built on the name); metric and label names are
//!    validated against the Prometheus grammar at registration time.
//! 3. **Deterministic exposition.** Families and series render in sorted
//!    order and label values are escaped per the exposition-format rules,
//!    so the output is byte-stable for golden tests.
//!
//! Registration is the slow path (a mutex-guarded map insert); it is meant
//! to happen once per metric per process, with the returned handle cached in
//! a `OnceLock` by the instrumented subsystem.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Shards per [`ShardedCounter`]. Callers index with `worker % SHARDS`, so
/// any worker count works; 16 covers the engine's typical parallelism
/// without false sharing (each shard is cache-line padded).
pub const SHARDS: usize = 16;

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A settable instantaneous value. Cloning shares the underlying cell.
#[derive(Clone, Debug)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`.
    pub fn sub(&self, n: i64) {
        self.cell.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// One shard on its own cache line, so concurrent workers incrementing
/// different shards never bounce a line between cores.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedCell(AtomicU64);

/// A counter split into [`SHARDS`] per-worker cells, folded on snapshot.
///
/// Each writer thread owns shard `worker % SHARDS` and adds with relaxed
/// ordering; [`ShardedCounter::total`] sums the shards. The registry renders
/// the folded total as a plain Prometheus counter.
#[derive(Clone, Debug)]
pub struct ShardedCounter {
    shards: Arc<[PaddedCell; SHARDS]>,
}

impl ShardedCounter {
    fn new() -> Self {
        ShardedCounter {
            shards: Arc::new(std::array::from_fn(|_| PaddedCell::default())),
        }
    }

    /// Add `n` to the shard owned by `worker` (taken modulo [`SHARDS`]).
    pub fn add(&self, worker: usize, n: u64) {
        self.shards[worker % SHARDS]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// The value of one shard (index taken modulo [`SHARDS`]).
    pub fn shard(&self, worker: usize) -> u64 {
        self.shards[worker % SHARDS].0.load(Ordering::Relaxed)
    }

    /// Fold every shard into the counter's total.
    pub fn total(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Histogram buckets: `le = 2^i` for `i in 0..=63`, plus `+Inf`. Bucket `i`
/// counts observations with `value <= 2^i`, so any `u64` lands in a bucket
/// with at most a 2x relative error on the upper edge.
const HIST_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramCore {
    /// Non-cumulative per-bucket counts (made cumulative at render time).
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

/// A log-bucketed histogram of `u64` samples (latencies in microseconds,
/// sizes in nodes/bytes). Cloning shares the underlying cells.
#[derive(Clone, Debug)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

/// Smallest bucket index `i` with `value <= 2^i` (64 = the `+Inf` bucket).
fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        0
    } else {
        64 - (value - 1).leading_zeros() as usize
    }
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            core: Arc::new(HistogramCore {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
            }),
        }
    }

    /// Record one sample.
    pub fn observe(&self, value: u64) {
        self.core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }
}

/// The concrete type a name was registered with. Used only for the loud
/// double-registration check; [`MetricType::exposition_kind`] is what lands
/// in the `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricType {
    /// Plain [`Counter`].
    Counter,
    /// [`ShardedCounter`] (rendered as a counter).
    ShardedCounter,
    /// [`Gauge`].
    Gauge,
    /// [`Histogram`].
    Histogram,
}

impl MetricType {
    /// The Prometheus `# TYPE` keyword for this metric type.
    pub fn exposition_kind(self) -> &'static str {
        match self {
            MetricType::Counter | MetricType::ShardedCounter => "counter",
            MetricType::Gauge => "gauge",
            MetricType::Histogram => "histogram",
        }
    }
}

#[derive(Clone)]
enum Handle {
    Counter(Counter),
    Sharded(ShardedCounter),
    Gauge(Gauge),
    Histogram(Histogram),
}

struct Family {
    ty: MetricType,
    help: String,
    /// Label set (sorted) -> handle.
    series: BTreeMap<Vec<(String, String)>, Handle>,
}

/// A named collection of metrics. Most code uses the process-global
/// [`Registry::global`]; tests construct private instances for determinism.
#[derive(Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.bytes().enumerate().all(|(i, b)| {
            b.is_ascii_alphabetic() || b == b'_' || b == b':' || (i > 0 && b.is_ascii_digit())
        })
}

fn sorted_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

/// Escape a label value per the exposition format: backslash, double quote
/// and newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a `# HELP` text: backslash and newline.
fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn render_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    if labels.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    format!("{{{}}}", parts.join(","))
}

impl Registry {
    /// An empty registry (tests and tools; production code uses
    /// [`Registry::global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-global registry every instrumented subsystem registers
    /// into and `GET /metrics` renders.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn register(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        ty: MetricType,
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        assert!(
            valid_name(name),
            "metric name `{name}` is not a valid Prometheus name"
        );
        for (k, _) in labels {
            assert!(
                valid_name(k) && !k.contains(':'),
                "label name `{k}` on metric `{name}` is not a valid Prometheus label"
            );
            assert!(
                *k != "le",
                "label `le` on metric `{name}` is reserved for histogram buckets"
            );
        }
        let mut families = self.families.lock().expect("metrics registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            ty,
            help: help.to_string(),
            series: BTreeMap::new(),
        });
        assert!(
            family.ty == ty,
            "metric `{name}` registered twice with different types: \
             first as {:?}, now as {ty:?}",
            family.ty
        );
        family
            .series
            .entry(sorted_labels(labels))
            .or_insert_with(make)
            .clone()
    }

    /// Register (or look up) a counter. Panics if `name` already exists with
    /// a different type.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.register(name, help, labels, MetricType::Counter, || {
            Handle::Counter(Counter {
                cell: Arc::new(AtomicU64::new(0)),
            })
        }) {
            Handle::Counter(c) => c,
            _ => unreachable!("type checked by register"),
        }
    }

    /// Register (or look up) a per-worker sharded counter. Panics if `name`
    /// already exists with a different type.
    pub fn sharded_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> ShardedCounter {
        match self.register(name, help, labels, MetricType::ShardedCounter, || {
            Handle::Sharded(ShardedCounter::new())
        }) {
            Handle::Sharded(c) => c,
            _ => unreachable!("type checked by register"),
        }
    }

    /// Register (or look up) a gauge. Panics if `name` already exists with a
    /// different type.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.register(name, help, labels, MetricType::Gauge, || {
            Handle::Gauge(Gauge {
                cell: Arc::new(AtomicI64::new(0)),
            })
        }) {
            Handle::Gauge(g) => g,
            _ => unreachable!("type checked by register"),
        }
    }

    /// Register (or look up) a log-bucketed histogram. Panics if `name`
    /// already exists with a different type.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.register(name, help, labels, MetricType::Histogram, || {
            Handle::Histogram(Histogram::new())
        }) {
            Handle::Histogram(h) => h,
            _ => unreachable!("type checked by register"),
        }
    }

    /// Render every family in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` headers, sorted families and
    /// series, escaped label values, histogram `_bucket`/`_sum`/`_count`
    /// triplets with cumulative power-of-two `le` buckets.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            if !family.help.is_empty() {
                let _ = writeln!(out, "# HELP {name} {}", escape_help(&family.help));
            }
            let _ = writeln!(out, "# TYPE {name} {}", family.ty.exposition_kind());
            for (labels, handle) in &family.series {
                match handle {
                    Handle::Counter(c) => {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels, None), c.get());
                    }
                    Handle::Sharded(c) => {
                        let _ =
                            writeln!(out, "{name}{} {}", render_labels(labels, None), c.total());
                    }
                    Handle::Gauge(g) => {
                        let _ = writeln!(out, "{name}{} {}", render_labels(labels, None), g.get());
                    }
                    Handle::Histogram(h) => {
                        // Snapshot the non-cumulative counts first so the
                        // cumulative series is internally consistent even
                        // while observations race.
                        let counts: Vec<u64> = h
                            .core
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect();
                        let total: u64 = counts.iter().sum();
                        let highest = counts[..64].iter().rposition(|&c| c > 0);
                        let mut cumulative = 0u64;
                        if let Some(highest) = highest {
                            for (i, &c) in counts.iter().enumerate().take(highest + 1) {
                                cumulative += c;
                                let le = (1u128 << i).to_string();
                                let _ = writeln!(
                                    out,
                                    "{name}_bucket{} {cumulative}",
                                    render_labels(labels, Some(("le", &le)))
                                );
                            }
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {total}",
                            render_labels(labels, Some(("le", "+Inf")))
                        );
                        let _ =
                            writeln!(out, "{name}_sum{} {}", render_labels(labels, None), h.sum());
                        let _ =
                            writeln!(out, "{name}_count{} {total}", render_labels(labels, None));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let r = Registry::new();
        let c = r.counter("c_total", "a counter", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Re-registering the same series returns the same cell.
        assert_eq!(r.counter("c_total", "a counter", &[]).get(), 5);

        let g = r.gauge("g", "a gauge", &[]);
        g.set(7);
        g.sub(10);
        assert_eq!(g.get(), -3);

        let h = r.histogram("h_us", "a histogram", &[]);
        for v in [0, 1, 2, 3, 900] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 906);
    }

    #[test]
    fn bucket_index_is_the_smallest_covering_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 20), 20);
        assert_eq!(bucket_index((1 << 20) + 1), 21);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn sharded_counter_folds_shards() {
        let r = Registry::new();
        let c = r.sharded_counter("s_total", "sharded", &[]);
        c.add(0, 3);
        c.add(1, 4);
        c.add(SHARDS, 5); // wraps to shard 0
        assert_eq!(c.shard(0), 8);
        assert_eq!(c.shard(1), 4);
        assert_eq!(c.total(), 12);
    }

    #[test]
    #[should_panic(expected = "registered twice with different types")]
    fn double_registration_with_a_different_type_panics() {
        let r = Registry::new();
        let _ = r.counter("dup", "first", &[]);
        let _ = r.gauge("dup", "second", &[]);
    }

    #[test]
    #[should_panic(expected = "not a valid Prometheus name")]
    fn invalid_metric_names_panic() {
        let _ = Registry::new().counter("bad name", "", &[]);
    }

    #[test]
    #[should_panic(expected = "reserved for histogram buckets")]
    fn le_label_is_reserved() {
        let _ = Registry::new().histogram("h", "", &[("le", "1")]);
    }

    #[test]
    fn labels_sort_and_escape() {
        let r = Registry::new();
        let c = r.counter("l_total", "", &[("zeta", "z"), ("alpha", "a\"b\\c\nd")]);
        c.inc();
        let text = r.render_prometheus();
        assert!(
            text.contains("l_total{alpha=\"a\\\"b\\\\c\\nd\",zeta=\"z\"} 1"),
            "{text}"
        );
    }
}
