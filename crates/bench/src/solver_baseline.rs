//! The CI-tracked exact-solver benchmark baseline (`BENCH_solvers.json`).
//!
//! A corpus of small instances from the paper's E1–E9 experiment families is
//! solved by the engine's sequential A* with each shipped heuristic:
//! `zero` (uniform-cost search) and `load-count`. Two metrics are recorded per
//! (instance, heuristic) pair:
//!
//! * **expanded** — states expanded by the search. Deterministic and
//!   hardware-independent: the metric regressions are gated on.
//! * **median_ns** — median wall-clock nanoseconds over the configured
//!   repetitions. Machine-dependent; the gate applies a tolerance and a
//!   floor so timer noise on sub-millisecond searches cannot fail CI, and
//!   can be disabled entirely for cross-machine comparisons.
//!
//! The `bench_solvers` binary sweeps the corpus across all cores, writes the
//! JSON, and — given `--check <baseline>` — fails when a gated metric
//! regresses by more than the configured percentage against the committed
//! baseline.

use pebble_dag::generators::{
    binary_tree, chained_gadgets, fig1_full, kary_tree, matvec, pebble_collection, zipper,
};
use pebble_dag::Dag;
use pebble_game::engine::{self as engine, EngineConfig};
use pebble_game::exact::{LoadCountHeuristic, LowerBound, SearchStats, ZeroHeuristic};
use pebble_game::prbp::PrbpConfig;
use pebble_game::rbp::RbpConfig;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One (instance, heuristic) measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeuristicResult {
    /// Heuristic name ([`LowerBound::name`]).
    pub heuristic: String,
    /// Optimal cost found (identical across heuristics by admissibility).
    pub cost: usize,
    /// States expanded — the hardware-independent regression metric.
    pub expanded: usize,
    /// Successor states generated.
    pub generated: usize,
    /// Distinct states interned in the transposition table.
    pub distinct: usize,
    /// Median wall-clock nanoseconds across repetitions.
    pub median_ns: u64,
}

/// All measurements for one instance of the corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceResult {
    /// Stable instance id (`<experiment-family>-<workload>`).
    pub id: String,
    /// `"rbp"` or `"prbp"`.
    pub model: String,
    /// Cache size used.
    pub r: usize,
    /// Node count of the DAG.
    pub nodes: usize,
    /// Edge count of the DAG.
    pub edges: usize,
    /// Per-heuristic measurements, in [`heuristic_names`] order.
    pub heuristics: Vec<HeuristicResult>,
}

/// The complete baseline document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverBaseline {
    /// Schema version of this document.
    pub schema: usize,
    /// `"quick"` or `"full"`.
    pub mode: String,
    /// Wall-clock repetitions per measurement.
    pub reps: usize,
    /// One entry per corpus instance.
    pub instances: Vec<InstanceResult>,
}

/// One solvable workload of the corpus.
pub struct InstanceSpec {
    /// Stable instance id.
    pub id: &'static str,
    /// `"rbp"` or `"prbp"`.
    pub model: &'static str,
    /// Cache size.
    pub r: usize,
    /// The DAG to pebble.
    pub dag: Dag,
}

/// The benchmark corpus: one or two models per workload, drawn from the
/// E1–E9 experiment families, sized so that even the Zero-heuristic
/// (uniform-cost) search completes in well under a second per instance.
pub fn corpus() -> Vec<InstanceSpec> {
    let fig1 = fig1_full();
    let spec = |id, model, r, dag| InstanceSpec { id, model, r, dag };
    vec![
        spec("e01-fig1", "rbp", 4, fig1.dag.clone()),
        spec("e01-fig1", "prbp", 4, fig1.dag),
        spec("e02-matvec2", "prbp", 5, matvec(2).dag),
        spec("e03-zipper-d2", "rbp", 4, zipper(2, 3).dag),
        spec("e03-zipper-d2", "prbp", 4, zipper(2, 3).dag),
        spec("e04-tree-d3", "rbp", 3, binary_tree(3)),
        spec("e04-tree-d2", "prbp", 3, kary_tree(2, 2).dag),
        spec("e05-collection-d2", "prbp", 4, pebble_collection(2, 3).dag),
        // Two gadget copies: a single copy is structurally the Figure 1 DAG
        // already measured as e01-fig1.
        spec("e06-chain2", "rbp", 4, chained_gadgets(2).dag),
        spec("e06-chain2", "prbp", 4, chained_gadgets(2).dag),
        spec("e09-zipper-d3", "prbp", 5, zipper(3, 4).dag),
    ]
}

/// The heuristics measured for every instance, in output order.
pub fn heuristic_names() -> Vec<&'static str> {
    heuristics().iter().map(|h| h.name()).collect()
}

fn heuristics() -> [&'static dyn LowerBound; 2] {
    [&ZeroHeuristic, &LoadCountHeuristic]
}

/// One sequential engine solve: the proven optimal cost and its statistics.
fn solve(spec: &InstanceSpec, heuristic: &dyn LowerBound) -> (usize, SearchStats) {
    let engine = EngineConfig::default();
    match spec.model {
        "rbp" => engine::solve_rbp(&spec.dag, RbpConfig::new(spec.r), &engine, heuristic, None)
            .map(|out| (out.cost, out.stats)),
        "prbp" => engine::solve_prbp(&spec.dag, PrbpConfig::new(spec.r), &engine, heuristic, None)
            .map(|out| (out.cost, out.stats)),
        other => panic!("unknown model {other}"),
    }
    .expect("corpus instances must be solvable")
}

/// Measure one instance with every heuristic, `reps` timed repetitions each.
pub fn measure(spec: &InstanceSpec, reps: usize) -> InstanceResult {
    let mut results = Vec::new();
    let mut costs = Vec::new();
    for h in heuristics() {
        // Untimed warm-up: the first solve pays for allocator growth and cold
        // caches, which would otherwise dominate small-rep medians.
        solve(spec, h);
        let mut solved = None;
        let mut times: Vec<u64> = (0..reps.max(1))
            .map(|_| {
                let t0 = Instant::now();
                let s = solve(spec, h);
                let dt = t0.elapsed().as_nanos() as u64;
                solved = Some(s);
                dt
            })
            .collect();
        times.sort_unstable();
        let (cost, stats) = solved.expect("at least one repetition");
        costs.push(cost);
        results.push(HeuristicResult {
            heuristic: h.name().to_string(),
            cost,
            expanded: stats.expanded,
            generated: stats.generated,
            distinct: stats.distinct,
            median_ns: times[times.len() / 2],
        });
    }
    assert!(
        costs.windows(2).all(|w| w[0] == w[1]),
        "{} ({}): heuristics disagree on the optimum: {costs:?}",
        spec.id,
        spec.model
    );
    InstanceResult {
        id: spec.id.to_string(),
        model: spec.model.to_string(),
        r: spec.r,
        nodes: spec.dag.node_count(),
        edges: spec.dag.edge_count(),
        heuristics: results,
    }
}

/// Sweep the whole corpus across `threads` workers and assemble the
/// baseline document.
pub fn run(mode: &str, reps: usize, threads: usize) -> SolverBaseline {
    let instances = pebble_experiments::runner::run_parallel_with_threads(
        corpus(),
        |spec| measure(&spec, reps),
        threads,
    );
    SolverBaseline {
        schema: 3,
        mode: mode.to_string(),
        reps,
        instances,
    }
}

/// Wall-clock regressions below this baseline value are ignored entirely:
/// sub-5ms searches are dominated by timer and allocator noise.
pub const TIME_FLOOR_NS: u64 = 5_000_000;

/// Compare a fresh run against a committed baseline. Returns a list of
/// human-readable regression descriptions; empty means the gate passes.
///
/// * `expanded` is compared with `tolerance_pct` headroom. It is
///   deterministic and hardware-independent, so any growth is a real
///   algorithmic regression and the default tolerance is tight (25%);
/// * `median_ns` is compared with `time_tolerance_pct` headroom, and only
///   when the baseline time is at least [`TIME_FLOOR_NS`]. Wall clock is
///   machine- and load-dependent (well over 25% run-to-run variance on
///   shared CI runners), so its default tolerance is loose (100%) — a
///   backstop against order-of-magnitude constant-factor regressions that
///   leave the expansion counts unchanged. It is only meaningful when both
///   runs came from comparable hardware; pass `None` to disable the time
///   gate entirely (cross-machine comparisons, e.g. CI vs a committed
///   developer baseline).
///
/// Instances or heuristics missing from either side are reported too — a
/// silently shrinking corpus would otherwise read as "no regressions".
pub fn regressions(
    baseline: &SolverBaseline,
    current: &SolverBaseline,
    tolerance_pct: u64,
    time_tolerance_pct: Option<u64>,
) -> Vec<String> {
    let mut out = Vec::new();
    let factor = |v: u64| v.saturating_mul(100 + tolerance_pct) / 100;
    for base_inst in &baseline.instances {
        let Some(cur_inst) = current
            .instances
            .iter()
            .find(|i| i.id == base_inst.id && i.model == base_inst.model)
        else {
            out.push(format!(
                "{} ({}): instance missing from current run",
                base_inst.id, base_inst.model
            ));
            continue;
        };
        for base_h in &base_inst.heuristics {
            let Some(cur_h) = cur_inst
                .heuristics
                .iter()
                .find(|h| h.heuristic == base_h.heuristic)
            else {
                out.push(format!(
                    "{} ({}) [{}]: heuristic missing from current run",
                    base_inst.id, base_inst.model, base_h.heuristic
                ));
                continue;
            };
            if cur_h.cost != base_h.cost {
                out.push(format!(
                    "{} ({}) [{}]: optimum changed {} -> {} (correctness!)",
                    base_inst.id, base_inst.model, base_h.heuristic, base_h.cost, cur_h.cost
                ));
            }
            if cur_h.expanded as u64 > factor(base_h.expanded as u64) {
                out.push(format!(
                    "{} ({}) [{}]: expanded {} -> {} (> +{tolerance_pct}%)",
                    base_inst.id,
                    base_inst.model,
                    base_h.heuristic,
                    base_h.expanded,
                    cur_h.expanded
                ));
            }
            if let Some(time_pct) = time_tolerance_pct {
                let limit = base_h.median_ns.saturating_mul(100 + time_pct) / 100;
                if base_h.median_ns >= TIME_FLOOR_NS && cur_h.median_ns > limit {
                    out.push(format!(
                        "{} ({}) [{}]: median {} ns -> {} ns (> +{time_pct}%)",
                        base_inst.id,
                        base_inst.model,
                        base_h.heuristic,
                        base_h.median_ns,
                        cur_h.median_ns
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_baseline(expanded: usize, median_ns: u64) -> SolverBaseline {
        SolverBaseline {
            schema: 3,
            mode: "quick".into(),
            reps: 1,
            instances: vec![InstanceResult {
                id: "x".into(),
                model: "rbp".into(),
                r: 4,
                nodes: 1,
                edges: 0,
                heuristics: vec![HeuristicResult {
                    heuristic: "zero".into(),
                    cost: 3,
                    expanded,
                    generated: 0,
                    distinct: 0,
                    median_ns,
                }],
            }],
        }
    }

    #[test]
    fn identical_runs_have_no_regressions() {
        let b = tiny_baseline(1000, 10_000_000);
        assert!(regressions(&b, &b, 25, Some(100)).is_empty());
    }

    #[test]
    fn expanded_growth_is_flagged() {
        let b = tiny_baseline(1000, 10_000_000);
        let c = tiny_baseline(1300, 10_000_000);
        let regs = regressions(&b, &c, 25, Some(100));
        assert_eq!(regs.len(), 1, "{regs:?}");
        assert!(regs[0].contains("expanded"));
        // Within tolerance passes.
        assert!(regressions(&b, &tiny_baseline(1200, 10_000_000), 25, Some(100)).is_empty());
    }

    #[test]
    fn sub_floor_times_are_not_gated() {
        let b = tiny_baseline(1000, 100_000);
        let c = tiny_baseline(1000, 900_000); // 9x slower but under the floor
        assert!(regressions(&b, &c, 25, Some(100)).is_empty());
        let b = tiny_baseline(1000, 10_000_000);
        let c = tiny_baseline(1000, 21_000_000); // > 2x above the floor
        assert_eq!(regressions(&b, &c, 25, Some(100)).len(), 1);
        assert!(regressions(&b, &tiny_baseline(1000, 19_000_000), 25, Some(100)).is_empty());
        // Disabled time gate (cross-machine checks) ignores any slowdown.
        assert!(regressions(&b, &tiny_baseline(1000, u64::MAX), 25, None).is_empty());
    }

    #[test]
    fn missing_instances_are_flagged() {
        let b = tiny_baseline(1000, 0);
        let mut c = b.clone();
        c.instances.clear();
        assert_eq!(regressions(&b, &c, 25, Some(100)).len(), 1);
    }

    #[test]
    fn baseline_roundtrips_through_json() {
        let b = tiny_baseline(42, 7);
        let s = serde_json::to_string(&b).unwrap();
        let back: SolverBaseline = serde_json::from_str(&s).unwrap();
        assert_eq!(b, back);
    }

    #[test]
    fn measure_smallest_instance_agrees_across_heuristics() {
        let specs = corpus();
        let fig1_rbp = specs
            .iter()
            .find(|s| s.id == "e01-fig1" && s.model == "rbp")
            .unwrap();
        let result = measure(fig1_rbp, 1);
        assert_eq!(result.heuristics.len(), heuristic_names().len());
        assert!(result.heuristics.iter().all(|h| h.cost == 3));
        // The guided searches never expand more than blind Dijkstra.
        let zero = result.heuristics[0].expanded;
        assert!(result.heuristics.iter().all(|h| h.expanded <= zero));
    }
}
