//! Certified schedule reports: a validated upper bound paired with the best
//! admissible lower bound, so every heuristic result carries a proof of how
//! far from optimal it can be.
//!
//! The upper bound always comes from *replaying the trace through the game
//! simulator* — never from a formula. The lower bounds are admissible
//! bounds on the initial state:
//!
//! * `load-count` — mandatory loads and saves
//!   ([`pebble_game::exact::LoadCountHeuristic`]); always evaluated, so the
//!   bound ladder is non-empty by construction;
//! * `s-dominator` — the dominator phase bound of Theorem 6.7;
//! * `s-edge` — the S-edge-partition bound of Theorem 6.5.
//!
//! At the initial state both Section 6 entries provably equal `load-count`
//! (see [`BoundSet`]), so the ladder is linear-time whichever set is asked
//! for.
//!
//! Since each bound is admissible, `cost / best_lower_bound` certifies the
//! optimality gap: the schedule is provably within that factor of `OPT`.
//!
//! Two certification paths exist. [`certify_rbp_with`] /
//! [`certify_prbp_with`] replay a materialised trace. [`certify_greedy_rbp`]
//! / [`certify_greedy_prbp`] run a greedy executor into a counting sink:
//! the executor's builder applies every move to its game as it is emitted,
//! and that game is the one simulator of the certificate, so a
//! million-node DAG is scheduled, validated and certified in `O(n + m)`
//! memory without ever materialising a move vector or replaying it. Each
//! path checks every move exactly once. The simulator itself is
//! cross-checked against a second, independent implementation of the rules
//! by a property test (`tests/rules_checker.rs`).
//!
//! Each path, and the bound ladder, has one body written against
//! [`pebble_game::Game`]; the per-model public functions are its
//! instantiations at [`RbpGame`] and [`PrbpGame`].

use crate::greedy::{greedy_prbp_into, greedy_rbp_into};
use crate::policy::FurthestInFuture;
use pebble_dag::{Dag, NodeId};
use pebble_game::exact::{self, LoadCountHeuristic};
use pebble_game::prbp::{PrbpConfig, PrbpError, PrbpGame};
use pebble_game::rbp::{RbpConfig, RbpError, RbpGame};
use pebble_game::sink::CountingSink;
use pebble_game::trace::{validate_moves, PrbpTrace, RbpTrace, Trace, TraceError};
use pebble_game::Game;
use serde::{Deserialize, Serialize};

/// One named admissible lower bound.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BoundValue {
    /// Stable bound identifier (`load-count`, `s-dominator`, `s-edge`).
    pub name: String,
    /// The bound on the optimal I/O cost.
    pub value: usize,
}

/// Which entries a certification's lower-bound ladder lists.
///
/// `load-count` is always part of the ladder, which is what guarantees the
/// ladder is never empty. `Full` also lists the Section 6 phase bounds
/// `s-dominator` (Theorem 6.7) and `s-edge` (Theorem 6.5), which at the
/// initial state always equal `load-count`:
///
/// * each phase bound is `max(load-count, r·(⌈x/2r⌉ − 1))`, where `x` is the
///   minimum dominator size of the remaining work (`s-dominator`) or the
///   larger of that and the edge-terminal count (`s-edge`);
/// * at the initial state the sources dominate all remaining work, so the
///   dominator size is at most `#sources`, and the edge-terminal set of all
///   edges is the set of sinks, so `x ≤ max(#sources, #sinks)`;
/// * `⌈x/2r⌉ − 1 < x/2r`, so the phase term is below
///   `x/2 < #sources + #sinks`, which is `load-count` at the initial state.
///
/// So both entries take `load-count`'s value without any max-flow, and the
/// choice between the sets only controls the ladder's shape: the names and
/// order of its entries, which reports and their consumers rely on.
/// `tests/heuristic_admissibility.rs` checks the equality against a max-flow
/// reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundSet {
    /// `load-count` only.
    Fast,
    /// `load-count`, `s-dominator` and `s-edge`.
    Full,
}

impl BoundSet {
    /// Node-count threshold above which [`BoundSet::auto_for`] lists the
    /// one-entry ladder.
    pub const AUTO_FULL_LIMIT: usize = 100_000;

    /// [`BoundSet::Full`] for instances up to [`BoundSet::AUTO_FULL_LIMIT`]
    /// nodes, [`BoundSet::Fast`] beyond.
    pub fn auto_for(dag: &Dag) -> Self {
        if dag.node_count() <= Self::AUTO_FULL_LIMIT {
            BoundSet::Full
        } else {
            BoundSet::Fast
        }
    }
}

/// A certified schedule: validated cost, the lower-bound ladder, and the
/// resulting optimality gap.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleReport {
    /// `"rbp"` or `"prbp"`.
    pub model: String,
    /// Cache size the schedule was validated under.
    pub r: usize,
    /// Scheduler identifier (e.g. `greedy:belady:natural`).
    pub scheduler: String,
    /// Simulator-replayed I/O cost of the trace.
    pub cost: usize,
    /// Number of moves in the trace.
    pub moves: usize,
    /// Every admissible lower bound evaluated on the initial state. Reports
    /// built by this module always evaluate `load-count`, so the ladder is
    /// never empty.
    pub bounds: Vec<BoundValue>,
    /// The largest of [`ScheduleReport::bounds`] (still admissible).
    pub best_bound: usize,
}

impl ScheduleReport {
    /// The certified optimality gap `cost / best_bound`.
    ///
    /// Finite for every report built by the `certify_*` functions: the ladder
    /// always contains the `load-count` bound, and on any valid [`Dag`]
    /// (non-empty, no isolated nodes — hence at least one source and one
    /// sink) that bound is at least 2. `best_bound` is the plain maximum of
    /// the ladder — it is never floored or otherwise adjusted.
    pub fn gap(&self) -> f64 {
        self.cost as f64 / self.best_bound as f64
    }
}

/// What certification needs of a game beyond [`Game`]: its configuration
/// for a cache size and its initial-state `load-count` bound.
trait Certify<'a>: Game<'a> {
    fn config(r: usize) -> Self::Config;
    fn load_count(dag: &Dag, config: Self::Config) -> usize;
}

impl<'a> Certify<'a> for RbpGame<'a> {
    fn config(r: usize) -> RbpConfig {
        RbpConfig::new(r)
    }
    fn load_count(dag: &Dag, config: RbpConfig) -> usize {
        exact::rbp_initial_bound(dag, config, &LoadCountHeuristic)
    }
}

impl<'a> Certify<'a> for PrbpGame<'a> {
    fn config(r: usize) -> PrbpConfig {
        PrbpConfig::new(r)
    }
    fn load_count(dag: &Dag, config: PrbpConfig) -> usize {
        exact::prbp_initial_bound(dag, config, &LoadCountHeuristic)
    }
}

/// The lower-bound ladder of `set` on the initial state of `G`:
/// `(bounds, best_bound)`. Every entry equals `load-count` (see
/// [`BoundSet`]), so the ladder is non-empty and `best_bound` is
/// `load-count` by construction.
fn ladder<'a, G: Certify<'a>>(dag: &Dag, r: usize, set: BoundSet) -> (Vec<BoundValue>, usize) {
    let load = G::load_count(dag, G::config(r));
    let names: &[&str] = match set {
        BoundSet::Fast => &["load-count"],
        BoundSet::Full => &["load-count", "s-dominator", "s-edge"],
    };
    let bounds = names
        .iter()
        .map(|name| BoundValue {
            name: name.to_string(),
            value: load,
        })
        .collect();
    (bounds, load)
}

/// Pair a replayed `(cost, moves)` of `G` with the ladder of `set`.
fn assemble<'a, G: Certify<'a>>(
    dag: &Dag,
    r: usize,
    scheduler: String,
    (cost, moves): (usize, usize),
    set: BoundSet,
) -> ScheduleReport {
    let (bounds, best_bound) = ladder::<G>(dag, r, set);
    ScheduleReport {
        model: G::MODEL.short_name().to_string(),
        r,
        scheduler,
        cost,
        moves,
        bounds,
        best_bound,
    }
}

/// Validate `trace` on `dag` under `G` with cache `r` and pair the replayed
/// cost with the admissible lower bounds of `set`.
fn certify<'a, G: Certify<'a>>(
    dag: &'a Dag,
    r: usize,
    trace: &Trace<G::Move>,
    scheduler: String,
    set: BoundSet,
) -> Result<ScheduleReport, TraceError<G::Error>> {
    let cost = validate_moves::<G, _>(dag, G::config(r), trace.moves.iter().copied())?;
    Ok(assemble::<G>(dag, r, scheduler, (cost, trace.len()), set))
}

/// Validate `trace` on `dag` under RBP with cache `r` and pair the replayed
/// cost with the admissible lower bounds of `set`.
pub fn certify_rbp_with(
    dag: &Dag,
    r: usize,
    trace: &RbpTrace,
    scheduler: impl Into<String>,
    set: BoundSet,
) -> Result<ScheduleReport, TraceError<RbpError>> {
    certify::<RbpGame>(dag, r, trace, scheduler.into(), set)
}

/// Validate `trace` on `dag` under PRBP with cache `r` and pair the replayed
/// cost with the admissible lower bounds of `set`.
pub fn certify_prbp_with(
    dag: &Dag,
    r: usize,
    trace: &PrbpTrace,
    scheduler: impl Into<String>,
    set: BoundSet,
) -> Result<ScheduleReport, TraceError<PrbpError>> {
    certify::<PrbpGame>(dag, r, trace, scheduler.into(), set)
}

/// [`certify_prbp_with`] with additional caller-supplied admissible bounds
/// appended to the ladder (e.g. the composable decomposition bound of
/// `pebble-bounds::compose`). The caller vouches for the admissibility of
/// `extra`; `best_bound` is the maximum over the combined ladder.
pub fn certify_prbp_with_bounds(
    dag: &Dag,
    r: usize,
    trace: &PrbpTrace,
    scheduler: impl Into<String>,
    set: BoundSet,
    extra: Vec<BoundValue>,
) -> Result<ScheduleReport, TraceError<PrbpError>> {
    let mut report = certify_prbp_with(dag, r, trace, scheduler, set)?;
    for bound in extra {
        report.best_bound = report.best_bound.max(bound.value);
        report.bounds.push(bound);
    }
    Ok(report)
}

/// The lower-bound ladder of the *initial* PRBP state, without scheduling
/// anything: `(bounds, best_bound)`. What `prbp bound` prints.
pub fn prbp_bound_ladder(dag: &Dag, r: usize, set: BoundSet) -> (Vec<BoundValue>, usize) {
    ladder::<PrbpGame>(dag, r, set)
}

/// The lower-bound ladder of the *initial* RBP state, without scheduling
/// anything: `(bounds, best_bound)`.
pub fn rbp_bound_ladder(dag: &Dag, r: usize, set: BoundSet) -> (Vec<BoundValue>, usize) {
    ladder::<RbpGame>(dag, r, set)
}

/// Run a greedy executor (`run`) into a [`CountingSink`] and certify what
/// its builder applied. The builder's game is the one simulator: every
/// move was checked by it as it was emitted (an illegal one panics there)
/// and the executor asserts a terminal end, so the I/O count `run` returns
/// is the certified cost and the sink only counts the moves. `None` when
/// the executor declines the instance.
fn certify_streamed<'a, G: Certify<'a>>(
    dag: &'a Dag,
    r: usize,
    scheduler: String,
    set: BoundSet,
    run: impl FnOnce(CountingSink) -> Option<(CountingSink, usize)>,
) -> Option<Result<ScheduleReport, TraceError<G::Error>>> {
    let (sink, cost) = run(CountingSink::new())?;
    debug_assert_eq!(sink.io, cost, "the moves' I/O sum is the builder's count");
    let report = assemble::<G>(dag, r, scheduler, (cost, sink.moves), set);
    Some(Ok(report))
}

/// Run the greedy PRBP executor on `order` and certify the result
/// through the streaming pipeline: every move is validated once, by the
/// executor's own builder, and never stored; the report's cost is that
/// builder's count. Returns `None` under the same conditions as
/// [`crate::greedy_prbp`] (`r < 2`, invalid order). An executor bug panics
/// at the offending move or at a non-terminal end, so the result is never
/// `Err`; the `Result` matches the materialised path's
/// [`certify_prbp_with`].
pub fn certify_greedy_prbp(
    dag: &Dag,
    r: usize,
    order: &[NodeId],
    policy: &mut FurthestInFuture,
    scheduler: impl Into<String>,
    set: BoundSet,
) -> Option<Result<ScheduleReport, TraceError<PrbpError>>> {
    certify_streamed::<PrbpGame>(dag, r, scheduler.into(), set, |sink| {
        greedy_prbp_into(dag, r, order, policy, sink)
    })
}

/// Run the greedy RBP executor on `order` and certify the result
/// through the streaming pipeline, as [`certify_greedy_prbp`] does. Returns
/// `None` under the same conditions as [`crate::greedy_rbp`]
/// (`r < Δ_in + 1`, invalid order), and never `Err`.
pub fn certify_greedy_rbp(
    dag: &Dag,
    r: usize,
    order: &[NodeId],
    policy: &mut FurthestInFuture,
    scheduler: impl Into<String>,
    set: BoundSet,
) -> Option<Result<ScheduleReport, TraceError<RbpError>>> {
    certify_streamed::<RbpGame>(dag, r, scheduler.into(), set, |sink| {
        greedy_rbp_into(dag, r, order, policy, sink)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beam::{beam_prbp, BeamConfig};
    use crate::greedy::{greedy_prbp, greedy_rbp};
    use crate::order;
    use pebble_dag::generators::{
        binary_tree, fft, fig1_full, matmul, random_layered, RandomLayeredConfig,
    };
    use pebble_game::engine::{solve_prbp, solve_rbp, EngineConfig};

    #[test]
    fn prbp_report_brackets_the_exact_optimum() {
        let dag = fig1_full().dag;
        let r = 4;
        let trace = beam_prbp(&dag, r, BeamConfig::default()).unwrap();
        let report = certify_prbp_with(&dag, r, &trace, "beam:8", BoundSet::Full).unwrap();
        let engine = EngineConfig::default();
        let config = PrbpConfig::new(r);
        let opt = solve_prbp(&dag, config, &engine, &LoadCountHeuristic, None)
            .unwrap()
            .cost;
        assert!(report.best_bound <= opt, "lower bound must be admissible");
        assert!(report.cost >= opt, "no heuristic beats the optimum");
        assert!(report.gap() >= 1.0);
        assert_eq!(report.model, "prbp");
        assert_eq!(report.bounds.len(), 3);
    }

    #[test]
    fn rbp_report_brackets_the_exact_optimum() {
        let dag = fig1_full().dag;
        let r = 4;
        let ord = order::natural(&dag);
        let trace = greedy_rbp(&dag, r, &ord, &mut FurthestInFuture).unwrap();
        let report =
            certify_rbp_with(&dag, r, &trace, "greedy:belady:natural", BoundSet::Full).unwrap();
        let engine = EngineConfig::default();
        let config = RbpConfig::new(r);
        let opt = solve_rbp(&dag, config, &engine, &LoadCountHeuristic, None)
            .unwrap()
            .cost;
        assert!(report.best_bound <= opt);
        assert!(report.cost >= opt);
    }

    #[test]
    fn ladder_is_never_empty_and_best_bound_is_its_plain_maximum() {
        // Regression for the `.unwrap_or(0).max(1)` flooring: `best_bound`
        // must be exactly the maximum of the (non-empty) ladder, and the
        // ladder always starts with `load-count`, which on any valid DAG
        // (>= 1 source, >= 1 sink) is at least 2 — so `gap()` is finite
        // without any silent adjustment.
        let dag = fig1_full().dag;
        for set in [BoundSet::Fast, BoundSet::Full] {
            let trace = beam_prbp(&dag, 3, BeamConfig::adaptive()).unwrap();
            let report = certify_prbp_with(&dag, 3, &trace, "beam:1", set).unwrap();
            assert!(!report.bounds.is_empty());
            assert_eq!(report.bounds[0].name, "load-count");
            assert_eq!(
                report.best_bound,
                report.bounds.iter().map(|b| b.value).max().unwrap()
            );
            assert!(report.bounds[0].value >= 2);
            assert!(report.gap().is_finite());
        }
    }

    #[test]
    fn fast_and_full_ladders_agree_on_load_count() {
        let dag = fft(8).dag;
        let (fast, fast_best) = prbp_bound_ladder(&dag, 4, BoundSet::Fast);
        let (full, full_best) = prbp_bound_ladder(&dag, 4, BoundSet::Full);
        assert_eq!(fast.len(), 1);
        assert_eq!(full.len(), 3);
        assert_eq!(fast[0], full[0]);
        assert_eq!(full_best, fast_best);
        let names: Vec<&str> = full.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["load-count", "s-dominator", "s-edge"]);
        let (rfast, _) = rbp_bound_ladder(&dag, 8, BoundSet::Fast);
        assert_eq!(rfast[0].name, "load-count");
    }

    /// The streamed PRBP and RBP reports of `ord` at `r_prbp` and `r_rbp`
    /// equal the materialised path's.
    fn assert_streaming_matches(
        name: &str,
        dag: &Dag,
        ord: &[NodeId],
        r_prbp: usize,
        r_rbp: usize,
    ) {
        let trace = greedy_prbp(dag, r_prbp, ord, &mut FurthestInFuture).unwrap();
        let via_trace = certify_prbp_with(dag, r_prbp, &trace, name, BoundSet::Full).unwrap();
        let via_stream = certify_greedy_prbp(
            dag,
            r_prbp,
            ord,
            &mut FurthestInFuture,
            name,
            BoundSet::Full,
        )
        .unwrap()
        .unwrap();
        assert_eq!(via_stream, via_trace, "{name} prbp r={r_prbp}");

        let trace = greedy_rbp(dag, r_rbp, ord, &mut FurthestInFuture).unwrap();
        let via_trace = certify_rbp_with(dag, r_rbp, &trace, name, BoundSet::Full).unwrap();
        let via_stream =
            certify_greedy_rbp(dag, r_rbp, ord, &mut FurthestInFuture, name, BoundSet::Full)
                .unwrap()
                .unwrap();
        assert_eq!(via_stream, via_trace, "{name} rbp r={r_rbp}");
    }

    #[test]
    fn streaming_certification_matches_the_materialised_path() {
        let random = |seed| {
            random_layered(RandomLayeredConfig {
                layers: 6,
                width: 8,
                max_in_degree: 3,
                seed,
            })
        };
        let table: Vec<(&str, Dag)> = vec![
            ("fig1", fig1_full().dag),
            ("fft-16", fft(16).dag),
            ("fft-64", fft(64).dag),
            ("matmul-3", matmul(3, 3, 3).dag),
            ("matmul-4", matmul(4, 4, 4).dag),
            ("binary-tree-5", binary_tree(5)),
            ("random-7", random(7)),
            ("random-11", random(11)),
        ];
        for (name, dag) in &table {
            for (kind, ord) in [
                ("natural", order::natural(dag)),
                ("dfs", order::dfs_postorder(dag)),
            ] {
                for extra in [0, 1, 2, 6] {
                    let r_rbp = dag.max_in_degree() + 1 + extra;
                    assert_streaming_matches(
                        &format!("{name} {kind}"),
                        dag,
                        &ord,
                        2 + extra,
                        r_rbp,
                    );
                }
            }
        }
        // The benchmark's scale: the 245,760-node FFT in DFS order.
        #[cfg(not(debug_assertions))]
        {
            let dag = fft(16384).dag;
            let ord = order::dfs_postorder(&dag);
            assert_streaming_matches("fft-16384 dfs", &dag, &ord, 128, 64);
        }
    }

    #[test]
    fn streaming_certification_rejects_invalid_orders() {
        let dag = fft(8).dag;
        let mut rev = order::natural(&dag);
        rev.reverse();
        assert!(certify_greedy_prbp(
            &dag,
            4,
            &rev,
            &mut FurthestInFuture,
            "greedy",
            BoundSet::Fast
        )
        .is_none());
    }

    #[test]
    fn invalid_traces_are_rejected() {
        let dag = fig1_full().dag;
        let empty = PrbpTrace::new();
        assert!(certify_prbp_with(&dag, 4, &empty, "noop", BoundSet::Full).is_err());
    }

    #[test]
    fn report_serialises() {
        let dag = fft(8).dag;
        let trace = beam_prbp(&dag, 4, BeamConfig::adaptive()).unwrap();
        let report = certify_prbp_with(&dag, 4, &trace, "beam:1", BoundSet::Full).unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: ScheduleReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
