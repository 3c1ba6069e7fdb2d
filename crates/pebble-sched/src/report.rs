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
//! Two certification paths exist. [`certify_rbp`] / [`certify_prbp`] replay a
//! materialised trace. [`certify_greedy_rbp`] / [`certify_greedy_prbp`] run a
//! greedy executor with a *streaming* certifier sink: every emitted move is
//! replayed through an independent simulator as it is produced, so a
//! million-node DAG is scheduled, validated and certified in `O(n + m)`
//! memory without ever materialising a move vector.

use crate::greedy::{greedy_prbp_into, greedy_rbp_into};
use crate::policy::FurthestInFuture;
use pebble_dag::{Dag, NodeId};
use pebble_game::exact::{self, LoadCountHeuristic};
use pebble_game::prbp::{PrbpConfig, PrbpError, PrbpGame};
use pebble_game::rbp::{RbpConfig, RbpError, RbpGame};
use pebble_game::sink::MoveSink;
use pebble_game::trace::{PrbpTrace, RbpTrace, TraceError};
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

/// The lower-bound ladder of `set` for an initial-state `load-count` value
/// `load`. Every entry equals `load` (see [`BoundSet`]), so the ladder is
/// non-empty and `best` is `load` by construction.
fn bound_ladder(set: BoundSet, load: usize) -> LadderOutcome {
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
    LadderOutcome { bounds, best: load }
}

struct LadderOutcome {
    bounds: Vec<BoundValue>,
    best: usize,
}

/// Assemble the report shared by every certification path.
fn assemble(
    model: &str,
    r: usize,
    scheduler: String,
    cost: usize,
    moves: usize,
    ladder: LadderOutcome,
) -> ScheduleReport {
    ScheduleReport {
        model: model.to_string(),
        r,
        scheduler,
        cost,
        moves,
        bounds: ladder.bounds,
        best_bound: ladder.best,
    }
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
    let config = RbpConfig::new(r);
    let cost = trace.validate(dag, config)?;
    let ladder = bound_ladder(
        set,
        exact::rbp_initial_bound(dag, config, &LoadCountHeuristic),
    );
    Ok(assemble(
        "rbp",
        r,
        scheduler.into(),
        cost,
        trace.len(),
        ladder,
    ))
}

/// [`certify_rbp_with`] using the full bound ladder.
pub fn certify_rbp(
    dag: &Dag,
    r: usize,
    trace: &RbpTrace,
    scheduler: impl Into<String>,
) -> Result<ScheduleReport, TraceError<RbpError>> {
    certify_rbp_with(dag, r, trace, scheduler, BoundSet::Full)
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
    let config = PrbpConfig::new(r);
    let cost = trace.validate(dag, config)?;
    let ladder = bound_ladder(
        set,
        exact::prbp_initial_bound(dag, config, &LoadCountHeuristic),
    );
    Ok(assemble(
        "prbp",
        r,
        scheduler.into(),
        cost,
        trace.len(),
        ladder,
    ))
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

/// [`certify_prbp_with`] using the full bound ladder.
pub fn certify_prbp(
    dag: &Dag,
    r: usize,
    trace: &PrbpTrace,
    scheduler: impl Into<String>,
) -> Result<ScheduleReport, TraceError<PrbpError>> {
    certify_prbp_with(dag, r, trace, scheduler, BoundSet::Full)
}

/// The lower-bound ladder of the *initial* PRBP state, without scheduling
/// anything: `(bounds, best_bound)`. What `prbp bound` prints.
pub fn prbp_bound_ladder(dag: &Dag, r: usize, set: BoundSet) -> (Vec<BoundValue>, usize) {
    let config = PrbpConfig::new(r);
    let ladder = bound_ladder(
        set,
        exact::prbp_initial_bound(dag, config, &LoadCountHeuristic),
    );
    (ladder.bounds, ladder.best)
}

/// The lower-bound ladder of the *initial* RBP state, without scheduling
/// anything: `(bounds, best_bound)`.
pub fn rbp_bound_ladder(dag: &Dag, r: usize, set: BoundSet) -> (Vec<BoundValue>, usize) {
    let config = RbpConfig::new(r);
    let ladder = bound_ladder(
        set,
        exact::rbp_initial_bound(dag, config, &LoadCountHeuristic),
    );
    (ladder.bounds, ladder.best)
}

/// A [`MoveSink`] that replays every visited move through an independent
/// simulator: the streaming equivalent of `trace.validate(..)`. The first
/// illegal move is remembered (with its index) and later moves are ignored.
struct ReplaySink<G, M, E> {
    game: G,
    moves: usize,
    failure: Option<TraceError<E>>,
    apply: fn(&mut G, M) -> Result<(), E>,
}

impl<G, M: std::fmt::Display + Copy, E> ReplaySink<G, M, E> {
    fn new(game: G, apply: fn(&mut G, M) -> Result<(), E>) -> Self {
        ReplaySink {
            game,
            moves: 0,
            failure: None,
            apply,
        }
    }
}

impl<G, M: std::fmt::Display + Copy, E> MoveSink<M> for ReplaySink<G, M, E> {
    fn record(&mut self, mv: M) {
        if self.failure.is_none() {
            if let Err(error) = (self.apply)(&mut self.game, mv) {
                self.failure = Some(TraceError::InvalidMove {
                    index: self.moves,
                    description: mv.to_string(),
                    error,
                });
            }
        }
        self.moves += 1;
    }
}

/// Run the greedy PRBP executor on `order` and certify the result
/// through the streaming pipeline: every move is validated twice (by the
/// executor's own builder and by an independent replay simulator inside the
/// sink) and never stored. Returns `None` under the same conditions as
/// [`crate::greedy_prbp`] (`r < 2`, invalid order); `Err` if the replayed
/// pebbling is rejected, which would indicate an executor bug.
pub fn certify_greedy_prbp(
    dag: &Dag,
    r: usize,
    order: &[NodeId],
    policy: &mut FurthestInFuture,
    scheduler: impl Into<String>,
    set: BoundSet,
) -> Option<Result<ScheduleReport, TraceError<PrbpError>>> {
    let config = PrbpConfig::new(r);
    let sink = ReplaySink::new(PrbpGame::new(dag, config), PrbpGame::apply);
    let (sink, _) = greedy_prbp_into(dag, r, order, policy, sink)?;
    if let Some(err) = sink.failure {
        return Some(Err(err));
    }
    if !sink.game.is_terminal() {
        return Some(Err(TraceError::NotTerminal));
    }
    let cost = sink.game.io_cost();
    let ladder = bound_ladder(
        set,
        exact::prbp_initial_bound(dag, config, &LoadCountHeuristic),
    );
    Some(Ok(assemble(
        "prbp",
        r,
        scheduler.into(),
        cost,
        sink.moves,
        ladder,
    )))
}

/// Run the greedy RBP executor on `order` and certify the result
/// through the streaming pipeline. Returns `None` under the same conditions
/// as [`crate::greedy_rbp`] (`r < Δ_in + 1`, invalid order).
pub fn certify_greedy_rbp(
    dag: &Dag,
    r: usize,
    order: &[NodeId],
    policy: &mut FurthestInFuture,
    scheduler: impl Into<String>,
    set: BoundSet,
) -> Option<Result<ScheduleReport, TraceError<RbpError>>> {
    let config = RbpConfig::new(r);
    let sink = ReplaySink::new(RbpGame::new(dag, config), RbpGame::apply);
    let (sink, _) = greedy_rbp_into(dag, r, order, policy, sink)?;
    if let Some(err) = sink.failure {
        return Some(Err(err));
    }
    if !sink.game.is_terminal() {
        return Some(Err(TraceError::NotTerminal));
    }
    let cost = sink.game.io_cost();
    let ladder = bound_ladder(
        set,
        exact::rbp_initial_bound(dag, config, &LoadCountHeuristic),
    );
    Some(Ok(assemble(
        "rbp",
        r,
        scheduler.into(),
        cost,
        sink.moves,
        ladder,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beam::{beam_prbp, BeamConfig};
    use crate::greedy::{greedy_prbp, greedy_rbp};
    use crate::order;
    use pebble_dag::generators::{fft, fig1_full};
    use pebble_game::engine::{solve_prbp, solve_rbp, EngineConfig};

    #[test]
    fn prbp_report_brackets_the_exact_optimum() {
        let dag = fig1_full().dag;
        let r = 4;
        let trace = beam_prbp(&dag, r, BeamConfig::default()).unwrap();
        let report = certify_prbp(&dag, r, &trace, "beam:8").unwrap();
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
        let report = certify_rbp(&dag, r, &trace, "greedy:belady:natural").unwrap();
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

    #[test]
    fn streaming_certification_matches_the_materialised_path() {
        let dag = fft(16).dag;
        let r = 6;
        let ord = order::dfs_postorder(&dag);
        let trace = greedy_prbp(&dag, r, &ord, &mut FurthestInFuture).unwrap();
        let via_trace = certify_prbp(&dag, r, &trace, "greedy:belady:dfs").unwrap();
        let via_stream = certify_greedy_prbp(
            &dag,
            r,
            &ord,
            &mut FurthestInFuture,
            "greedy:belady:dfs",
            BoundSet::Full,
        )
        .unwrap()
        .unwrap();
        assert_eq!(via_stream, via_trace);

        let rr = dag.max_in_degree() + 2;
        let rtrace = greedy_rbp(&dag, rr, &ord, &mut FurthestInFuture).unwrap();
        let rvia_trace = certify_rbp(&dag, rr, &rtrace, "greedy:belady:dfs").unwrap();
        let rvia_stream = certify_greedy_rbp(
            &dag,
            rr,
            &ord,
            &mut FurthestInFuture,
            "greedy:belady:dfs",
            BoundSet::Full,
        )
        .unwrap()
        .unwrap();
        assert_eq!(rvia_stream, rvia_trace);
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
        assert!(certify_prbp(&dag, 4, &empty, "noop").is_err());
    }

    #[test]
    fn report_serialises() {
        let dag = fft(8).dag;
        let trace = beam_prbp(&dag, 4, BeamConfig::adaptive()).unwrap();
        let report = certify_prbp(&dag, 4, &trace, "beam:1").unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: ScheduleReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
