//! The unified anytime search engine behind every exact and beam solver.
//!
//! One search core serves every exact solve in the workspace, the beam
//! scheduler of `pebble-sched`, and the exact phase of its compose
//! pipeline. [`solve_rbp`] and [`solve_prbp`] are the only entry points:
//! callers read the outcome's `cost`, `trace` and `stats` directly. The
//! engine is
//!
//! * **anytime** — it keeps a *validated incumbent*: the best complete
//!   pebbling found so far, always replayed through the game simulator
//!   before it is accepted, returned together with an admissible lower
//!   bound;
//! * **interruptible** — a wall-clock deadline is checked before every
//!   expansion (and, inside a single large expansion, every few thousand
//!   generated successors), and a distinct-state budget before every
//!   expansion, so a stop is honoured within one expansion;
//! * **sequential** — exact search runs where the search is small (the
//!   exact phase of compose components, the experiment tables and the
//!   tests), so one A* loop on the calling thread serves it, with
//!   reproducible statistics.
//!
//! ## Invariants
//!
//! * **Admissibility.** The returned `bound` never exceeds the true
//!   optimum: it is the heuristic value of the initial state (raised to the
//!   proven optimum on completion), and heuristics implement the admissible
//!   [`LowerBound`] contract.
//! * **Validated incumbents.** Every incumbent cost reported in an
//!   [`EngineOutcome`] is the replayed simulator cost of a concrete move
//!   sequence — never a heap `g`-value taken on faith. Incumbent costs are
//!   monotone non-increasing over the lifetime of a solve.
//! * **Determinism.** A solve's answer and its statistics (including
//!   [`SearchStats::distinct`]) are reproducible.
//!
//! Seeding a solve with a known-valid schedule turns A* into a
//! branch-and-bound: successors with `f > incumbent` are pruned (sound for
//! admissible heuristics since `f = g + h` lower-bounds every completion
//! through that state), and exhausting the pruned space proves the
//! incumbent optimal.

mod astar;
mod beam;
mod domain;
mod obs;
mod table;

pub(crate) use domain::{prbp_start_words, rbp_start_words, Domain, PrbpDomain, RbpDomain};

use crate::exact::heuristic::LowerBound;
use crate::exact::{ExactError, SearchStats};
use crate::prbp::PrbpConfig;
use crate::rbp::RbpConfig;
use crate::trace::{PrbpTrace, RbpTrace};
use pebble_dag::Dag;
use std::time::{Duration, Instant};

/// Knobs of one engine solve. The default has no stop condition and runs
/// exact A*.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Wall-clock budget for the solve, measured from entry. `None` runs to
    /// completion (or until another stop condition fires).
    pub deadline: Option<Duration>,
    /// Maximum number of *distinct* states interned before the solve stops.
    /// A budget-stopped solve with no incumbent returns
    /// [`ExactError::StateLimitExceeded`].
    pub node_budget: Option<usize>,
    /// Beam width: `None` runs exact A*, `Some(w)` runs the beam search
    /// (PRBP only; ignored by [`solve_rbp`]).
    pub width: Option<usize>,
    /// Candidate next-nodes proposed per beam entry per level (beam only;
    /// `0` means the default of 4).
    pub branch: usize,
}

/// Why a solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The search ran to completion: the returned cost is the proven
    /// optimum (exact mode) or the finished beam's best schedule.
    Completed,
    /// The wall-clock deadline fired first.
    Deadline,
    /// The distinct-state budget was exhausted.
    Budget,
}

impl StopReason {
    /// Short stable identifier (e.g. for JSON output).
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::Deadline => "deadline",
            StopReason::Budget => "budget",
        }
    }
}

/// The result of an engine solve: the best validated schedule it holds, the
/// admissible bound that certifies it, and how hard the search worked.
#[derive(Debug, Clone)]
pub struct EngineOutcome<T> {
    /// Simulator-validated cost of `trace`.
    pub cost: usize,
    /// The best complete, validated pebbling found.
    pub trace: T,
    /// An admissible lower bound on the optimal cost (the initial-state
    /// heuristic value, raised to `cost` when optimality is proven).
    pub bound: usize,
    /// `true` iff `cost` is the proven optimum.
    pub proven_optimal: bool,
    /// Search-effort counters.
    pub stats: SearchStats,
    /// Why the solve returned.
    pub stop: StopReason,
}

/// Solve `dag` in the one-shot RBP model through the engine.
///
/// `seed`, when given, must be a valid pebbling of `dag` under `config`; it
/// becomes the initial incumbent and its cost an upper bound that prunes the
/// search (`f > incumbent`). The returned outcome always carries a validated
/// trace; with no stop condition configured it is the proven optimum.
/// `engine.width` is ignored (the beam search is PRBP-only).
pub fn solve_rbp(
    dag: &Dag,
    config: RbpConfig,
    engine: &EngineConfig,
    heuristic: &dyn LowerBound,
    seed: Option<&RbpTrace>,
) -> Result<EngineOutcome<RbpTrace>, ExactError> {
    let domain = RbpDomain::new(dag, config);
    let raw = run_astar(&domain, engine, heuristic, seed.map(|t| t.moves.clone()))?;
    Ok(finish(&domain, raw))
}

/// Solve `dag` in the PRBP model through the engine.
///
/// With `engine.width = Some(w)` this runs the anytime beam search (one
/// level per non-source node, macro-step node completions, packed-state
/// dedup) instead of exact A*; the outcome is then proven optimal only when
/// its cost meets the admissible bound. See [`solve_rbp`] for the seeding
/// and anytime contract.
pub fn solve_prbp(
    dag: &Dag,
    config: PrbpConfig,
    engine: &EngineConfig,
    heuristic: &dyn LowerBound,
    seed: Option<&PrbpTrace>,
) -> Result<EngineOutcome<PrbpTrace>, ExactError> {
    let domain = PrbpDomain::new(dag, config);
    if let Some(width) = engine.width {
        let raw = beam::solve_beam(dag, config, &domain, engine, width, heuristic)?;
        obs::record_expansions(raw.stats.expanded, raw.stats.generated);
        obs::record_solve(raw.stats.distinct, raw.stop);
        return Ok(finish(&domain, raw));
    }
    let raw = run_astar(&domain, engine, heuristic, seed.map(|t| t.moves.clone()))?;
    Ok(finish(&domain, raw))
}

/// Internal solver result before the moves become a model-specific trace.
pub(crate) struct RawOutcome<M> {
    pub cost: usize,
    pub moves: Vec<M>,
    pub bound: usize,
    pub proven: bool,
    pub stats: SearchStats,
    pub stop: StopReason,
}

/// The instant `engine.deadline` expires. A deadline too far out to
/// represent is no deadline.
fn deadline_at(engine: &EngineConfig) -> Option<Instant> {
    engine.deadline.and_then(|d| Instant::now().checked_add(d))
}

fn finish<D: Domain>(domain: &D, raw: RawOutcome<D::Move>) -> EngineOutcome<D::Trace> {
    EngineOutcome {
        cost: raw.cost,
        trace: domain.make_trace(raw.moves),
        bound: raw.bound,
        proven_optimal: raw.proven,
        stats: raw.stats,
        stop: raw.stop,
    }
}

fn run_astar<D: Domain>(
    domain: &D,
    engine: &EngineConfig,
    heuristic: &dyn LowerBound,
    seed_moves: Option<Vec<D::Move>>,
) -> Result<RawOutcome<D::Move>, ExactError> {
    let deadline_at = deadline_at(engine);
    if !domain.feasible() {
        return Err(ExactError::Unsolvable);
    }
    // Seeds are re-validated through the simulator so the incumbent
    // invariant holds from the first instant; an invalid seed is dropped.
    let seed = seed_moves.and_then(|m| {
        let cost = domain.validate_moves(&m)?;
        Some((cost, m))
    });
    let raw = astar::solve_seq(domain, engine, deadline_at, heuristic, seed)?;
    obs::record_expansions(raw.stats.expanded, raw.stats.generated);
    obs::record_solve(raw.stats.distinct, raw.stop);
    Ok(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::LoadCountHeuristic;
    use pebble_dag::generators::fig1_full;
    use pebble_dag::DagBuilder;

    #[test]
    fn stop_reason_strings_are_stable() {
        assert_eq!(StopReason::Completed.as_str(), "completed");
        assert_eq!(StopReason::Deadline.as_str(), "deadline");
        assert_eq!(StopReason::Budget.as_str(), "budget");
    }

    #[test]
    fn engine_matches_legacy_on_fig1() {
        let f = fig1_full();
        let out = solve_prbp(
            &f.dag,
            PrbpConfig::new(4),
            &EngineConfig::default(),
            &LoadCountHeuristic,
            None,
        )
        .unwrap();
        assert_eq!(out.cost, 2);
        assert!(out.proven_optimal);
        assert_eq!(out.stop, StopReason::Completed);
        assert_eq!(
            out.trace.validate(&f.dag, PrbpConfig::new(4)).unwrap(),
            out.cost
        );
    }

    #[test]
    fn seeded_solve_proves_the_seed_or_beats_it() {
        let f = fig1_full();
        let (cost, trace) = {
            let out = solve_prbp(
                &f.dag,
                PrbpConfig::new(4),
                &EngineConfig::default(),
                &LoadCountHeuristic,
                None,
            )
            .unwrap();
            (out.cost, out.trace)
        };
        let seeded = solve_prbp(
            &f.dag,
            PrbpConfig::new(4),
            &EngineConfig::default(),
            &LoadCountHeuristic,
            Some(&trace),
        )
        .unwrap();
        assert!(seeded.proven_optimal);
        assert_eq!(seeded.cost, cost);
    }

    #[test]
    fn an_unrepresentable_deadline_is_no_deadline() {
        let f = fig1_full();
        let solve = |deadline, width| {
            let engine = EngineConfig {
                deadline,
                width,
                ..EngineConfig::default()
            };
            solve_prbp(
                &f.dag,
                PrbpConfig::new(4),
                &engine,
                &LoadCountHeuristic,
                None,
            )
            .unwrap()
        };
        // Exact A* and the beam both run to completion.
        let exact = solve(Some(Duration::MAX), None);
        assert_eq!((exact.cost, exact.stop), (2, StopReason::Completed));
        let beam = solve(Some(Duration::MAX), Some(4));
        assert_eq!(beam.stop, StopReason::Completed);
        assert_eq!(beam.trace, solve(None, Some(4)).trace);
    }

    #[test]
    fn tiny_chain_solves_at_the_default_config() {
        let mut b = DagBuilder::new();
        let n = b.add_nodes(2);
        b.add_edge(n[0], n[1]);
        let g = b.build().unwrap();
        let out = solve_prbp(
            &g,
            PrbpConfig::new(2),
            &EngineConfig::default(),
            &LoadCountHeuristic,
            None,
        )
        .unwrap();
        // Load the source, aggregate, save the sink: 2 I/Os.
        assert_eq!(out.cost, 2);
        assert!(out.proven_optimal);
        assert_eq!(out.stop, StopReason::Completed);
    }
}
