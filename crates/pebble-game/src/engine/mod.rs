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
//!   before it is accepted, published together with an admissible lower
//!   bound through a [`Progress`] channel;
//! * **cancellable** — a [`CancelToken`], a wall-clock deadline and a
//!   distinct-state budget are checked cooperatively every expansion batch
//!   (and, inside a single large expansion, every few thousand generated
//!   successors), so a stop request is honoured within one batch;
//! * **parallel** — with `workers > 1` the A* runs HDA*-style hashed work
//!   distribution across scoped threads: successor states are routed to an
//!   owning worker by state hash, the transposition table is a mutex-striped
//!   shared map keyed by `Arc<[u64]>` packed states, and termination is
//!   detected by a global pending-work counter.
//!
//! ## Invariants
//!
//! * **Admissibility.** The published `bound` never exceeds the true
//!   optimum: it is the heuristic value of the initial state (raised to the
//!   proven optimum on completion), and heuristics implement the admissible
//!   [`LowerBound`] contract.
//! * **Validated incumbents.** Every incumbent cost reported in an
//!   [`EngineOutcome`] or published through [`Progress`] is the replayed
//!   simulator cost of a concrete move sequence — never a heap `g`-value
//!   taken on faith. Incumbent costs are monotone non-increasing over the
//!   lifetime of a solve.
//! * **Determinism of answer.** A completed solve returns the unique
//!   optimal cost no matter how many workers ran; only the search-effort
//!   statistics vary. `workers = 1` (the default) runs the sequential
//!   loop, whose statistics (including [`SearchStats::distinct`]) are
//!   reproducible.
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
use crate::moves::{PrbpMove, RbpMove};
use crate::prbp::PrbpConfig;
use crate::rbp::RbpConfig;
use crate::trace::{PrbpTrace, RbpTrace};
use pebble_dag::Dag;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A cooperative cancellation handle shared between a solve and its caller.
///
/// Cloning the token shares the underlying flag; [`CancelToken::cancel`] from
/// any clone stops every solve the token was passed to within one expansion
/// batch.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Knobs of one engine solve.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Wall-clock budget for the solve, measured from entry. `None` runs to
    /// completion (or until another stop condition fires).
    pub deadline: Option<Duration>,
    /// Maximum number of *distinct* states interned before the solve stops.
    /// A budget-stopped solve with no incumbent returns
    /// [`ExactError::StateLimitExceeded`].
    pub node_budget: Option<usize>,
    /// Cooperative cancellation token; checked every expansion batch.
    pub cancel: Option<CancelToken>,
    /// Beam width: `None` runs exact A*, `Some(w)` runs the beam search
    /// (PRBP only; ignored by [`solve_rbp`]).
    pub width: Option<usize>,
    /// Candidate next-nodes proposed per beam entry per level (beam only;
    /// `0` means the default of 4).
    pub branch: usize,
    /// Worker threads of an exact A* solve: 1 (the default) runs the
    /// sequential loop with deterministic statistics, more runs the HDA*
    /// loop, and `0` uses the available hardware parallelism. The beam
    /// search always runs on the calling thread.
    pub workers: usize,
}

impl Default for EngineConfig {
    /// No stop condition, exact A*, one worker.
    fn default() -> Self {
        EngineConfig {
            deadline: None,
            node_budget: None,
            cancel: None,
            width: None,
            branch: 0,
            workers: 1,
        }
    }
}

impl EngineConfig {
    /// A configuration with the given worker count and defaults elsewhere.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig {
            workers,
            ..Default::default()
        }
    }

    pub(crate) fn effective_workers(&self) -> usize {
        match self.workers {
            0 => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            w => w,
        }
    }
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
    /// The [`CancelToken`] was cancelled.
    Cancelled,
}

impl StopReason {
    /// Short stable identifier (e.g. for JSON output).
    pub fn as_str(&self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::Deadline => "deadline",
            StopReason::Budget => "budget",
            StopReason::Cancelled => "cancelled",
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
    /// Search-effort counters (aggregated across workers).
    pub stats: SearchStats,
    /// Why the solve returned.
    pub stop: StopReason,
}

/// The incumbent channel: a shared cell through which a running solve
/// publishes its best validated schedule and admissible bound, readable from
/// any thread at any moment.
///
/// Published costs are monotone non-increasing and bounds monotone
/// non-decreasing; every published move sequence has been replayed through
/// the game simulator at exactly the published cost.
pub struct Progress<M> {
    inner: Arc<ProgressInner<M>>,
}

struct ProgressInner<M> {
    /// `usize::MAX` until the first incumbent.
    cost: AtomicUsize,
    bound: AtomicUsize,
    best: Mutex<Option<(usize, Vec<M>)>>,
}

impl<M> Clone for Progress<M> {
    fn clone(&self) -> Self {
        Progress {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M> Default for Progress<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> Progress<M> {
    /// An empty channel: no incumbent, bound 0.
    pub fn new() -> Self {
        Progress {
            inner: Arc::new(ProgressInner {
                cost: AtomicUsize::new(usize::MAX),
                bound: AtomicUsize::new(0),
                best: Mutex::new(None),
            }),
        }
    }

    /// The current incumbent cost, if any incumbent has been published.
    pub fn cost(&self) -> Option<usize> {
        match self.inner.cost.load(Ordering::Acquire) {
            usize::MAX => None,
            c => Some(c),
        }
    }

    /// The best admissible lower bound published so far (0 until a solve
    /// evaluates its initial state).
    pub fn bound(&self) -> usize {
        self.inner.bound.load(Ordering::Acquire)
    }

    /// Publish a validated incumbent; ignored unless it improves on the
    /// published cost (which keeps the published cost monotone).
    pub(crate) fn publish(&self, cost: usize, moves: Vec<M>) {
        let mut best = self.inner.best.lock().expect("progress poisoned");
        if best.as_ref().map_or(true, |&(c, _)| cost < c) {
            *best = Some((cost, moves));
            self.inner.cost.store(cost, Ordering::Release);
            pebble_obs::trace::emit(pebble_obs::trace::TraceEvent::Incumbent { cost: cost as u64 });
        }
    }

    /// Raise the published admissible bound.
    pub(crate) fn raise_bound(&self, bound: usize) {
        let prev = self.inner.bound.fetch_max(bound, Ordering::AcqRel);
        if bound > prev {
            pebble_obs::trace::emit(pebble_obs::trace::TraceEvent::Bound {
                value: bound as u64,
            });
        }
    }
}

impl<M: Clone> Progress<M> {
    /// A consistent snapshot of the incumbent: `(validated cost, moves)`.
    pub fn snapshot(&self) -> Option<(usize, Vec<M>)> {
        self.inner.best.lock().expect("progress poisoned").clone()
    }
}

/// Solve `dag` in the one-shot RBP model through the engine.
///
/// `seed`, when given, must be a valid pebbling of `dag` under `config`; it
/// becomes the initial incumbent and its cost an upper bound that prunes the
/// search (`f > incumbent`). The returned outcome always carries a validated
/// trace; with no stop condition configured it is the proven optimum. One
/// `heuristic` instance is shared by every worker. `engine.width` is ignored
/// (the beam search is PRBP-only).
pub fn solve_rbp(
    dag: &Dag,
    config: RbpConfig,
    engine: &EngineConfig,
    heuristic: &dyn LowerBound,
    seed: Option<&RbpTrace>,
    progress: Option<&Progress<RbpMove>>,
) -> Result<EngineOutcome<RbpTrace>, ExactError> {
    let domain = RbpDomain::new(dag, config);
    let raw = run_astar(
        &domain,
        engine,
        heuristic,
        seed.map(|t| t.moves.clone()),
        progress,
    )?;
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
    progress: Option<&Progress<PrbpMove>>,
) -> Result<EngineOutcome<PrbpTrace>, ExactError> {
    let domain = PrbpDomain::new(dag, config);
    if let Some(width) = engine.width {
        let raw = beam::solve_beam(dag, config, &domain, engine, width, heuristic, progress)?;
        // The beam runs on the calling thread, so it reports as worker 0.
        obs::record_worker(0, raw.stats.expanded, raw.stats.generated);
        obs::record_solve(raw.stats.distinct, raw.stop);
        return Ok(finish(&domain, raw));
    }
    let raw = run_astar(
        &domain,
        engine,
        heuristic,
        seed.map(|t| t.moves.clone()),
        progress,
    )?;
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
    progress: Option<&Progress<D::Move>>,
) -> Result<RawOutcome<D::Move>, ExactError> {
    if !domain.feasible() {
        return Err(ExactError::Unsolvable);
    }
    // Seeds are re-validated through the simulator so the incumbent
    // invariant holds from the first instant; an invalid seed is dropped.
    let seed = seed_moves.and_then(|m| {
        let cost = domain.validate_moves(&m)?;
        Some((cost, m))
    });
    if let (Some(p), Some((cost, moves))) = (progress, &seed) {
        p.publish(*cost, moves.clone());
    }
    let deadline_at = engine.deadline.map(|d| Instant::now() + d);
    let workers = engine.effective_workers();
    let raw = if workers <= 1 {
        let raw = astar::solve_seq(domain, engine, deadline_at, heuristic, seed, progress)?;
        obs::record_worker(0, raw.stats.expanded, raw.stats.generated);
        raw
    } else {
        // The parallel workers fold their own per-worker counts into the
        // sharded counters at loop exit.
        astar::solve_par(
            domain,
            engine,
            deadline_at,
            workers,
            heuristic,
            seed,
            progress,
        )?
    };
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
    fn cancel_token_is_shared_between_clones() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
    }

    #[test]
    fn progress_is_monotone() {
        let p: Progress<u8> = Progress::new();
        assert_eq!(p.cost(), None);
        p.publish(10, vec![1]);
        p.publish(12, vec![2]); // worse: ignored
        assert_eq!(p.cost(), Some(10));
        assert_eq!(p.snapshot(), Some((10, vec![1])));
        p.publish(7, vec![3]);
        assert_eq!(p.cost(), Some(7));
        p.raise_bound(3);
        p.raise_bound(2);
        assert_eq!(p.bound(), 3);
    }

    #[test]
    fn default_config_is_sequential() {
        assert_eq!(EngineConfig::default().effective_workers(), 1);
        assert!(EngineConfig::with_workers(0).effective_workers() >= 1);
    }

    #[test]
    fn stop_reason_strings_are_stable() {
        assert_eq!(StopReason::Completed.as_str(), "completed");
        assert_eq!(StopReason::Deadline.as_str(), "deadline");
        assert_eq!(StopReason::Budget.as_str(), "budget");
        assert_eq!(StopReason::Cancelled.as_str(), "cancelled");
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
            None,
        )
        .unwrap();
        assert!(seeded.proven_optimal);
        assert_eq!(seeded.cost, cost);
    }

    #[test]
    fn tiny_chain_solves_at_any_worker_count() {
        let mut b = DagBuilder::new();
        let n = b.add_nodes(2);
        b.add_edge(n[0], n[1]);
        let g = b.build().unwrap();
        for workers in [1usize, 4] {
            let out = solve_prbp(
                &g,
                PrbpConfig::new(2),
                &EngineConfig::with_workers(workers),
                &LoadCountHeuristic,
                None,
                None,
            )
            .unwrap();
            // Load the source, aggregate, save the sink: 2 I/Os.
            assert_eq!(out.cost, 2);
            assert!(out.proven_optimal);
            assert_eq!(out.stop, StopReason::Completed);
        }
    }
}
