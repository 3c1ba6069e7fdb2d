//! Deadline-bounded anytime scheduling: best certified answer by time `T`.
//!
//! The latency-SLO serving story of the ROADMAP ("best certified answer in
//! 250 ms") composes two phases of the unified engine
//! ([`pebble_game::engine`]) under one wall-clock budget:
//!
//! 1. **Seed** — the cheaper of the streaming greedy (Belady eviction over
//!    a DFS postorder, `O(n + m)`) and the adaptive beam (engine beam mode,
//!    width [`AnytimeConfig::seed_width`], greedy-completed if the deadline
//!    fires mid-level) produces a full, simulator-validated schedule fast;
//! 2. **Improve & certify** — the remaining budget runs the exact A* seeded
//!    with that schedule: the incumbent prunes the search
//!    (branch-and-bound), every improvement is validated before it is
//!    published, and exhausting the pruned space proves optimality.
//!
//! The outcome always carries a simulator-validated schedule and an
//! admissible lower bound, so callers get a *certified* `cost / bound` gap
//! no matter when the deadline fires. Attach a
//! [`Progress`] channel to watch the
//! incumbent improve live, or a [`CancelToken`](pebble_game::engine::CancelToken)
//! via the engine directly for caller-side cancellation.

use crate::greedy::greedy_prbp_into;
use crate::order;
use crate::policy::FurthestInFuture;
use pebble_dag::Dag;
use pebble_game::engine::{solve_prbp, EngineConfig, HeuristicSpec, Progress, StopReason};
use pebble_game::exact::{LoadCountHeuristic, LowerBound};
use pebble_game::moves::PrbpMove;
use pebble_game::prbp::PrbpConfig;
use pebble_game::trace::PrbpTrace;
use std::fmt;
use std::time::{Duration, Instant};

/// Knobs of an anytime solve.
#[derive(Debug, Clone)]
pub struct AnytimeConfig {
    /// Total wall-clock budget across both phases.
    pub deadline: Duration,
    /// Worker threads inside the exact phase (0 = available parallelism).
    pub workers: usize,
    /// Beam width of the seeding phase. The default of 1 is the adaptive
    /// greedy — the only width that stays comfortably inside tight deadlines
    /// on 10³⁺-node instances; raise it when the budget is generous.
    pub seed_width: usize,
    /// Report [`AnytimeError::DeadlineNoIncumbent`] when the deadline
    /// machinery stops the seeding phase before it has produced a single
    /// validated schedule, instead of spending unbounded extra time
    /// synthesising one greedily. Latency-sensitive callers (the serving
    /// layer, `prbp schedule --deadline-ms`) set this so "the budget was too
    /// small for this instance" is a distinct, machine-readable outcome.
    pub fail_fast: bool,
}

impl AnytimeConfig {
    /// An anytime configuration with the given deadline, adaptive seeding
    /// and hardware-parallel improvement.
    pub fn new(deadline: Duration) -> Self {
        AnytimeConfig {
            deadline,
            workers: 0,
            seed_width: 1,
            fail_fast: false,
        }
    }

    /// Same, with an explicit worker count for the exact phase.
    pub fn with_workers(deadline: Duration, workers: usize) -> Self {
        AnytimeConfig {
            workers,
            ..AnytimeConfig::new(deadline)
        }
    }
}

/// The certified result of an anytime solve.
#[derive(Debug, Clone)]
pub struct AnytimeOutcome {
    /// The best simulator-validated schedule found within the deadline.
    pub trace: PrbpTrace,
    /// Its replayed I/O cost.
    pub cost: usize,
    /// An admissible lower bound on the optimum (load-count; the certifying
    /// report may tighten it further).
    pub bound: usize,
    /// `true` iff the exact phase finished and proved `cost` optimal.
    pub proven_optimal: bool,
    /// Why the solve returned ([`StopReason::Completed`] = proven).
    pub stop: StopReason,
}

/// Why an anytime solve produced no schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnytimeError {
    /// `r < 2`: the PRBP game needs two red pebbles to aggregate anything.
    SmallR {
        /// The rejected cache size.
        r: usize,
    },
    /// The deadline expired before any incumbent existed (only reachable
    /// with [`AnytimeConfig::fail_fast`]).
    DeadlineNoIncumbent,
}

impl fmt::Display for AnytimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnytimeError::SmallR { r } => {
                write!(f, "r = {r} is too small for PRBP scheduling (need r >= 2)")
            }
            AnytimeError::DeadlineNoIncumbent => {
                write!(f, "deadline expired before any incumbent schedule existed")
            }
        }
    }
}

impl std::error::Error for AnytimeError {}

/// Schedule `dag` in PRBP with cache size `r` under a wall-clock deadline.
/// Returns `None` for `r < 2` (see [`anytime_prbp_result`] for the
/// error-typed variant used by deadline-sensitive callers). The returned
/// schedule is always simulator-validated and paired with an admissible
/// bound; attach `progress` to stream incumbents while the solve runs.
pub fn anytime_prbp(
    dag: &Dag,
    r: usize,
    config: &AnytimeConfig,
    progress: Option<&Progress<PrbpMove>>,
) -> Option<AnytimeOutcome> {
    anytime_prbp_result(dag, r, config, progress).ok()
}

/// [`anytime_prbp`] with a typed error: distinguishes `r < 2` from a
/// deadline that expired before any incumbent existed (the latter only with
/// [`AnytimeConfig::fail_fast`]; without it the seeding phase always
/// synthesises a full schedule, so the only failure mode is `SmallR`).
pub fn anytime_prbp_result(
    dag: &Dag,
    r: usize,
    config: &AnytimeConfig,
    progress: Option<&Progress<PrbpMove>>,
) -> Result<AnytimeOutcome, AnytimeError> {
    if r < 2 {
        return Err(AnytimeError::SmallR { r });
    }
    let started = Instant::now();
    let game = PrbpConfig::new(r);

    // When a JSONL trace is being recorded but the caller brought no
    // progress channel of its own, attach a local one so the convergence
    // timeline (incumbent/bound events) still lands in the trace.
    let local_progress = (progress.is_none() && pebble_obs::trace::enabled()).then(Progress::new);
    let progress = progress.or(local_progress.as_ref());

    // Phase 1: seed. Half the budget caps the adaptive beam; an early stop
    // still returns a full schedule (the engine greedy-completes the best
    // partial) unless `fail_fast` asked for a genuine incumbent or nothing.
    // The streaming greedy is near-free and often much cheaper on
    // structured instances, so the exact phase starts from the better of
    // the two — the engine validates and (if a progress channel is
    // attached) publishes whichever seed it receives.
    let seed_span = pebble_obs::trace::span("anytime:seed");
    let beam_engine = EngineConfig {
        deadline: Some(config.deadline / 2),
        width: Some(config.seed_width.max(1)),
        fail_fast: config.fail_fast,
        ..EngineConfig::default()
    };
    let beam = match solve_prbp(
        dag,
        game,
        &beam_engine,
        HeuristicSpec::Single(&LoadCountHeuristic),
        None,
        progress,
    ) {
        Ok(beam) => beam,
        // Only reachable with `fail_fast` (r < 2 was rejected above): the
        // seeding budget stopped the beam before a validated schedule
        // existed. Deliberately *not* papered over with the untimed greedy —
        // the caller asked for a bounded-latency answer.
        Err(_) => return Err(AnytimeError::DeadlineNoIncumbent),
    };
    let dfs = order::dfs_postorder(dag);
    let greedy = greedy_prbp_into(dag, r, &dfs, &mut FurthestInFuture, PrbpTrace::new());
    let (seed_trace, seed_cost) = match greedy {
        Some((trace, cost)) if cost < beam.cost => (trace, cost),
        _ => (beam.trace, beam.cost),
    };
    drop(seed_span);
    let seed = AnytimeOutcome {
        cost: seed_cost,
        proven_optimal: seed_cost == beam.bound,
        trace: seed_trace,
        bound: beam.bound,
        stop: StopReason::Deadline,
    };
    if seed.proven_optimal {
        return Ok(AnytimeOutcome {
            stop: StopReason::Completed,
            ..seed
        });
    }

    // Phase 2: seeded exact improvement for the remaining budget.
    let remaining = config.deadline.saturating_sub(started.elapsed());
    if remaining.is_zero() {
        return Ok(seed);
    }
    let _improve_span = pebble_obs::trace::span("anytime:improve");
    let make = || Box::new(LoadCountHeuristic) as Box<dyn LowerBound>;
    let exact_engine = EngineConfig {
        deadline: Some(remaining),
        workers: config.workers,
        ..EngineConfig::default()
    };
    match solve_prbp(
        dag,
        game,
        &exact_engine,
        HeuristicSpec::PerWorker(&make),
        Some(&seed.trace),
        progress,
    ) {
        Ok(out) => Ok(AnytimeOutcome {
            trace: out.trace,
            cost: out.cost,
            bound: out.bound.max(seed.bound),
            proven_optimal: out.proven_optimal,
            stop: out.stop,
        }),
        // Unreachable with a valid seed, but degrade to the seed rather
        // than dropping a certified answer on the floor.
        Err(_) => Ok(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dag::generators::{fft, fig1_full};

    #[test]
    fn small_instance_is_proven_within_a_generous_deadline() {
        let f = fig1_full();
        let out = anytime_prbp(
            &f.dag,
            4,
            &AnytimeConfig::new(Duration::from_secs(30)),
            None,
        )
        .expect("r >= 2");
        assert_eq!(out.cost, 2);
        assert!(out.proven_optimal);
        assert_eq!(out.stop, StopReason::Completed);
        assert_eq!(out.trace.validate(&f.dag, PrbpConfig::new(4)).unwrap(), 2);
    }

    #[test]
    fn large_instance_returns_validated_incumbent_at_deadline() {
        let f = fft(64);
        let deadline = Duration::from_millis(200);
        let started = Instant::now();
        let out = anytime_prbp(&f.dag, 8, &AnytimeConfig::new(deadline), None).expect("r >= 2");
        // Generous slack: the contract is "within one expansion batch of the
        // deadline", not hard real-time.
        assert!(started.elapsed() < deadline + Duration::from_secs(5));
        let replayed = out.trace.validate(&f.dag, PrbpConfig::new(8)).unwrap();
        assert_eq!(replayed, out.cost);
        assert!(out.bound <= out.cost);
        assert!(out.bound > 0);
    }

    #[test]
    fn r_below_two_is_rejected() {
        let f = fig1_full();
        assert!(anytime_prbp(
            &f.dag,
            1,
            &AnytimeConfig::new(Duration::from_millis(10)),
            None
        )
        .is_none());
        assert!(matches!(
            anytime_prbp_result(
                &f.dag,
                1,
                &AnytimeConfig::new(Duration::from_millis(10)),
                None
            ),
            Err(AnytimeError::SmallR { r: 1 })
        ));
    }

    #[test]
    fn fail_fast_reports_deadline_no_incumbent_on_an_expired_budget() {
        // A zero deadline stops the beam at its very first level check, so
        // with `fail_fast` no incumbent can exist — deterministically, on
        // any machine.
        let f = fft(64);
        let config = AnytimeConfig {
            fail_fast: true,
            ..AnytimeConfig::new(Duration::ZERO)
        };
        assert!(matches!(
            anytime_prbp_result(&f.dag, 8, &config, None),
            Err(AnytimeError::DeadlineNoIncumbent)
        ));
        // Without fail_fast the same budget still yields a full validated
        // schedule (the greedy completion path).
        let out = anytime_prbp(&f.dag, 8, &AnytimeConfig::new(Duration::ZERO), None)
            .expect("greedy completion synthesises an incumbent");
        assert_eq!(
            out.trace.validate(&f.dag, PrbpConfig::new(8)).unwrap(),
            out.cost
        );
    }
}
