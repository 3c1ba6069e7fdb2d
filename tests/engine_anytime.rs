//! Anytime-contract tests for the unified engine.
//!
//! The engine's anytime contract: any solve given a seed returns a
//! simulator-validated incumbent no worse than the seed, paired with an
//! admissible bound, no matter when (or why) it stops; and a deadline fires
//! within one expansion, so a solve returns within `deadline + max(5 ms,
//! 2 %)`.
//!
//! Release-only: debug builds are slow enough to turn the timing
//! assertions into noise.

#![cfg(not(debug_assertions))]

use pebble_dag::generators::fft;
use pebble_dag::Dag;
use pebble_game::engine::{self, EngineConfig, StopReason};
use pebble_game::exact::{self, LoadCountHeuristic};
use pebble_game::prbp::PrbpConfig;
use pebble_game::trace::PrbpTrace;
use pebble_sched::{greedy_prbp, order, FurthestInFuture};
use std::time::{Duration, Instant};

/// A greedy seed schedule for `dag` — the incumbent every anytime solve
/// starts from.
fn greedy_seed(dag: &Dag, r: usize) -> PrbpTrace {
    let ord = order::dfs_postorder(dag);
    greedy_prbp(dag, r, &ord, &mut FurthestInFuture).expect("r >= 2 schedules any DAG")
}

/// Deadline-bounded seeded solves always return a validated incumbent with
/// an admissible bound — even when the deadline is far too short to prove
/// anything.
#[test]
fn deadline_solves_always_return_validated_incumbents() {
    let f = fft(16); // exact search space far beyond any of these deadlines
    let r = 4;
    let seed = greedy_seed(&f.dag, r);
    let seed_cost = seed
        .validate(&f.dag, PrbpConfig::new(r))
        .expect("seed replays");
    for deadline_ms in [0u64, 1, 10, 50] {
        let engine = EngineConfig {
            deadline: Some(Duration::from_millis(deadline_ms)),
            ..EngineConfig::default()
        };
        let out = engine::solve_prbp(
            &f.dag,
            PrbpConfig::new(r),
            &engine,
            &LoadCountHeuristic,
            Some(&seed),
        )
        .expect("a seeded solve always has an incumbent to return");
        let replayed = out
            .trace
            .validate(&f.dag, PrbpConfig::new(r))
            .expect("incumbent must be simulator-valid");
        assert_eq!(replayed, out.cost);
        assert!(out.cost <= seed_cost, "incumbent must not regress the seed");
        assert!(out.bound <= out.cost, "bound must stay admissible");
        assert!(out.bound > 0, "initial-state heuristic is positive here");
        assert!(!out.proven_optimal || out.stop == StopReason::Completed);
    }
}

/// A deadline with no seed and no time to find a goal reports
/// `Interrupted` instead of hanging or fabricating a result.
#[test]
fn unseeded_zero_deadline_reports_interrupted() {
    let f = fft(16);
    let engine = EngineConfig {
        deadline: Some(Duration::ZERO),
        ..EngineConfig::default()
    };
    let err = engine::solve_prbp(
        &f.dag,
        PrbpConfig::new(4),
        &engine,
        &LoadCountHeuristic,
        None,
    )
    .expect_err("no incumbent can exist at a zero deadline");
    assert!(
        matches!(err, exact::ExactError::Interrupted { .. }),
        "expected Interrupted, got {err}"
    );
}

/// A deadline is honoured within one expansion: a seeded fft-64 solve at
/// r = 4, whose exact search would run far past any of these deadlines,
/// returns within `deadline + max(5 ms, 2 %)` (the median of five runs, so
/// one descheduled run cannot fail the contract).
#[test]
fn deadline_solves_return_within_five_ms_of_the_deadline() {
    let f = fft(64);
    let r = 4;
    let seed = greedy_seed(&f.dag, r);
    for deadline_ms in [0u64, 10] {
        let deadline = Duration::from_millis(deadline_ms);
        let engine = EngineConfig {
            deadline: Some(deadline),
            ..EngineConfig::default()
        };
        let mut walls: Vec<Duration> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let out = engine::solve_prbp(
                    &f.dag,
                    PrbpConfig::new(r),
                    &engine,
                    &LoadCountHeuristic,
                    Some(&seed),
                )
                .expect("a seeded solve always has an incumbent to return");
                let wall = t0.elapsed();
                assert_eq!(out.stop, StopReason::Deadline);
                wall
            })
            .collect();
        walls.sort_unstable();
        let slack = Duration::from_millis(5).max(deadline / 50);
        assert!(
            walls[2] <= deadline + slack,
            "{deadline_ms} ms deadline: median wall {:?} exceeds the deadline by more than {slack:?}",
            walls[2]
        );
    }
}
