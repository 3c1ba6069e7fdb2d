//! Concurrency and anytime-contract tests for the unified engine.
//!
//! The engine's anytime contract: any solve given a seed returns a
//! simulator-validated incumbent no worse than the seed, paired with an
//! admissible bound, no matter when (or why) it stops; cancellation and
//! deadlines fire within one expansion batch (no hangs, even when the
//! worker count far exceeds the hardware); the published incumbent cost
//! only ever decreases; and the parallel search is deterministic in its
//! *answer* — repeated parallel runs never disagree on the proven optimum,
//! whatever the thread interleaving.
//!
//! Release-only: debug builds are slow enough to turn the timing
//! assertions into noise.

#![cfg(not(debug_assertions))]

use pebble_dag::generators::{chained_gadgets, fft, zipper};
use pebble_dag::Dag;
use pebble_game::engine::{self, CancelToken, EngineConfig, Progress, StopReason};
use pebble_game::exact::{self, LoadCountHeuristic, ZeroHeuristic};
use pebble_game::prbp::PrbpConfig;
use pebble_game::trace::PrbpTrace;
use pebble_sched::{greedy_prbp, order, FurthestInFuture};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A greedy seed schedule for `dag` — the incumbent every anytime solve
/// starts from.
fn greedy_seed(dag: &Dag, r: usize) -> PrbpTrace {
    let ord = order::dfs_postorder(dag);
    greedy_prbp(dag, r, &ord, &mut FurthestInFuture).expect("r >= 2 schedules any DAG")
}

/// Worker count for the stress tests: at least 64 (far beyond the
/// hardware, so idle-spin/quiescence paths are exercised), raised further
/// by `PRBP_THREADS` (the CI engine-stress job forces it high).
fn stress_workers() -> usize {
    std::env::var("PRBP_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(0)
        .max(64)
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
        for workers in [1usize, 4] {
            let engine = EngineConfig {
                deadline: Some(Duration::from_millis(deadline_ms)),
                workers,
                ..EngineConfig::default()
            };
            let out = engine::solve_prbp(
                &f.dag,
                PrbpConfig::new(r),
                &engine,
                &LoadCountHeuristic,
                Some(&seed),
                None,
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
        None,
    )
    .expect_err("no incumbent can exist at a zero deadline");
    assert!(
        matches!(err, exact::ExactError::Interrupted { .. }),
        "expected Interrupted, got {err}"
    );
}

/// Cancellation fires within one expansion batch: a 64-worker solve on an
/// instance its deadline-free search could chew on for hours returns
/// promptly once the token flips, and still hands back the incumbent.
#[test]
fn cancellation_unblocks_a_64_worker_solve_promptly() {
    let f = fft(16);
    let r = 4;
    let seed = greedy_seed(&f.dag, r);
    let token = CancelToken::new();
    let engine = EngineConfig {
        workers: stress_workers(),
        cancel: Some(token.clone()),
        ..EngineConfig::default()
    };
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let canceller = scope.spawn(|| {
            std::thread::sleep(Duration::from_millis(25));
            token.cancel();
            // The solve must unblock within a generous grace period.
            let fired = Instant::now();
            while !done.load(Ordering::Acquire) {
                assert!(
                    fired.elapsed() < Duration::from_secs(30),
                    "solve failed to observe cancellation (hang)"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let out = engine::solve_prbp(
            &f.dag,
            PrbpConfig::new(r),
            &engine,
            &LoadCountHeuristic,
            Some(&seed),
            None,
        )
        .expect("seeded solve returns its incumbent on cancellation");
        done.store(true, Ordering::Release);
        assert_eq!(out.stop, StopReason::Cancelled);
        let replayed = out
            .trace
            .validate(&f.dag, PrbpConfig::new(r))
            .expect("incumbent must be simulator-valid");
        assert_eq!(replayed, out.cost);
        canceller.join().expect("canceller thread");
    });
}

/// The published incumbent cost is monotone non-increasing and the
/// published bound monotone non-decreasing, as observed live from another
/// thread through the `Progress` channel.
#[test]
fn progress_incumbents_are_monotone() {
    let f = zipper(4, 6);
    let r = 3;
    let seed = greedy_seed(&f.dag, r);
    let progress: Progress<pebble_game::moves::PrbpMove> = Progress::new();
    let engine = EngineConfig {
        deadline: Some(Duration::from_millis(500)),
        workers: 4,
        ..EngineConfig::default()
    };
    std::thread::scope(|scope| {
        let observer = {
            let progress = progress.clone();
            scope.spawn(move || {
                let mut costs: Vec<usize> = Vec::new();
                let mut bounds: Vec<usize> = Vec::new();
                let started = Instant::now();
                while started.elapsed() < Duration::from_millis(600) {
                    if let Some(c) = progress.cost() {
                        costs.push(c);
                    }
                    bounds.push(progress.bound());
                    std::thread::yield_now();
                }
                (costs, bounds)
            })
        };
        let out = engine::solve_prbp(
            &f.dag,
            PrbpConfig::new(r),
            &engine,
            &LoadCountHeuristic,
            Some(&seed),
            Some(&progress),
        )
        .expect("seeded solve returns an incumbent");
        let (costs, bounds) = observer.join().expect("observer thread");
        assert!(
            costs.windows(2).all(|w| w[1] <= w[0]),
            "published incumbent cost must never increase: {costs:?}"
        );
        assert!(
            bounds.windows(2).all(|w| w[1] >= w[0]),
            "published bound must never decrease: {bounds:?}"
        );
        // The channel's final state agrees with the returned outcome.
        assert_eq!(progress.cost(), Some(out.cost));
        assert!(progress.bound() <= out.cost);
    });
}

/// Repeated parallel runs are answer-deterministic: every run proves the
/// same optimum the sequential uniform-cost (`ZeroHeuristic`) search proves,
/// whatever the interleaving.
#[test]
fn repeated_parallel_runs_agree_on_the_optimum() {
    let cases: Vec<(Dag, usize)> = vec![(zipper(2, 3).dag, 4), (chained_gadgets(1).dag, 4)];
    for (dag, r) in &cases {
        let engine = EngineConfig::default();
        let reference = engine::solve_prbp(
            dag,
            PrbpConfig::new(*r),
            &engine,
            &ZeroHeuristic,
            None,
            None,
        )
        .expect("corpus instances solve")
        .cost;
        for run in 0..8 {
            let engine = EngineConfig {
                workers: 4,
                ..EngineConfig::default()
            };
            let out = engine::solve_prbp(
                dag,
                PrbpConfig::new(*r),
                &engine,
                &LoadCountHeuristic,
                None,
                None,
            )
            .expect("corpus instances solve");
            assert!(out.proven_optimal, "run {run} failed to prove optimality");
            assert_eq!(
                out.cost, reference,
                "run {run} disagrees with the uniform-cost optimum"
            );
        }
    }
}
