//! The engine's optimum must be the true optimum.
//!
//! The reference is the uniform-cost search (`ZeroHeuristic`): with no
//! heuristic it can only return the optimum if the search loop and move
//! generation are right. Over the same corpus as `solver_equivalence` —
//! random layered DAGs (property test), every structured generator family,
//! and the model variants (re-computation, sliding, `clear`, no-deletion) —
//! this suite checks:
//!
//! * the `LoadCountHeuristic` engine returns exactly the reference optimum,
//!   proven, with a simulator-validated trace;
//! * the beam-mode engine returns a validated schedule bracketed between
//!   the exact optimum and the adaptive (width-1) greedy.
//!
//! The sequential search statistics are pinned separately, by the exact
//! `expanded`/`generated`/`distinct` counters of `BENCH_solvers.json`.
//!
//! Release-only: the reference searches need optimised builds.

#![cfg(not(debug_assertions))]

use pebble_dag::generators::{
    chained_gadgets, fig1_full, kary_tree, matvec, pebble_collection, pyramid, random_layered,
    zipper, RandomLayeredConfig,
};
use pebble_dag::Dag;
use pebble_game::engine::{self, EngineConfig, EngineOutcome, StopReason};
use pebble_game::exact::{LoadCountHeuristic, LowerBound, ZeroHeuristic};
use pebble_game::moves::{PrbpMove, RbpMove};
use pebble_game::prbp::PrbpConfig;
use pebble_game::rbp::RbpConfig;
use pebble_game::trace::{PrbpTrace, RbpTrace};
use proptest::prelude::*;

/// The solve checked against the reference.
const CHECKED: &dyn LowerBound = &LoadCountHeuristic;

fn assert_proven<T>(out: &EngineOutcome<T>, reference: usize, replayed: usize, what: &str) {
    assert_eq!(
        out.cost, reference,
        "{what} disagrees with the reference optimum"
    );
    assert!(out.proven_optimal, "{what} must prove the optimum");
    assert_eq!(out.stop, StopReason::Completed);
    assert_eq!(out.bound, out.cost, "proven solves raise bound to cost");
    assert_eq!(
        replayed, out.cost,
        "{what}: trace cost must match reported cost"
    );
}

/// The engine matches the uniform-cost reference on an RBP instance.
fn assert_rbp_engine_matches(dag: &Dag, config: RbpConfig) {
    let solve = |h: &dyn LowerBound| {
        engine::solve_rbp(dag, config, &EngineConfig::default(), h, None)
            .expect("corpus instances solve")
    };
    let reference = solve(&ZeroHeuristic).cost;
    let out = solve(CHECKED);
    let replayed = out
        .trace
        .validate(dag, config)
        .expect("engine trace must replay");
    let what = format!("{} (RBP r={})", CHECKED.name(), config.r);
    assert_proven(&out, reference, replayed, &what);
}

/// The engine matches the uniform-cost reference on a PRBP instance.
fn assert_prbp_engine_matches(dag: &Dag, config: PrbpConfig) {
    let solve = |h: &dyn LowerBound| {
        engine::solve_prbp(dag, config, &EngineConfig::default(), h, None)
            .expect("corpus instances solve")
    };
    let reference = solve(&ZeroHeuristic).cost;
    let out = solve(CHECKED);
    let replayed = out
        .trace
        .validate(dag, config)
        .expect("engine trace must replay");
    let what = format!("{} (PRBP r={})", CHECKED.name(), config.r);
    assert_proven(&out, reference, replayed, &what);
}

/// Beam-mode engine: validated, bracketed between the optimum and the
/// adaptive width-1 greedy.
fn assert_beam_bracketed(dag: &Dag, r: usize, optimum: usize) {
    let beam = |width: usize| -> EngineOutcome<PrbpTrace> {
        let engine = EngineConfig {
            width: Some(width),
            branch: 4,
            ..EngineConfig::default()
        };
        engine::solve_prbp(dag, PrbpConfig::new(r), &engine, &LoadCountHeuristic, None)
            .expect("beam schedules any r >= 2 instance")
    };
    let adaptive = beam(1);
    let wide = beam(8);
    for out in [&adaptive, &wide] {
        let replayed = out
            .trace
            .validate(dag, PrbpConfig::new(r))
            .expect("beam trace must replay");
        assert_eq!(replayed, out.cost);
        assert!(out.cost >= optimum, "beam cannot beat the proven optimum");
        assert!(out.bound <= optimum, "beam bound must stay admissible");
    }
    assert!(
        wide.cost <= adaptive.cost,
        "width 8 must not lose to the adaptive greedy on corpus instances \
         (wide {} vs adaptive {})",
        wide.cost,
        adaptive.cost
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_dags_engine_equals_uniform_cost(
        seed in any::<u64>(),
        layers in 2usize..4,
        width in 1usize..3,
    ) {
        let dag = random_layered(RandomLayeredConfig {
            layers,
            width,
            max_in_degree: 2,
            seed,
        });
        assert_rbp_engine_matches(&dag, RbpConfig::new(dag.max_in_degree() + 1));
        assert_prbp_engine_matches(&dag, PrbpConfig::new(2));
        assert_prbp_engine_matches(&dag, PrbpConfig::new(3));
    }
}

#[test]
fn structured_generators_engine_equals_uniform_cost_rbp() {
    let cases: Vec<Dag> = vec![
        fig1_full().dag,
        zipper(2, 3).dag,
        kary_tree(2, 2).dag,
        chained_gadgets(1).dag,
        pyramid(2).dag,
    ];
    for dag in &cases {
        assert_rbp_engine_matches(dag, RbpConfig::new(dag.max_in_degree() + 1));
    }
}

#[test]
fn structured_generators_engine_equals_uniform_cost_prbp() {
    let cases: Vec<(Dag, usize)> = vec![
        (fig1_full().dag, 4),
        (zipper(2, 3).dag, 4),
        (matvec(2).dag, 5),
        (kary_tree(2, 2).dag, 3),
        (chained_gadgets(1).dag, 4),
        (pebble_collection(2, 3).dag, 4),
        (pyramid(2).dag, 2),
    ];
    for (dag, r) in &cases {
        assert_prbp_engine_matches(dag, PrbpConfig::new(*r));
    }
}

#[test]
fn model_variants_engine_equals_uniform_cost() {
    let f = fig1_full();
    assert_rbp_engine_matches(&f.dag, RbpConfig::new(4).with_recompute());
    assert_rbp_engine_matches(&f.dag, RbpConfig::new(4).with_sliding());
    assert_prbp_engine_matches(&f.dag, PrbpConfig::new(4).with_clear());
    assert_prbp_engine_matches(&f.dag, PrbpConfig::new(4).with_no_delete());
}

#[test]
fn beam_mode_engine_is_bracketed_on_the_structured_corpus() {
    let cases: Vec<(Dag, usize)> = vec![
        (fig1_full().dag, 4),
        (zipper(2, 3).dag, 4),
        (matvec(2).dag, 5),
        (kary_tree(2, 2).dag, 3),
        (chained_gadgets(1).dag, 4),
        (pebble_collection(2, 3).dag, 4),
        (pyramid(2).dag, 2),
    ];
    for (dag, r) in &cases {
        let engine = EngineConfig::default();
        let optimum = engine::solve_prbp(dag, PrbpConfig::new(*r), &engine, &ZeroHeuristic, None)
            .expect("corpus instances solve")
            .cost;
        assert_beam_bracketed(dag, *r, optimum);
    }
}

/// PRBP moves are the engine's currency; keep the suite honest about the
/// types it quantifies over (compile-time check that the outcome move types
/// line up with the trace types the simulators replay).
#[allow(dead_code)]
fn type_pins(
    prbp: EngineOutcome<PrbpTrace>,
    rbp: EngineOutcome<RbpTrace>,
) -> (Vec<PrbpMove>, Vec<RbpMove>) {
    (prbp.trace.moves, rbp.trace.moves)
}
