//! The `LoadCountHeuristic` A* must return exactly the same optimal cost as
//! the `ZeroHeuristic` uniform-cost search — on random DAGs (property test) and
//! on every structured generator family at small sizes, for both RBP and
//! PRBP, including the model variants. A divergence means the heuristic
//! overestimates somewhere (it is not admissible) and would silently corrupt
//! every experiment built on the solvers.

use pebble_dag::generators::{
    chained_gadgets, fig1_full, kary_tree, matvec, pebble_collection, pyramid, random_layered,
    zipper, RandomLayeredConfig,
};
use pebble_dag::Dag;
use pebble_game::engine::{solve_prbp, solve_rbp, EngineConfig};
use pebble_game::exact::{LoadCountHeuristic, ZeroHeuristic};
use pebble_game::prbp::PrbpConfig;
use pebble_game::rbp::RbpConfig;
use proptest::prelude::*;

/// Assert load-count agrees with the Zero (uniform-cost) optimum.
fn assert_rbp_equivalent(dag: &Dag, config: RbpConfig) {
    let engine = EngineConfig::default();
    let zero = solve_rbp(dag, config, &engine, &ZeroHeuristic, None)
        .expect("reference search must solve the instance");
    let solved = solve_rbp(dag, config, &engine, &LoadCountHeuristic, None)
        .unwrap_or_else(|e| panic!("load-count: {e}"));
    assert_eq!(
        solved.cost, zero.cost,
        "load-count disagrees with zero on RBP (r={})",
        config.r
    );
    assert!(
        solved.stats.expanded <= zero.stats.expanded,
        "load-count expanded more states than blind search on RBP"
    );
}

fn assert_prbp_equivalent(dag: &Dag, config: PrbpConfig) {
    let engine = EngineConfig::default();
    let zero = solve_prbp(dag, config, &engine, &ZeroHeuristic, None)
        .expect("reference search must solve the instance");
    let solved = solve_prbp(dag, config, &engine, &LoadCountHeuristic, None)
        .unwrap_or_else(|e| panic!("load-count: {e}"));
    assert_eq!(
        solved.cost, zero.cost,
        "load-count disagrees with zero on PRBP (r={})",
        config.r
    );
    assert!(
        solved.stats.expanded <= zero.stats.expanded,
        "load-count expanded more states than blind search on PRBP"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_dags_all_heuristics_agree(
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
        assert_rbp_equivalent(&dag, RbpConfig::new(dag.max_in_degree() + 1));
        assert_prbp_equivalent(&dag, PrbpConfig::new(2));
        assert_prbp_equivalent(&dag, PrbpConfig::new(3));
    }
}

#[test]
fn structured_generators_all_heuristics_agree_rbp() {
    let cases: Vec<Dag> = vec![
        fig1_full().dag,
        zipper(2, 3).dag,
        kary_tree(2, 2).dag,
        chained_gadgets(1).dag,
        pyramid(2).dag,
    ];
    for dag in &cases {
        assert_rbp_equivalent(dag, RbpConfig::new(dag.max_in_degree() + 1));
    }
}

#[test]
fn structured_generators_all_heuristics_agree_prbp() {
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
        assert_prbp_equivalent(dag, PrbpConfig::new(*r));
    }
}

#[test]
fn model_variants_all_heuristics_agree() {
    // The heuristic must degrade soundly under the variant rules too:
    // re-computation, sliding, no-deletion, and `clear`.
    let f = fig1_full();
    assert_rbp_equivalent(&f.dag, RbpConfig::new(4).with_recompute());
    assert_rbp_equivalent(&f.dag, RbpConfig::new(4).with_sliding());
    assert_prbp_equivalent(&f.dag, PrbpConfig::new(4).with_clear());
    assert_prbp_equivalent(&f.dag, PrbpConfig::new(4).with_no_delete());
}
