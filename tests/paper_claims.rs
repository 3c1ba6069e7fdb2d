//! Cross-crate integration tests: the paper's headline claims, exercised
//! through the public facade (`prbp::*`) exactly as a downstream user would.

use prbp::dag::generators::{
    binary_tree, chained_gadgets, fig1_full, kary_tree, matvec, spartition_counterexample, zipper,
};
use prbp::dag::Dag;
use prbp::game::engine::{solve_prbp, solve_rbp, EngineConfig};
use prbp::game::exact::{ExactError, LoadCountHeuristic};
use prbp::game::moves::Model;
use prbp::game::prbp::PrbpConfig;
use prbp::game::rbp::RbpConfig;
use prbp::game::strategies;

/// Proven optimal cost of `dag` at cache `r` in `model`, by a sequential
/// engine solve.
fn opt(dag: &Dag, r: usize, model: Model) -> Result<usize, ExactError> {
    let engine = EngineConfig::default();
    let h = &LoadCountHeuristic;
    match model {
        Model::Rbp => solve_rbp(dag, RbpConfig::new(r), &engine, h, None, None).map(|o| o.cost),
        Model::Prbp => solve_prbp(dag, PrbpConfig::new(r), &engine, h, None, None).map(|o| o.cost),
    }
}

/// Proposition 4.1: OPT_PRBP ≤ OPT_RBP whenever both are defined.
#[test]
fn prbp_never_worse_than_rbp_on_small_dags() {
    let dags = vec![
        fig1_full().dag,
        binary_tree(3),
        chained_gadgets(1).dag,
        zipper(3, 3).dag,
    ];
    for dag in dags {
        let r = dag.max_in_degree() + 1;
        let rbp = opt(&dag, r, Model::Rbp).unwrap();
        let prbp = opt(&dag, r, Model::Prbp).unwrap();
        assert!(prbp <= rbp, "PRBP {prbp} > RBP {rbp}");
        // Both are at least the trivial cost.
        assert!(prbp >= dag.trivial_cost());
    }
}

/// Proposition 4.2: the Figure 1 DAG separates the models at r = 4.
#[test]
fn figure_1_separation() {
    let f = fig1_full();
    assert_eq!(opt(&f.dag, 4, Model::Rbp).unwrap(), 3);
    assert_eq!(opt(&f.dag, 4, Model::Prbp).unwrap(), 2);
}

/// Proposition 4.3: matrix-vector multiplication separation for m ≥ 3.
#[test]
fn matvec_separation() {
    for m in [3usize, 5] {
        let g = matvec(m);
        let prbp = strategies::matvec::prbp_streaming(&g)
            .validate(&g.dag, PrbpConfig::new(m + 3))
            .unwrap();
        assert_eq!(prbp, m * m + 2 * m);
        assert!(prbp < g.rbp_lower_bound());
        let rbp = strategies::matvec::rbp_row_by_row(&g)
            .validate(&g.dag, RbpConfig::new(2 * m))
            .unwrap();
        assert_eq!(rbp, g.rbp_lower_bound());
    }
}

/// Proposition 4.7: the gap between the models grows linearly in n.
#[test]
fn linear_gap_in_chained_gadgets() {
    for copies in [4usize, 16] {
        let c = chained_gadgets(copies);
        let prbp = strategies::chain_gadget::prbp_trace(&c)
            .validate(&c.dag, PrbpConfig::new(4))
            .unwrap();
        assert_eq!(prbp, 2);
        let rbp = strategies::chain_gadget::rbp_trace(&c)
            .validate(&c.dag, RbpConfig::new(4))
            .unwrap();
        assert!(rbp >= copies + 2);
    }
}

/// Appendix A.2: tree formulas hold and PRBP wins from depth 3 on.
#[test]
fn tree_formulas_and_gap() {
    for (k, d) in [(2usize, 4usize), (3, 3)] {
        let t = kary_tree(k, d);
        let rbp = strategies::tree::rbp_tree(&t)
            .validate(&t.dag, RbpConfig::new(k + 1))
            .unwrap();
        let prbp = strategies::tree::prbp_tree(&t)
            .validate(&t.dag, PrbpConfig::new(k + 1))
            .unwrap();
        assert_eq!(rbp, strategies::tree::rbp_tree_cost_formula(k, d));
        assert_eq!(prbp, strategies::tree::prbp_tree_cost_formula(k, d));
        assert!(prbp < rbp);
    }
}

/// Section 3: PRBP pebbles any DAG with r = 2, even when RBP cannot.
#[test]
fn prbp_works_with_two_pebbles_where_rbp_cannot() {
    let c = spartition_counterexample(4);
    // RBP is infeasible (Δ_in + 1 > r for any r < 17).
    assert!(opt(&c.dag, 3, Model::Rbp).is_err());
    // PRBP pebbles it with 2 pebbles via the generic topological strategy.
    let trace = strategies::topological::prbp_topological(&c.dag, 2).unwrap();
    let cost = trace.validate(&c.dag, PrbpConfig::new(2)).unwrap();
    assert!(cost >= c.dag.trivial_cost());
}

/// One-shot property: no edge is ever aggregated twice, even by the generic
/// strategies on irregular DAGs.
#[test]
fn one_shot_is_enforced_end_to_end() {
    use prbp::dag::generators::{random_layered, RandomLayeredConfig};
    for seed in 0..4 {
        let dag = random_layered(RandomLayeredConfig {
            layers: 5,
            width: 5,
            max_in_degree: 3,
            seed,
        });
        let trace = strategies::topological::prbp_topological(&dag, 3).unwrap();
        let mut game = prbp::game::prbp::PrbpGame::new(&dag, PrbpConfig::new(3));
        for mv in &trace.moves {
            game.apply(*mv).unwrap();
        }
        assert!(game.is_terminal());
        assert_eq!(game.compute_steps(), dag.edge_count());
    }
}

/// The exact solvers and the search limits cooperate: a tiny limit fails
/// loudly instead of returning a wrong optimum.
#[test]
fn search_limit_is_honoured() {
    let f = fig1_full();
    let engine = EngineConfig {
        node_budget: Some(2),
        ..EngineConfig::default()
    };
    let config = PrbpConfig::new(4);
    let result = solve_prbp(&f.dag, config, &engine, &LoadCountHeuristic, None, None);
    assert!(matches!(result, Err(ExactError::StateLimitExceeded { .. })));
}
