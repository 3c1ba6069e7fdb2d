//! Smoke tests pinning the paper's two headline propositions on small DAGs,
//! independently of the broader `tests/paper_claims.rs` suite: if either of
//! these fails, the reproduction is broken at its core.
//!
//! * **Proposition 4.1** — every one-shot RBP pebbling converts into a PRBP
//!   pebbling of the same or lower I/O cost, so `OPT_PRBP ≤ OPT_RBP`.
//! * **Proposition 4.5** — on binary reduction trees PRBP is *strictly*
//!   cheaper than RBP at `r = 3`.

use prbp::dag::generators::{binary_tree, fig1_full, kary_tree};
use prbp::dag::Dag;
use prbp::game::convert::rbp_to_prbp;
use prbp::game::engine::{solve_prbp, solve_rbp, EngineConfig};
use prbp::game::exact::{ExactError, LoadCountHeuristic};
use prbp::game::moves::Model;
use prbp::game::prbp::PrbpConfig;
use prbp::game::rbp::RbpConfig;
use prbp::game::strategies::{topological, tree};

/// Proven optimal cost of `dag` at cache `r` in `model`, by a sequential
/// engine solve.
fn opt(dag: &Dag, r: usize, model: Model) -> Result<usize, ExactError> {
    let engine = EngineConfig::default();
    let h = &LoadCountHeuristic;
    match model {
        Model::Rbp => solve_rbp(dag, RbpConfig::new(r), &engine, h, None).map(|o| o.cost),
        Model::Prbp => solve_prbp(dag, PrbpConfig::new(r), &engine, h, None).map(|o| o.cost),
    }
}

/// Proposition 4.1, constructive half: converting a concrete valid RBP trace
/// yields a valid PRBP trace that costs no more.
#[test]
fn prop_4_1_conversion_preserves_cost() {
    let dags = vec![fig1_full().dag, binary_tree(3), kary_tree(3, 2).dag];
    for dag in dags {
        let r = dag.max_in_degree() + 1;
        let rbp = topological::rbp_topological(&dag, r).expect("r >= Δin + 1");
        let rbp_cost = rbp
            .validate(&dag, RbpConfig::new(r))
            .expect("valid RBP trace");

        let prbp = rbp_to_prbp(&dag, &rbp, r).expect("Prop 4.1 conversion succeeds");
        let prbp_cost = prbp
            .validate(&dag, PrbpConfig::new(r))
            .expect("converted trace is a valid PRBP pebbling");
        assert!(
            prbp_cost <= rbp_cost,
            "conversion increased cost: PRBP {prbp_cost} > RBP {rbp_cost}"
        );
    }
}

/// Proposition 4.1 at the level of optima: `OPT_PRBP ≤ OPT_RBP` wherever both
/// exact solvers terminate.
#[test]
fn prop_4_1_optimum_never_worse() {
    for dag in [fig1_full().dag, binary_tree(2), binary_tree(3)] {
        let r = dag.max_in_degree() + 1;
        let rbp = opt(&dag, r, Model::Rbp).expect("RBP optimum");
        let prbp = opt(&dag, r, Model::Prbp).expect("PRBP optimum");
        assert!(prbp <= rbp, "OPT_PRBP {prbp} > OPT_RBP {rbp}");
        assert!(prbp >= dag.trivial_cost());
    }
}

/// Proposition 4.5: on the depth-3 binary tree with r = 3 the separation is
/// strict — both by exact optimum and by the constructive tree strategies.
#[test]
fn prop_4_5_strict_separation_on_binary_tree() {
    let dag = binary_tree(3);
    let rbp_opt = opt(&dag, 3, Model::Rbp).expect("RBP optimum");
    let prbp_opt = opt(&dag, 3, Model::Prbp).expect("PRBP optimum");
    assert!(
        prbp_opt < rbp_opt,
        "expected strict separation, got OPT_PRBP {prbp_opt} >= OPT_RBP {rbp_opt}"
    );

    // The constructive strategies witness the same strict gap on deeper trees
    // (where exact search is out of reach) via the closed-form costs.
    for depth in 3..=6 {
        let t = kary_tree(2, depth);
        let rbp = tree::rbp_tree(&t)
            .validate(&t.dag, RbpConfig::new(3))
            .expect("valid RBP tree strategy");
        let prbp = tree::prbp_tree(&t)
            .validate(&t.dag, PrbpConfig::new(3))
            .expect("valid PRBP tree strategy");
        assert!(prbp < rbp, "depth {depth}: PRBP {prbp} not < RBP {rbp}");
        assert_eq!(rbp, tree::rbp_tree_cost_formula(2, depth));
        assert_eq!(prbp, tree::prbp_tree_cost_formula(2, depth));
    }
}
