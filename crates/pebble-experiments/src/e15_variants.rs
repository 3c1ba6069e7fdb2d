//! E15 — Section 8.1 / Appendix B: model variants. Exact optima on the
//! Figure 1 DAG and its variant-resistant modifications, for the one-shot,
//! re-computation and sliding-pebble models, plus the in-degree-scaled
//! compute-cost comparison of Appendix B.3.

use crate::Table;
use pebble_dag::generators::fig1_full;
use pebble_game::cost::CostModel;
use pebble_game::engine::{solve_prbp, solve_rbp, EngineConfig};
use pebble_game::exact::LoadCountHeuristic;
use pebble_game::prbp::PrbpConfig;
use pebble_game::rbp::RbpConfig;
use pebble_game::strategies::fig1;
use pebble_game::variants::{fig1_recompute_resistant, fig1_sliding_resistant};

/// Build the E15 table.
pub fn run() -> Table {
    let r = 4;
    let engine = EngineConfig::default();
    let h = &LoadCountHeuristic;
    let rbp = |dag, config| solve_rbp(dag, config, &engine, h, None).unwrap().cost;
    let mut t = Table::new(
        "E15 (App B): model variants on Figure 1 and its adjusted versions (r = 4)",
        &[
            "DAG",
            "RBP one-shot",
            "RBP recompute",
            "RBP sliding",
            "PRBP",
        ],
    );

    let original = fig1_full();
    let variants: Vec<(&str, pebble_dag::Dag)> = vec![
        ("Figure 1", original.dag.clone()),
        ("Figure 1 + z-layer (B.1)", fig1_recompute_resistant().dag),
        ("Figure 1 + w0 (B.2)", fig1_sliding_resistant().dag),
    ];
    for (name, dag) in &variants {
        let one_shot = rbp(dag, RbpConfig::new(r));
        let recompute = rbp(dag, RbpConfig::new(r).with_recompute());
        let sliding = rbp(dag, RbpConfig::new(r).with_sliding());
        let prbp = solve_prbp(dag, PrbpConfig::new(r), &engine, h, None)
            .unwrap()
            .cost;
        // Appendix B: recompute/sliding never hurt, PRBP stays at 2, and the
        // adjusted DAGs restore 3 for their respective variants.
        t.check(recompute <= one_shot && sliding <= one_shot);
        t.check(prbp == 2);
        match *name {
            "Figure 1" => t.check(one_shot == 3 && recompute == 2 && sliding == 2),
            "Figure 1 + z-layer (B.1)" => t.check(recompute == 3),
            _ => t.check(sliding == 3),
        };
        t.push_row([
            name.to_string(),
            one_shot.to_string(),
            recompute.to_string(),
            sliding.to_string(),
            prbp.to_string(),
        ]);
    }

    // Appendix B.3: the in-degree-scaled compute-cost translation keeps RBP
    // and PRBP compute totals comparable (ε·n on fully aggregated nodes).
    let eps = 0.125;
    let model = CostModel::with_compute_cost(eps);
    let rbp_total = model.rbp_cost(&fig1::rbp_optimal_trace(&original));
    let prbp_total =
        model.prbp_cost_indegree_scaled(&original.dag, &fig1::prbp_optimal_trace(&original));
    t.push_row([
        format!("Figure 1, compute cost eps={eps}"),
        format!("{rbp_total:.3}"),
        "-".into(),
        "-".into(),
        format!("{prbp_total:.3}"),
    ]);
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn variant_optima_match_the_appendix() {
        let t = super::run();
        // Original Figure 1: one-shot 3, recompute 2, sliding 2, PRBP 2.
        assert_eq!(t.rows[0][1..5], ["3", "2", "2", "2"].map(String::from));
        // z-layer adjustment restores 3 for the recompute model.
        assert_eq!(t.rows[1][2], "3");
        assert_eq!(t.rows[1][4], "2");
        // w0 adjustment restores 3 for the sliding model.
        assert_eq!(t.rows[2][3], "3");
        assert_eq!(t.rows[2][4], "2");
    }

    #[test]
    fn compute_cost_row_keeps_models_comparable() {
        let t = super::run();
        let last = t.rows.last().unwrap();
        let rbp: f64 = last[1].parse().unwrap();
        let prbp: f64 = last[4].parse().unwrap();
        // PRBP saves one I/O, and the scaled compute totals are both ε·(#non-source nodes).
        assert!(prbp < rbp);
        assert!((rbp - prbp - 1.0).abs() < 1e-9);
    }
}
