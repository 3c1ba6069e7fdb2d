//! E1 — Proposition 4.2 / Figure 1 / Appendix A.1: on the Figure 1 DAG with
//! `r = 4`, `OPT_RBP = 3` but `OPT_PRBP = 2`.

use crate::Table;
use pebble_dag::generators::fig1_full;
use pebble_game::engine::{solve_prbp, solve_rbp, EngineConfig};
use pebble_game::exact::LoadCountHeuristic;
use pebble_game::prbp::PrbpConfig;
use pebble_game::rbp::RbpConfig;
use pebble_game::strategies::fig1;

/// Build the E1 table: exact optima and the validated Appendix A.1 strategy
/// costs for both models.
pub fn run() -> Table {
    let f = fig1_full();
    let r = fig1::FIG1_CACHE;
    let engine = EngineConfig::default();
    let h = &LoadCountHeuristic;
    let rbp_opt = solve_rbp(&f.dag, RbpConfig::new(r), &engine, h, None, None)
        .unwrap()
        .cost;
    let prbp_opt = solve_prbp(&f.dag, PrbpConfig::new(r), &engine, h, None, None)
        .unwrap()
        .cost;
    let rbp_strategy = fig1::rbp_optimal_trace(&f)
        .validate(&f.dag, RbpConfig::new(r))
        .unwrap();
    let prbp_strategy = fig1::prbp_optimal_trace(&f)
        .validate(&f.dag, PrbpConfig::new(r))
        .unwrap();

    let mut t = Table::new(
        "E1 (Prop 4.2, Fig 1): OPT_RBP vs OPT_PRBP on the Figure 1 DAG, r = 4",
        &["model", "exact optimum", "Appendix A.1 strategy", "paper"],
    );
    t.check(rbp_opt == 3 && rbp_strategy == 3);
    t.check(prbp_opt == 2 && prbp_strategy == 2);
    t.push_row([
        "RBP".into(),
        rbp_opt.to_string(),
        rbp_strategy.to_string(),
        "3".into(),
    ]);
    t.push_row([
        "PRBP".into(),
        prbp_opt.to_string(),
        prbp_strategy.to_string(),
        "2".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn matches_proposition_4_2() {
        let t = super::run();
        assert_eq!(t.rows[0][1], "3");
        assert_eq!(t.rows[0][2], "3");
        assert_eq!(t.rows[1][1], "2");
        assert_eq!(t.rows[1][2], "2");
    }
}
