//! Quickstart: build a small computational DAG, pebble it in both models and
//! compare the optimal I/O costs (Proposition 4.2 in miniature).
//!
//! Run with: `cargo run --example quickstart`

use prbp::dag::generators::fig1_full;
use prbp::dag::stats::DagStats;
use prbp::game::engine::{solve_prbp, solve_rbp, EngineConfig};
use prbp::game::exact::LoadCountHeuristic;
use prbp::game::prbp::PrbpConfig;
use prbp::game::rbp::RbpConfig;
use prbp::game::strategies::fig1;

fn main() {
    // The Figure 1 DAG of the paper: one source, one sink, 8 inner nodes.
    let f = fig1_full();
    println!("Figure 1 DAG: {}", DagStats::of(&f.dag));

    let r = 4;

    // Exact optima for both models.
    let engine = EngineConfig::default();
    let h = &LoadCountHeuristic;
    let rbp_opt = solve_rbp(&f.dag, RbpConfig::new(r), &engine, h, None)
        .unwrap()
        .cost;
    let prbp_opt = solve_prbp(&f.dag, PrbpConfig::new(r), &engine, h, None)
        .unwrap()
        .cost;
    println!("cache size r = {r}");
    println!("  OPT_RBP  = {rbp_opt}   (paper: 3)");
    println!("  OPT_PRBP = {prbp_opt}   (paper: 2)");

    // The explicit Appendix A.1 strategies, replayed and validated move by move.
    let rbp_trace = fig1::rbp_optimal_trace(&f);
    let prbp_trace = fig1::prbp_optimal_trace(&f);
    println!(
        "  Appendix A.1 RBP strategy : {} moves, validated cost {}",
        rbp_trace.len(),
        rbp_trace.validate(&f.dag, RbpConfig::new(r)).unwrap()
    );
    println!(
        "  Appendix A.1 PRBP strategy: {} moves, validated cost {}",
        prbp_trace.len(),
        prbp_trace.validate(&f.dag, PrbpConfig::new(r)).unwrap()
    );
    println!();
    println!("PRBP pebbling of the Figure 1 DAG:");
    print!("{prbp_trace}");
}
