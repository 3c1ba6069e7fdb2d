//! Heuristic scheduling at scale: pebble a ~50k-node FFT butterfly — two
//! orders of magnitude beyond exact-solver reach — and certify the result
//! against the Theorem 6.9 lower bound.
//!
//! Run with: `cargo run --release --example schedule_fft -- [m] [r]`
//! (defaults: m = 4096, 13 × 4096 = 53 248 nodes; r = 512).

use prbp::bounds::analytic::fft_prbp_lower_bound;
use prbp::dag::generators::fft;
use prbp::game::strategies::fft as fft_strategies;
use prbp::sched::{certify_prbp, OrderKind, ScheduleReport, Scheduler};
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let m: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4096);
    let r: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(512);

    let f = fft(m);
    println!(
        "{m}-point FFT butterfly: {} nodes, {} edges, cache r = {r}",
        f.dag.node_count(),
        f.dag.edge_count()
    );
    assert!(
        f.dag.node_count() >= 10_000,
        "demonstration targets at-scale instances"
    );

    let mut reports: Vec<ScheduleReport> = Vec::new();
    for scheduler in [
        Scheduler::Greedy {
            order: OrderKind::Natural,
        },
        Scheduler::Beam {
            width: 1,
            branch: 1,
        },
    ] {
        let t0 = Instant::now();
        let trace = scheduler
            .run_prbp(&f.dag, r)
            .expect("PRBP schedules any DAG with r >= 2");
        let elapsed = t0.elapsed();
        // `certify_prbp` replays the trace through the PRBP simulator and
        // pairs the validated cost with the admissible lower bounds.
        let report = certify_prbp(&f.dag, r, &trace, scheduler.to_string())
            .expect("schedulers emit valid traces");
        println!(
            "  {:<24} cost {:>8}  certified gap {:>5.2}x  ({} moves, scheduled in {:.2?})",
            report.scheduler,
            report.cost,
            report.gap(),
            report.moves,
            elapsed
        );
        reports.push(report);
    }

    // The paper's blocked superstage strategy (Theorem 6.9 upper bound),
    // replayed through the same simulator and certified the same way.
    let trace = fft_strategies::prbp_blocked(&f, r).expect("r >= 4");
    let report = certify_prbp(&f.dag, r, &trace, "blocked").expect("valid strategy trace");
    println!(
        "  {:<24} cost {:>8}  certified gap {:>5.2}x  ({} moves)",
        report.scheduler,
        report.cost,
        report.gap(),
        report.moves
    );
    reports.push(report);

    let analytic = fft_prbp_lower_bound(m, r);
    let best = reports
        .iter()
        .min_by_key(|rep| rep.cost)
        .expect("non-empty");
    println!(
        "\nTheorem 6.9 analytic lower bound: {analytic:.0} I/Os; best admissible bound used: {}",
        best.best_bound
    );
    println!(
        "best schedule: {} at {} I/Os -> certified within {:.2}x of optimal",
        best.scheduler,
        best.cost,
        best.gap()
    );
    assert!(best.cost as f64 >= analytic, "no schedule beats the bound");
    assert!(
        best.gap().is_finite() && best.gap() >= 1.0,
        "certified gap must be a finite factor"
    );
}
