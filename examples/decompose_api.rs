//! Structure-aware scheduling end to end: decompose a DAG, and let
//! `compose` schedule each component independently — then compare the
//! certified gap against the generic portfolio.
//!
//! Run with: `cargo run --release --example decompose_api -- [m] [r]`
//! (defaults: 64-point FFT, r = 16).

use prbp::dag::decompose::{decompose, is_series_parallel, Strategy};
use prbp::dag::generators::{fft, matmul};
use prbp::sched::{best_prbp, compose_prbp, default_suite, ComposeConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let m: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(64);
    let r: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);

    let f = fft(m);
    println!(
        "{m}-point FFT: {} nodes, series-parallel = {}",
        f.dag.node_count(),
        is_series_parallel(&f.dag),
    );

    // --- Decomposition -------------------------------------------------
    // Bands of consecutive levels shatter the butterfly into independent
    // sub-FFT blocks — the structure the paper's blocked strategy uses.
    let bands = decompose(&f.dag, Strategy::LevelBands { max_nodes: 4 * r }, None)
        .expect("level bands always apply");
    println!(
        "level bands (cap {}): {} components, largest {} nodes",
        4 * r,
        bands.components.len(),
        bands.max_component_size(),
    );
    for (i, c) in bands.components.iter().enumerate().take(3) {
        println!(
            "  component {i}: {} members, {} boundary inputs, {} outputs",
            c.nodes.len(),
            c.inputs.len(),
            c.outputs.len(),
        );
    }

    // Matmul decomposes the other way: sink cones merged into square tiles.
    let mm = matmul(8, 8, 8);
    let tiles = decompose(
        &mm.dag,
        Strategy::SinkCones {
            max_nodes: 16 * r,
            max_sinks: 3 * r / 4,
        },
        None,
    )
    .expect("matmul cones apply: every product feeds exactly one output");
    println!(
        "matmul-8 sink cones: {} tiles, {} shared source inputs stay unassigned",
        tiles.components.len(),
        mm.dag.node_count() - tiles.assigned_nodes(),
    );

    // --- Divide-and-conquer scheduling ---------------------------------
    let outcome = compose_prbp(&f.dag, r, &ComposeConfig::default())
        .expect("r >= 2 schedules any DAG in PRBP");
    let (_, _, portfolio) =
        best_prbp(&f.dag, r, &default_suite()).expect("portfolio handles the FFT");
    println!(
        "compose: cost {} via {} ({} components, {} exact) — generic portfolio {}",
        outcome.cost, outcome.strategy, outcome.components, outcome.exact_components, portfolio,
    );
    assert!(outcome.cost <= portfolio);
}
