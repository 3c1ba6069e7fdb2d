//! Schedule a DAG the repository did not generate: parse an external
//! edge-list / DOT / JSON document through `pebble-io`, schedule it under
//! PRBP, and certify the result against the admissible lower bounds.
//!
//! Run with: `cargo run --release --example external_dag -- [path] [r]`
//! (with no path, a small built-in DOT document is used).

use prbp::io::{self, Format};
use prbp::sched::{certify_greedy_prbp, BoundSet, FurthestInFuture, OrderKind};

/// A hand-written workload: two independent chains joined by a reduction.
const BUILTIN: &str = r#"
digraph pipeline {
  // inputs
  a [label="load A"]; b [label="load B"];
  a -> a1 -> a2 -> join;
  b -> b1 -> b2 -> join;
  join -> out [color=blue];
  out [label="result"];
}
"#;

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args.next();
    let r: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    let (text, format, name) = match &path {
        Some(p) => {
            let text = std::fs::read_to_string(p).expect("readable input file");
            let format = Format::from_path(p).unwrap_or_else(|| Format::sniff(&text));
            (text, format, p.clone())
        }
        None => (BUILTIN.to_string(), Format::Dot, "<builtin>".to_string()),
    };

    // Line-precise errors: a malformed document names the offending token.
    let dag = match io::parse(&text, format) {
        Ok(dag) => dag,
        Err(err) => {
            eprintln!("{name}: {err}");
            std::process::exit(1);
        }
    };
    println!(
        "{name} ({format}): {} nodes, {} edges, r = {r}",
        dag.node_count(),
        dag.edge_count()
    );

    // Streaming certification: the move sequence is validated and certified
    // as it is produced — nothing is materialised, so this path handles
    // million-node documents in memory proportional to the graph.
    let order = OrderKind::DfsPostorder.build(&dag);
    let report = certify_greedy_prbp(
        &dag,
        r,
        &order,
        &mut FurthestInFuture,
        "greedy:belady:dfs",
        BoundSet::auto_for(&dag),
    )
    .expect("PRBP schedules any DAG with r >= 2")
    .expect("greedy emits valid pebblings");

    println!(
        "  cost {} over {} moves; best admissible bound {} => certified gap {:.2}x",
        report.cost,
        report.moves,
        report.best_bound,
        report.gap()
    );
    for bound in &report.bounds {
        println!("    bound {:<12} {}", bound.name, bound.value);
    }
}
