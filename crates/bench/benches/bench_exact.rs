//! Exact-solver latency on the paper's gadget DAGs (E1, E6, E15 families).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pebble_dag::generators::{binary_tree, chained_gadgets, fig1_full};
use pebble_dag::Dag;
use pebble_game::engine::{solve_prbp, solve_rbp, EngineConfig};
use pebble_game::exact::LoadCountHeuristic;
use pebble_game::prbp::PrbpConfig;
use pebble_game::rbp::RbpConfig;

fn rbp_opt(dag: &Dag, r: usize) -> usize {
    let engine = EngineConfig::default();
    let out = solve_rbp(
        dag,
        RbpConfig::new(r),
        &engine,
        &LoadCountHeuristic,
        None,
        None,
    );
    out.unwrap().cost
}

fn prbp_opt(dag: &Dag, r: usize) -> usize {
    let engine = EngineConfig::default();
    let out = solve_prbp(
        dag,
        PrbpConfig::new(r),
        &engine,
        &LoadCountHeuristic,
        None,
        None,
    );
    out.unwrap().cost
}

fn bench_fig1(c: &mut Criterion) {
    let f = fig1_full();
    let mut group = c.benchmark_group("exact_fig1_r4");
    group.sample_size(10);
    group.bench_function("rbp", |b| b.iter(|| rbp_opt(&f.dag, 4)));
    group.bench_function("prbp", |b| b.iter(|| prbp_opt(&f.dag, 4)));
    group.finish();
}

fn bench_binary_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_binary_tree_r3");
    group.sample_size(10);
    for depth in [2usize, 3] {
        let dag = binary_tree(depth);
        group.bench_with_input(BenchmarkId::new("rbp", depth), &dag, |b, dag| {
            b.iter(|| rbp_opt(dag, 3))
        });
    }
    let small = binary_tree(2);
    group.bench_function("prbp/2", |b| b.iter(|| prbp_opt(&small, 3)));
    group.finish();
}

fn bench_chained_gadgets(c: &mut Criterion) {
    let mut group = c.benchmark_group("exact_chained_gadgets_r4");
    group.sample_size(10);
    {
        let copies = 1usize;
        let g = chained_gadgets(copies);
        group.bench_with_input(BenchmarkId::new("prbp", copies), &g.dag, |b, dag| {
            b.iter(|| prbp_opt(dag, 4))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fig1,
    bench_binary_tree,
    bench_chained_gadgets
);
criterion_main!(benches);
