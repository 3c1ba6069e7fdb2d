//! Differential testing against the exact solvers.
//!
//! Over randomly generated layered, tree and series-parallel DAGs small
//! enough for the A* solvers (n ≤ 20), this suite proves every engine
//! honest:
//!
//! * every portfolio scheduler's certified cost is at least the A* optimum,
//!   and every admissible bound in its report ladder is at most the optimum;
//! * `compose` returns *exactly* the optimum on tree and series-parallel
//!   instances (whole-instance exact scheduling below the node budget);
//! * the composable decomposition bound of `pebble-bounds` is admissible for
//!   *arbitrary* node partitions — including disconnected, non-convex ones —
//!   and never exceeds the whole DAG's load-count bound;
//! * every producer's own I/O count — greedy on both orders, the cone edge
//!   schedule, the beams and compose — equals a from-scratch replay of its
//!   trace, since selection and compose's reported cost use those counts
//!   and only the certificate replays;
//! * `Scheduler`/`OrderKind` display names round-trip through
//!   `FromStr` (including `compose`) and unknown names, parameterised
//!   `compose:<N>` among them, are rejected instead of misparsed.
//!
//! The A* reference searches explore millions of states and need optimised
//! builds; CI runs this suite in release (`cargo test --release -p
//! pebble-sched --test differential`).

#![cfg(not(debug_assertions))]

use pebble_bounds::composed_prbp_bound;
use pebble_dag::generators::{attention_qk, fft, matmul, random_layered, RandomLayeredConfig};
use pebble_dag::{Dag, DagBuilder, NodeId};
use pebble_game::engine::{solve_prbp, EngineConfig};
use pebble_game::exact::{prbp_initial_bound, LoadCountHeuristic};
use pebble_game::prbp::PrbpConfig;
use pebble_game::trace::PrbpTrace;
use pebble_sched::{
    beam_prbp, certify_prbp_with, compose_prbp, cone_affinity_edges, default_suite,
    greedy_prbp_edges, greedy_prbp_into, BeamConfig, BoundSet, ComposeConfig, FurthestInFuture,
    OrderKind, Scheduler,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Random layered DAGs within exact-solver reach.
fn small_layered() -> impl Strategy<Value = Dag> {
    (2usize..4, 2usize..4, 1usize..3, any::<u64>()).prop_map(|(layers, width, deg, seed)| {
        random_layered(RandomLayeredConfig {
            layers,
            width,
            max_in_degree: deg,
            seed,
        })
    })
}

/// Random in-trees (reduction trees): node `i ≥ 1` feeds a uniformly chosen
/// earlier node, so every non-root has out-degree exactly 1.
fn random_in_tree() -> impl Strategy<Value = Dag> {
    (4usize..17, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = DagBuilder::new();
        let nodes = b.add_nodes(n);
        for i in 1..n {
            let parent = rng.gen_range(0..i);
            // Edges run from higher ids to lower ids: acyclic by
            // construction, and node 0 is the unique root (sink).
            b.add_edge(nodes[i], nodes[parent]);
        }
        b.build().expect("random in-tree is a valid DAG")
    })
}

/// Random two-terminal series-parallel DAGs built by recursive composition.
fn random_sp() -> impl Strategy<Value = Dag> {
    (0usize..4, any::<u64>()).prop_map(|(depth, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut b = DagBuilder::new();
        let s = b.add_node();
        let t = b.add_node();
        grow_sp(&mut b, &mut rng, s, t, depth);
        b.build().expect("recursive SP construction is a valid DAG")
    })
}

/// Recursively realise an SP term between `s` and `t`.
fn grow_sp(b: &mut DagBuilder, rng: &mut ChaCha8Rng, s: NodeId, t: NodeId, depth: usize) {
    if depth == 0 || b.node_count() >= 14 {
        b.add_edge(s, t);
        return;
    }
    if rng.gen_bool(0.5) {
        // Series: s -> m -> t.
        let m = b.add_node();
        grow_sp(b, rng, s, m, depth - 1);
        grow_sp(b, rng, m, t, depth - 1);
    } else {
        // Parallel: two arms; at least one arm gets an internal node so no
        // duplicate edge can arise.
        let m = b.add_node();
        grow_sp(b, rng, s, m, depth - 1);
        grow_sp(b, rng, m, t, depth - 1);
        grow_sp(b, rng, s, t, depth.saturating_sub(1));
    }
}

/// The engines quantified over: every scheduler family, including compose.
fn engines() -> Vec<Scheduler> {
    let mut suite = vec![Scheduler::Baseline];
    suite.extend(default_suite());
    suite.push(Scheduler::Beam {
        width: 1,
        branch: 1,
    });
    suite.push(Scheduler::Beam {
        width: 8,
        branch: 4,
    });
    suite.push(Scheduler::Compose);
    suite
}

/// Distinct-state budget of the reference `optimum` search.
const MAX_STATES: usize = 5_000_000;

fn optimum(dag: &Dag, r: usize) -> usize {
    let engine = EngineConfig {
        node_budget: Some(MAX_STATES),
        ..EngineConfig::default()
    };
    solve_prbp(dag, PrbpConfig::new(r), &engine, &LoadCountHeuristic, None)
        .expect("differential instances are solver-sized")
        .cost
}

/// Compose configured with the same state headroom as the reference
/// `optimum` search, so the equality tests compare exact against exact.
fn exact_config() -> ComposeConfig {
    ComposeConfig {
        exact_max_states: MAX_STATES,
        ..ComposeConfig::default()
    }
}

/// Cache sizes at which the producers' counts are compared with replays.
const COUNT_RS: [usize; 5] = [2, 3, 4, 8, 16];

/// Assert that every producer's own I/O count on `dag` at cache size `r`
/// equals a from-scratch replay of its trace: greedy on both orders, the
/// cone edge schedule where it applies, the beam engine at widths 1 and 8
/// (the trace `beam_prbp` returns) and compose's `outcome.cost`.
fn producer_counts_equal_replays(dag: &Dag, r: usize) {
    let replay = |trace: &PrbpTrace| trace.validate(dag, PrbpConfig::new(r));
    for kind in [OrderKind::Natural, OrderKind::DfsPostorder] {
        let order = kind.build(dag);
        let (trace, cost) =
            greedy_prbp_into(dag, r, &order, &mut FurthestInFuture, PrbpTrace::new())
                .expect("r >= 2 schedules any topological order");
        assert_eq!(replay(&trace), Ok(cost), "greedy {kind:?}, r {r}");
    }
    if let Some(edges) = cone_affinity_edges(dag) {
        let (trace, cost) = greedy_prbp_edges(dag, r, &edges)
            .expect("the cone order is complete and source-complete");
        assert_eq!(replay(&trace), Ok(cost), "cone edges, r {r}");
    }
    for cfg in [BeamConfig::adaptive(), BeamConfig::default()] {
        let engine = EngineConfig {
            width: Some(cfg.width),
            branch: cfg.branch,
            ..EngineConfig::default()
        };
        let out = solve_prbp(dag, PrbpConfig::new(r), &engine, &LoadCountHeuristic, None)
            .expect("a beam schedules any DAG at r >= 2");
        assert_eq!(beam_prbp(dag, r, cfg).as_ref(), Some(&out.trace));
        assert_eq!(
            replay(&out.trace),
            Ok(out.cost),
            "beam:{}, r {r}",
            cfg.width
        );
    }
    // A small exact budget keeps the search short; the count is checked
    // whatever the components' schedules are.
    let config = ComposeConfig {
        exact_max_states: 20_000,
        ..ComposeConfig::default()
    };
    let outcome = compose_prbp(dag, r, &config).expect("r >= 2 schedules any DAG");
    assert_eq!(replay(&outcome.trace), Ok(outcome.cost), "compose, r {r}");
}

#[test]
fn producer_counts_equal_replays_on_structured_dags() {
    for dag in [
        fft(16).dag,
        matmul(2, 2, 2).dag,
        matmul(4, 4, 4).dag,
        attention_qk(4, 2).dag,
    ] {
        for r in COUNT_RS {
            producer_counts_equal_replays(&dag, r);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every producer's count equals its replay on random layered DAGs,
    /// from solver-sized ones to a few dozen nodes.
    #[test]
    fn producer_counts_equal_replays_on_random_dags(
        layers in 2usize..7,
        width in 2usize..8,
        deg in 1usize..4,
        seed in any::<u64>(),
    ) {
        let dag = random_layered(RandomLayeredConfig {
            layers,
            width,
            max_in_degree: deg,
            seed,
        });
        for r in COUNT_RS {
            producer_counts_equal_replays(&dag, r);
        }
    }

    /// Every engine's certified cost brackets the exact optimum from above,
    /// and every bound in its ladder brackets it from below.
    #[test]
    fn certified_costs_bracket_the_exact_optimum(dag in small_layered()) {
        for r in [2usize, 3] {
            let opt = optimum(&dag, r);
            for s in engines() {
                let Some(trace) = s.run_prbp(&dag, r) else { continue };
                let report = certify_prbp_with(&dag, r, &trace, s.to_string(), BoundSet::Full)
                    .expect("valid trace");
                prop_assert!(
                    report.cost >= opt,
                    "{s}: certified cost {} below optimum {opt}", report.cost
                );
                for bound in &report.bounds {
                    prop_assert!(
                        bound.value <= opt,
                        "{s}: bound {} = {} exceeds optimum {opt}", bound.name, bound.value
                    );
                }
            }
        }
    }

    /// Compose is exactly optimal on in-tree instances.
    #[test]
    fn compose_equals_the_optimum_on_trees(dag in random_in_tree()) {
        for r in [2usize, 3] {
            let opt = optimum(&dag, r);
            let outcome = compose_prbp(&dag, r, &exact_config())
                .expect("r >= 2 schedules any DAG in PRBP");
            prop_assert_eq!(outcome.cost, opt);
            prop_assert!(outcome.trace.validate(&dag, PrbpConfig::new(r)).is_ok());
        }
    }

    /// Compose is exactly optimal on series-parallel instances.
    #[test]
    fn compose_equals_the_optimum_on_series_parallel(dag in random_sp()) {
        // The recursive construction caps growth at 14 nodes before the
        // last expansions; skip the rare larger draw (out of exact reach).
        if dag.node_count() > 16 {
            continue;
        }
        for r in [2usize, 3] {
            let opt = optimum(&dag, r);
            let outcome = compose_prbp(&dag, r, &exact_config())
                .expect("r >= 2 schedules any DAG in PRBP");
            prop_assert_eq!(outcome.cost, opt);
        }
    }

    /// The composable bound is admissible for arbitrary node partitions —
    /// the adversarial check on the fake-source/fake-sink credit accounting —
    /// and never exceeds load-count.
    #[test]
    fn composed_bound_is_admissible_for_any_partition(
        dag in small_layered(),
        parts_seed in any::<u64>(),
        part_count in 1usize..4,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(parts_seed);
        let mut parts: Vec<Vec<NodeId>> = vec![Vec::new(); part_count];
        for v in dag.nodes() {
            // Some nodes stay unassigned (bucket 0 of count+1).
            let bucket = rng.gen_range(0..=part_count);
            if bucket > 0 {
                parts[bucket - 1].push(v);
            }
        }
        parts.retain(|p| !p.is_empty());
        for r in [2usize, 3] {
            let opt = optimum(&dag, r);
            let bound = composed_prbp_bound(&dag, PrbpConfig::new(r), &parts)
                .expect("standard one-shot configuration");
            prop_assert!(
                bound.total() <= opt,
                "composed bound {} exceeds optimum {opt} (parts {:?})",
                bound.total(), parts
            );
            // Without raised entries it is a count of sources and sinks,
            // each at most once: never above the whole DAG's load-count.
            let load_count = prbp_initial_bound(&dag, PrbpConfig::new(r), &LoadCountHeuristic);
            prop_assert!(
                bound.total() <= load_count,
                "composed bound {} exceeds load-count {load_count} (parts {:?})",
                bound.total(), parts
            );
        }
    }

    /// Scheduler display names round-trip through `FromStr`.
    #[test]
    fn scheduler_names_roundtrip(
        which in 0usize..4,
        a in 1usize..200,
        b in 1usize..10,
        order in 0usize..2,
    ) {
        let order = [OrderKind::Natural, OrderKind::DfsPostorder][order];
        let s = match which {
            0 => Scheduler::Baseline,
            1 => Scheduler::Greedy { order },
            2 => Scheduler::Beam { width: a, branch: b },
            _ => Scheduler::Compose,
        };
        let parsed: Scheduler = s.to_string().parse().expect("display form parses");
        match (parsed, s) {
            // `beam:<width>` omits the branch; parsing restores the default.
            (Scheduler::Beam { width: pw, .. }, Scheduler::Beam { width, .. }) => {
                prop_assert_eq!(pw, width);
            }
            (parsed, s) => prop_assert_eq!(parsed, s),
        }
    }

    /// Random names never panic the parser, and whatever parses must
    /// round-trip through a display form parsing to the same configuration.
    #[test]
    fn junk_scheduler_names_are_rejected(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let alphabet: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789:".chars().collect();
        let len = rng.gen_range(1usize..16);
        let name: String = (0..len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect();
        if let Ok(parsed) = name.parse::<Scheduler>() {
            let redisplayed: Scheduler = parsed.to_string().parse().expect("canonical form");
            match (redisplayed, parsed) {
                (Scheduler::Beam { width: a, .. }, Scheduler::Beam { width: b, .. }) => {
                    prop_assert_eq!(a, b);
                }
                (redisplayed, parsed) => prop_assert_eq!(redisplayed, parsed),
            }
        }
    }
}

/// Fixed-form rejections that must never start parsing (schema stability).
#[test]
fn known_bad_scheduler_names_stay_rejected() {
    for bad in [
        "",
        "compose:",
        "compose:x",
        "compose:20",
        "compose:32",
        "compose:20:7",
        "suite",
        "greedy:belady",
        "greedy:belady:dfs:extra",
        "beam:0",
        "local:",
        "local:10",
        "annealing:3",
        "Compose",
    ] {
        assert!(bad.parse::<Scheduler>().is_err(), "`{bad}` must not parse");
    }
    // Compose has one configuration, and its display form is the bare name.
    assert_eq!(Scheduler::Compose.to_string(), "compose");
    assert_eq!("compose".parse::<Scheduler>(), Ok(Scheduler::Compose));
}
