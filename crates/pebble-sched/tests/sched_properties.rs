//! Property-based coverage for the heuristic schedulers.
//!
//! Over randomly generated layered DAGs, every scheduler in the portfolio
//! must (a) emit a trace that replays through the game simulator, (b) cost at
//! least every admissible lower bound, and (c) — as a portfolio — never lose
//! to the generic `strategies::topological` baseline. On instances small
//! enough for the exact A* solvers, the portfolio stays within a fixed
//! factor of the true optimum.
//!
//! The portfolio sweep stops at the load-count bound and compose schedules
//! each distinct component once; both shortcuts are checked here against
//! references that do neither. The same reference, run with the portfolio
//! from before the beams were confined to components of at most 512 nodes,
//! pins that the confinement moved no compose cost.

use pebble_dag::generators::{fft, matmul, random_layered, RandomLayeredConfig};
use pebble_dag::Dag;
use pebble_game::engine::{self, EngineConfig};
use pebble_game::exact::LoadCountHeuristic;
use pebble_game::prbp::PrbpConfig;
use pebble_game::rbp::RbpConfig;
use pebble_game::strategies::topological;
use pebble_game::trace::PrbpTrace;
use pebble_sched::{
    best_prbp, certify_prbp_with, certify_rbp_with, compose_certified, default_suite, BoundSet,
    ComposeConfig, OrderKind, Scheduler,
};
use proptest::prelude::*;
use std::time::Duration;

fn dag_strategy() -> impl Strategy<Value = (Dag, usize)> {
    (2usize..5, 2usize..6, 1usize..4, any::<u64>()).prop_map(|(layers, width, deg, seed)| {
        let dag = random_layered(RandomLayeredConfig {
            layers,
            width,
            max_in_degree: deg,
            seed,
        });
        let r = dag.max_in_degree() + 2;
        (dag, r)
    })
}

/// The suite the properties quantify over: the members compose runs on a
/// small component (the default portfolio and both beams).
fn full_suite() -> Vec<Scheduler> {
    let mut suite = default_suite();
    suite.push(Scheduler::Beam {
        width: 1,
        branch: 1,
    });
    suite.push(Scheduler::Beam {
        width: 8,
        branch: 4,
    });
    suite
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_prbp_scheduler_validates_and_respects_all_bounds((dag, r) in dag_strategy()) {
        for s in full_suite() {
            let Some(trace) = s.run_prbp(&dag, r) else { continue };
            // `certify_prbp_with` replays the trace through the simulator and
            // evaluates every admissible bound; an invalid trace errors here.
            let report = certify_prbp_with(&dag, r, &trace, s.to_string(), BoundSet::Full)
                .expect("valid trace");
            for bound in &report.bounds {
                prop_assert!(
                    report.cost >= bound.value,
                    "{}: cost {} below admissible bound {} = {}",
                    s, report.cost, bound.name, bound.value
                );
            }
            prop_assert!(report.cost >= dag.trivial_cost());
        }
    }

    #[test]
    fn every_rbp_scheduler_validates_and_respects_all_bounds((dag, r) in dag_strategy()) {
        for s in full_suite() {
            let Some(trace) = s.run_rbp(&dag, r) else { continue };
            let report = certify_rbp_with(&dag, r, &trace, s.to_string(), BoundSet::Full)
                .expect("valid trace");
            for bound in &report.bounds {
                prop_assert!(report.cost >= bound.value);
            }
        }
    }

    #[test]
    fn portfolio_returns_the_first_minimum_of_a_full_sweep((dag, r) in dag_strategy()) {
        let mut full: Option<(Scheduler, PrbpTrace, usize)> = None;
        for s in full_suite() {
            let Some(trace) = s.run_prbp(&dag, r) else { continue };
            let cost = trace.validate(&dag, PrbpConfig::new(r)).expect("valid trace");
            if full.as_ref().map_or(true, |&(_, _, c)| cost < c) {
                full = Some((s, trace, cost));
            }
        }
        prop_assert_eq!(best_prbp(&dag, r, &full_suite()), full);
    }

    #[test]
    fn portfolio_never_loses_to_the_topological_baseline((dag, r) in dag_strategy()) {
        let (_, _, best) = best_prbp(&dag, r, &full_suite()).expect("r >= 2");
        let base = topological::prbp_topological(&dag, r)
            .expect("r >= 2")
            .validate(&dag, PrbpConfig::new(r))
            .expect("valid baseline");
        prop_assert!(best <= base, "portfolio best {best} worse than baseline {base}");

        let rbp_best = full_suite()
            .into_iter()
            .filter_map(|s| s.run_rbp(&dag, r))
            .map(|t| t.validate(&dag, RbpConfig::new(r)).expect("valid trace"))
            .min()
            .expect("greedy RBP applies");
        let rbp_base = topological::rbp_topological(&dag, r)
            .expect("r >= Δin + 1")
            .validate(&dag, RbpConfig::new(r))
            .expect("valid baseline");
        prop_assert!(rbp_best <= rbp_base);
    }
}

/// On exact-solver-sized instances the portfolio stays within a fixed factor
/// of the proven optimum. Fixed seeds: this pins concrete quality, not a
/// theorem, and must not flake.
#[test]
fn portfolio_is_near_optimal_where_the_exact_solver_can_check() {
    const FACTOR: usize = 2;
    for seed in [1u64, 7, 23, 99] {
        let dag = random_layered(RandomLayeredConfig {
            layers: 3,
            width: 3,
            max_in_degree: 2,
            seed,
        });
        let r = 3;
        let engine = EngineConfig::default();
        let config = PrbpConfig::new(r);
        let opt = engine::solve_prbp(&dag, config, &engine, &LoadCountHeuristic, None)
            .expect("solvable")
            .cost;
        let (s, _, best) = best_prbp(&dag, r, &full_suite()).expect("schedulable");
        assert!(
            best <= FACTOR * opt,
            "seed {seed}: best {best} ({s}) exceeds {FACTOR}x optimum {opt}"
        );
        assert!(best >= opt);
    }
}

/// The certified compose solve under a deadline that never fires: the
/// trace and the serialised report (cost and every bound).
fn certified_compose(dag: &Dag, r: usize, deadline: Option<Duration>) -> (PrbpTrace, String) {
    let config = ComposeConfig {
        deadline,
        ..ComposeConfig::default()
    };
    let certified = compose_certified(dag, r, &config, BoundSet::auto_for(dag)).expect("r >= 2");
    let report = serde_json::to_string(&certified.report).expect("report serialises");
    (certified.outcome.trace, report)
}

const NEVER: Option<Duration> = Some(Duration::from_secs(60));

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn a_deadline_that_never_fires_changes_no_answer((dag, r) in dag_strategy()) {
        prop_assert_eq!(certified_compose(&dag, r, NEVER), certified_compose(&dag, r, None));
    }
}

#[test]
fn a_deadline_that_never_fires_changes_no_structured_answer() {
    for (dag, r) in [(fft(64).dag, 16), (matmul(4, 4, 4).dag, 12)] {
        assert_eq!(
            certified_compose(&dag, r, NEVER),
            certified_compose(&dag, r, None)
        );
    }
}

/// The greedy schedulers handle every compute order at the PRBP capacity
/// floor (`r = 2`), where eviction pressure is maximal.
#[test]
fn greedy_grid_is_exhaustive_at_minimum_cache() {
    let dag = random_layered(RandomLayeredConfig {
        layers: 4,
        width: 4,
        max_in_degree: 3,
        seed: 5,
    });
    for order in [OrderKind::Natural, OrderKind::DfsPostorder] {
        let s = Scheduler::Greedy { order };
        let trace = s.run_prbp(&dag, 2).expect("r = 2 suffices for PRBP");
        assert!(trace.validate(&dag, PrbpConfig::new(2)).is_ok(), "{s}");
    }
}

/// Compose as it runs without its two shortcuts: every extracted component
/// is scheduled on its own (no reuse of identical components) by a portfolio
/// that runs every member (no stop at the bound) and always tries the edge
/// executor, then the candidates are stitched and compared as
/// `compose_prbp` does.
#[cfg(not(debug_assertions))]
mod compose_reference {
    use super::*;
    use pebble_bounds::composed_prbp_bound;
    use pebble_dag::decompose::{decompose, extract_component, ExtractedComponent, Strategy};
    use pebble_dag::generators::attention_full;
    use pebble_dag::{DagBuilder, NodeId};
    use pebble_game::exact;
    use pebble_game::moves::PrbpMove;
    use pebble_game::PrbpBuilder;
    use pebble_sched::compose::DEFAULT_EXACT_BUDGET;
    use pebble_sched::{
        compose_prbp, cone_affinity_edges, greedy_prbp_edges, ComposeConfig, FurthestInFuture,
    };

    /// The members compose runs on a component: the default portfolio,
    /// plus `beam:1` and then `beam:8` on components of at most 512 nodes.
    fn component_suite(dag: &Dag) -> Vec<Scheduler> {
        let mut suite = default_suite();
        if dag.node_count() <= 512 {
            suite.extend([BEAM_1, BEAM_8]);
        }
        suite
    }

    const BEAM_1: Scheduler = Scheduler::Beam {
        width: 1,
        branch: 1,
    };
    const BEAM_8: Scheduler = Scheduler::Beam {
        width: 8,
        branch: 4,
    };

    fn component(
        dag: &Dag,
        r: usize,
        suite_of: fn(&Dag) -> Vec<Scheduler>,
    ) -> Option<(PrbpTrace, Option<usize>)> {
        let config = PrbpConfig::new(r);
        let mut candidates: Vec<PrbpTrace> = suite_of(dag)
            .iter()
            .filter_map(|s| s.run_prbp(dag, r))
            .collect();
        if let Some(edges) = cone_affinity_edges(dag) {
            candidates.extend(greedy_prbp_edges(dag, r, &edges, &mut FurthestInFuture));
        }
        let mut best: Option<(PrbpTrace, usize)> = None;
        for trace in candidates {
            let cost = trace.validate(dag, config).expect("valid trace");
            if best.as_ref().map_or(true, |&(_, c)| cost < c) {
                best = Some((trace, cost));
            }
        }
        let (trace, cost) = best?;
        if cost == exact::prbp_initial_bound(dag, config, &LoadCountHeuristic) {
            return Some((trace, Some(cost)));
        }
        if dag.node_count() <= DEFAULT_EXACT_BUDGET {
            let engine_cfg = EngineConfig {
                node_budget: Some(ComposeConfig::default().exact_max_states),
                ..EngineConfig::default()
            };
            if let Ok(out) =
                engine::solve_prbp(dag, config, &engine_cfg, &LoadCountHeuristic, Some(&trace))
            {
                return Some((out.trace, out.proven_optimal.then_some(out.cost)));
            }
        }
        Some((trace, None))
    }

    fn stitch(
        dag: &Dag,
        r: usize,
        parts: &[(ExtractedComponent, PrbpTrace)],
    ) -> (PrbpTrace, usize) {
        let mut builder = PrbpBuilder::new(dag, PrbpConfig::new(r));
        for (sub, trace) in parts {
            let map = |l: NodeId| sub.to_global[l.index()];
            for &mv in &trace.moves {
                match mv {
                    PrbpMove::Load(v) => builder.push(PrbpMove::Load(map(v))).unwrap(),
                    PrbpMove::Save(v) => builder.push(PrbpMove::Save(map(v))).unwrap(),
                    PrbpMove::PartialCompute { from, to } => builder
                        .push(PrbpMove::PartialCompute {
                            from: map(from),
                            to: map(to),
                        })
                        .unwrap(),
                    PrbpMove::Delete(v) => {
                        builder.evict(map(v)).unwrap();
                    }
                    PrbpMove::Clear(_) => unreachable!(),
                }
            }
            for &g in &sub.to_global {
                if builder.game().pebble_state(g).has_red() {
                    builder.evict(g).unwrap();
                }
            }
        }
        let (trace, game) = builder.finish();
        (trace, game.io_cost())
    }

    type Reference = (usize, PrbpTrace, Strategy, usize, usize, Option<usize>);

    fn reference(dag: &Dag, r: usize, suite_of: fn(&Dag) -> Vec<Scheduler>) -> Reference {
        let budget = DEFAULT_EXACT_BUDGET;
        let mut caps = vec![(4 * r).max(2 * budget), (16 * r).max(4 * budget)];
        caps.dedup();
        let mut candidates = vec![decompose(dag, Strategy::Whole, None).unwrap()];
        candidates.extend(decompose(dag, Strategy::Wcc, None).filter(|d| d.components.len() > 1));
        for &cap in &caps {
            let cones = Strategy::SinkCones {
                max_nodes: cap,
                max_sinks: (3 * r / 4).max(1),
            };
            candidates.extend(decompose(dag, cones, None).filter(|d| d.components.len() > 1));
            let bands = Strategy::LevelBands { max_nodes: cap };
            candidates.extend(decompose(dag, bands, None).filter(|d| d.components.len() > 1));
        }
        let mut best: Option<Reference> = None;
        let mut composed: Option<usize> = None;
        for d in &candidates {
            let mut parts = Vec::new();
            let mut exact_costs = Vec::new();
            for c in &d.components {
                let sub = extract_component(dag, c);
                let Some((trace, exact)) = component(&sub.dag, r, suite_of) else {
                    break;
                };
                parts.push((sub, trace));
                exact_costs.push(exact);
            }
            if parts.len() < d.components.len() {
                continue;
            }
            let (trace, cost) = stitch(dag, r, &parts);
            let bound = if d.components.len() > 1 {
                let partition: Vec<Vec<NodeId>> =
                    d.components.iter().map(|c| c.nodes.clone()).collect();
                composed_prbp_bound(dag, PrbpConfig::new(r), &partition).map(|mut b| {
                    for (i, c) in d.components.iter().enumerate() {
                        if c.inputs.is_empty() && c.outputs.is_empty() {
                            if let Some(e) = exact_costs[i] {
                                b.per_component[i] = b.per_component[i].max(e);
                            }
                        }
                    }
                    b.total()
                })
            } else {
                exact_costs[0]
            };
            if let Some(total) = bound {
                composed = Some(composed.map_or(total, |b| b.max(total)));
            }
            if best.as_ref().map_or(true, |b| cost < b.0) {
                let exact = exact_costs.iter().filter(|e| e.is_some()).count();
                best = Some((cost, trace, d.strategy, d.components.len(), exact, None));
            }
        }
        let mut best = best.expect("the whole DAG is always a candidate");
        best.5 = composed;
        best
    }

    #[test]
    fn compose_equals_the_reference_without_reuse_or_stop() {
        let random = random_layered(RandomLayeredConfig {
            layers: 10,
            width: 12,
            max_in_degree: 3,
            seed: 11,
        });
        // Two 7-node trees of different shapes: equal node and edge counts,
        // different sub-DAGs, so neither may reuse the other's schedule.
        let mut b = DagBuilder::new();
        let n = b.add_nodes(14);
        for (u, v) in [(0, 4), (1, 4), (2, 5), (3, 5), (4, 6), (5, 6)] {
            b.add_edge(n[u], n[v]);
        }
        for (u, v) in [(7, 11), (8, 11), (11, 12), (9, 12), (12, 13), (10, 13)] {
            b.add_edge(n[u], n[v]);
        }
        let forest = b.build().unwrap();
        for (name, dag, r) in [
            ("fft-64", fft(64).dag, 8),
            ("matmul-4", matmul(4, 4, 4).dag, 12),
            ("random-10x12", random, 6),
            ("forest", forest, 3),
        ] {
            let got = compose_prbp(&dag, r, &ComposeConfig::default()).unwrap();
            let want = reference(&dag, r, component_suite);
            assert_eq!(
                (
                    got.cost,
                    &got.trace,
                    got.strategy,
                    got.components,
                    got.exact_components,
                    got.composed_bound
                ),
                (want.0, &want.1, want.2, want.3, want.4, want.5),
                "{name} at r={r}"
            );
        }
    }

    /// The portfolio before the beams were confined to small components:
    /// `baseline`, the default greedy members, the adaptive `beam:1` on
    /// every component, and `beam:8` on components of at most 512 nodes.
    fn old_component_suite(dag: &Dag) -> Vec<Scheduler> {
        let mut suite = vec![Scheduler::Baseline];
        suite.extend(default_suite());
        suite.push(BEAM_1);
        if dag.node_count() <= 512 {
            suite.push(BEAM_8);
        }
        suite
    }

    fn without_beam_1(dag: &Dag) -> Vec<Scheduler> {
        let mut suite = component_suite(dag);
        suite.retain(|&s| s != BEAM_1);
        suite
    }

    #[test]
    fn confining_the_beams_to_small_components_changes_no_cost() {
        // A 40-node DAG on which `beam:1` is the only cheapest member of
        // the whole-DAG portfolio, and without it compose costs more.
        let small = random_layered(RandomLayeredConfig {
            layers: 4,
            width: 10,
            max_in_degree: 2,
            seed: 37,
        });
        let costs: Vec<usize> = old_component_suite(&small)
            .iter()
            .map(|s| {
                let trace = s.run_prbp(&small, 8).expect("r = 8 suffices");
                trace.validate(&small, PrbpConfig::new(8)).expect("valid")
            })
            .collect();
        let (beam, others): (Vec<_>, Vec<_>) = old_component_suite(&small)
            .into_iter()
            .zip(costs)
            .partition(|&(s, _)| s == BEAM_1);
        assert!(others.iter().all(|&(_, c)| c > beam[0].1), "{others:?}");
        let got = compose_prbp(&small, 8, &ComposeConfig::default()).unwrap();
        assert!(reference(&small, 8, without_beam_1).0 > got.cost);

        let random = random_layered(RandomLayeredConfig {
            layers: 40,
            width: 30,
            max_in_degree: 3,
            seed: 5,
        });
        for (name, dag, r) in [
            ("fft-128", fft(128).dag, 8),
            ("matmul-8", matmul(8, 8, 8).dag, 24),
            ("attention-16x4", attention_full(16, 4).dag, 68),
            ("random-40x30", random, 8),
            ("random-4x10", small, 8),
        ] {
            let got = compose_prbp(&dag, r, &ComposeConfig::default()).unwrap();
            let old = reference(&dag, r, old_component_suite);
            assert_eq!(
                (got.cost, got.composed_bound),
                (old.0, old.5),
                "{name} at r={r}"
            );
        }
    }
}
