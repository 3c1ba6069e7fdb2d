//! Pins the admissibility contract of every shipped `LowerBound` and of the
//! certification ladder's Section 6 entries.
//!
//! * Evaluated on the *initial* state of the Figure 1, zipper, matvec and
//!   k-ary-tree instances, no heuristic and no ladder entry may exceed the
//!   exact optimum. (Admissibility must hold at *every* state; the initial
//!   state is where the bounds are largest relative to the remaining cost,
//!   and `tests/solver_equivalence.rs` covers the rest indirectly — an
//!   inadmissible interior state would change an optimum.)
//! * The ladder's `s-dominator` and `s-edge` entries are the load-count
//!   value by a closed-form argument (`pebble_sched::BoundSet`). A
//!   max-flow reference recomputes the Section 6 phase bounds of Theorems
//!   6.5/6.7 at the initial state, and a property test checks that they
//!   never exceed load-count, so the closed form equals them.

use pebble_bounds::terminal::edge_terminal_set;
use pebble_dag::dominators::{min_dominator_size, start_set};
use pebble_dag::generators::{
    attention_full, chained_gadgets, fft, fig1_full, kary_tree, matmul, matvec, pebble_collection,
    pyramid, random_layered, zipper, RandomLayeredConfig,
};
use pebble_dag::{BitSet, Dag};
use pebble_game::engine::{solve_prbp, solve_rbp, EngineConfig};
use pebble_game::exact::{self, LoadCountHeuristic, LowerBound, ZeroHeuristic};
use pebble_game::prbp::PrbpConfig;
use pebble_game::rbp::RbpConfig;
use pebble_game::Model;
use pebble_sched::{prbp_bound_ladder, rbp_bound_ladder, BoundSet};
use proptest::prelude::*;

fn heuristics() -> [&'static dyn LowerBound; 2] {
    [&ZeroHeuristic, &LoadCountHeuristic]
}

/// `r·(⌈need/2r⌉ − 1)`: the cost forced once at least `⌈need/2r⌉` phases of
/// `r` I/Os each are.
fn phase_cost(r: usize, need: usize) -> usize {
    let phases = need.div_ceil(2 * r).max(1);
    r * (phases - 1)
}

/// The Section 6 phase terms at the initial state, `(s-dominator, s-edge)`,
/// by max-flow. RBP: the minimum dominator of the non-source nodes (its
/// edge-terminal term reduces to the sinks, which load-count counts). PRBP:
/// the minimum dominator of the start nodes of all edges, and for `s-edge`
/// also the edge-terminal set of all edges.
fn reference_phase_terms(dag: &Dag, r: usize, model: Model) -> (usize, usize) {
    match model {
        Model::Rbp => {
            let mut remaining = BitSet::new(dag.node_count());
            for v in dag.nodes().filter(|&v| !dag.is_source(v)) {
                remaining.insert(v.index());
            }
            let dominator = phase_cost(r, min_dominator_size(dag, &remaining));
            (dominator, dominator)
        }
        Model::Prbp => {
            let mut all = BitSet::new(dag.edge_count());
            for e in dag.edges() {
                all.insert(e.index());
            }
            let d = min_dominator_size(dag, &start_set(dag, &all));
            let t = edge_terminal_set(dag, &all).count();
            (phase_cost(r, d), phase_cost(r, d.max(t)))
        }
    }
}

/// The full ladder of `model` at cache `r`, plus its reference: the
/// load-count value raised to each Section 6 phase term.
fn ladder_and_reference(dag: &Dag, r: usize, model: Model) -> (Vec<usize>, Vec<usize>) {
    let (ladder, best) = match model {
        Model::Rbp => rbp_bound_ladder(dag, r, BoundSet::Full),
        Model::Prbp => prbp_bound_ladder(dag, r, BoundSet::Full),
    };
    let values: Vec<usize> = ladder.iter().map(|b| b.value).collect();
    assert_eq!(best, values.iter().copied().max().unwrap());
    let load = values[0];
    let (dominator, edge) = reference_phase_terms(dag, r, model);
    (values, vec![load, load.max(dominator), load.max(edge)])
}

fn assert_admissible(name: &str, dag: &Dag, r_rbp: Option<usize>, r_prbp: usize) {
    let engine = EngineConfig::default();
    if let Some(r) = r_rbp {
        let opt = solve_rbp(dag, RbpConfig::new(r), &engine, &ZeroHeuristic, None, None)
            .unwrap_or_else(|e| panic!("{name}: RBP unsolvable with r={r}: {e}"))
            .cost;
        for h in heuristics() {
            let bound = exact::rbp_initial_bound(dag, RbpConfig::new(r), h);
            assert!(
                bound <= opt,
                "{name}: {} RBP bound {bound} exceeds OPT {opt} (r={r})",
                h.name()
            );
        }
        let (_, reference) = ladder_and_reference(dag, r, Model::Rbp);
        assert!(
            reference.iter().all(|&b| b <= opt),
            "{name}: RBP Section 6 bounds {reference:?} exceed OPT {opt} (r={r})"
        );
    }
    let config = PrbpConfig::new(r_prbp);
    let opt = solve_prbp(dag, config, &engine, &ZeroHeuristic, None, None)
        .unwrap_or_else(|e| panic!("{name}: PRBP unsolvable with r={r_prbp}: {e}"))
        .cost;
    for h in heuristics() {
        let bound = exact::prbp_initial_bound(dag, config, h);
        assert!(
            bound <= opt,
            "{name}: {} PRBP bound {bound} exceeds OPT {opt} (r={r_prbp})",
            h.name()
        );
    }
    let (_, reference) = ladder_and_reference(dag, r_prbp, Model::Prbp);
    assert!(
        reference.iter().all(|&b| b <= opt),
        "{name}: PRBP Section 6 bounds {reference:?} exceed OPT {opt} (r={r_prbp})"
    );
}

#[test]
fn admissible_on_fig1() {
    let f = fig1_full();
    assert_admissible("fig1", &f.dag, Some(4), 4);
}

#[test]
fn admissible_on_zipper() {
    let z = zipper(2, 3);
    assert_admissible("zipper(2,3)", &z.dag, Some(4), 4);
    let z = zipper(3, 4);
    assert_admissible("zipper(3,4)", &z.dag, None, 5);
}

#[test]
fn admissible_on_matvec() {
    let mv = matvec(2);
    assert_admissible("matvec(2)", &mv.dag, Some(mv.dag.max_in_degree() + 1), 5);
}

#[test]
fn admissible_on_kary_trees() {
    let t = kary_tree(2, 2);
    assert_admissible("kary(2,2)", &t.dag, Some(3), 3);
    let t = kary_tree(3, 2);
    assert_admissible("kary(3,2)", &t.dag, Some(4), 3);
}

#[test]
fn nontrivial_bounds_actually_fire() {
    // The admissibility tests above would pass for a heuristic that always
    // returns 0; pin that load-count produces a positive bound where loads
    // are provably required.
    let mv = matvec(2);
    let bound = exact::prbp_initial_bound(&mv.dag, PrbpConfig::new(5), &LoadCountHeuristic);
    assert!(bound > 0, "load-count returned 0 on matvec(2)");
}

#[test]
fn phase_cost_rounds_up_phases() {
    // need = 0 or need <= 2r: a single phase, no forced I/O.
    assert_eq!(phase_cost(4, 0), 0);
    assert_eq!(phase_cost(4, 8), 0);
    // 2r < need <= 4r: two phases, r forced I/Os.
    assert_eq!(phase_cost(4, 9), 4);
    assert_eq!(phase_cost(4, 16), 4);
    assert_eq!(phase_cost(4, 17), 8);
}

#[test]
fn section6_entries_equal_load_count_where_the_phase_term_is_nonzero() {
    // fft-256 at r = 4: 256 sources against 2r = 8, so the phase terms are
    // far from zero; the closed form must still be exact.
    let dag = fft(256).dag;
    for model in [Model::Rbp, Model::Prbp] {
        let (dominator, edge) = reference_phase_terms(&dag, 4, model);
        assert!(dominator > 0 && edge > 0, "{model:?}: phase terms vanished");
        let (ladder, reference) = ladder_and_reference(&dag, 4, model);
        assert_eq!(ladder, reference, "{model:?}");
    }
}

/// Generator families at sizes where the max-flow reference is cheap.
fn family(index: usize) -> Dag {
    match index {
        0 => fig1_full().dag,
        1 => zipper(3, 4).dag,
        2 => matvec(4).dag,
        3 => kary_tree(3, 3).dag,
        4 => pyramid(6).dag,
        5 => chained_gadgets(3).dag,
        6 => pebble_collection(3, 3).dag,
        7 => fft(32).dag,
        8 => matmul(3, 3, 3).dag,
        _ => attention_full(4, 2).dag,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn section6_entries_equal_load_count_on_random_dags(
        seed in any::<u64>(),
        layers in 2usize..7,
        width in 1usize..9,
        max_in_degree in 1usize..4,
        r in 2usize..65,
    ) {
        let dag = random_layered(RandomLayeredConfig { layers, width, max_in_degree, seed });
        for model in [Model::Rbp, Model::Prbp] {
            let (ladder, reference) = ladder_and_reference(&dag, r, model);
            prop_assert_eq!(ladder, reference, "{:?} at r={}", model, r);
        }
    }

    #[test]
    fn section6_entries_equal_load_count_on_generator_families(
        index in 0usize..10,
        r in 2usize..65,
    ) {
        let dag = family(index);
        for model in [Model::Rbp, Model::Prbp] {
            let (ladder, reference) = ladder_and_reference(&dag, r, model);
            prop_assert_eq!(ladder, reference, "family {} {:?} at r={}", index, model, r);
        }
    }
}
