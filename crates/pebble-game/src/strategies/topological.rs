//! Generic pebbling strategies that work on arbitrary DAGs.
//!
//! * [`rbp_topological`] pebbles any DAG in RBP provided `r ≥ Δ_in + 1`,
//!   processing the nodes in topological order and evicting via a
//!   save-then-delete policy.
//! * [`prbp_topological`] pebbles any DAG in PRBP with as few as `r = 2` red
//!   pebbles (the observation at the end of Section 3), aggregating the
//!   in-edges of each node one at a time.
//!
//! Neither strategy is optimal in general; they are baselines, fallbacks and
//! the "any valid pebbling" witnesses used by the partition tooling.

use crate::moves::{PrbpMove, RbpMove};
use crate::trace::{PrbpTrace, RbpTrace};
use pebble_dag::{topo, Dag, NodeId};
use std::collections::BTreeSet;

/// A generic RBP strategy processing nodes in topological order. Returns
/// `None` if `r < Δ_in + 1` (no valid RBP pebbling exists).
pub fn rbp_topological(dag: &Dag, r: usize) -> Option<RbpTrace> {
    if r < dag.max_in_degree() + 1 {
        return None;
    }
    let n = dag.node_count();
    // The red nodes in id order: eviction scans these (at most r) instead of
    // every node of the DAG.
    let mut red: BTreeSet<NodeId> = BTreeSet::new();
    let mut blue = vec![false; n];
    let mut computed = vec![false; n];
    for v in dag.nodes() {
        if dag.is_source(v) {
            blue[v.index()] = true;
        }
    }
    let mut trace = RbpTrace::new();
    let order = topo::topological_order(dag);

    for &v in &order {
        if dag.is_source(v) {
            continue;
        }
        let needed: Vec<NodeId> = dag.predecessors(v).collect();
        let missing = needed.iter().filter(|u| !red.contains(u)).count();

        // Free up space: first drop red pebbles that are no longer needed
        // (all successors computed), then save-and-drop arbitrary other
        // pebbles until the inputs and the output fit.
        let mut evict_candidates: Vec<NodeId> = red
            .iter()
            .copied()
            .filter(|&w| !needed.contains(&w) && w != v)
            .collect();
        // Dead pebbles first (free), then pebbles that already have a blue copy.
        evict_candidates.sort_by_key(|&w| {
            let dead = dag.successors(w).all(|s| computed[s.index()]);
            let has_blue = blue[w.index()];
            (!dead as u8, !has_blue as u8)
        });
        let mut ei = 0;
        while red.len() + missing + 1 > r {
            let w = evict_candidates[ei];
            ei += 1;
            let dead = dag.successors(w).all(|s| computed[s.index()]);
            if !dead && !blue[w.index()] {
                trace.push(RbpMove::Save(w));
                blue[w.index()] = true;
            }
            trace.push(RbpMove::Delete(w));
            red.remove(&w);
        }

        for &u in &needed {
            if red.insert(u) {
                debug_assert!(blue[u.index()], "value of {u:?} lost");
                trace.push(RbpMove::Load(u));
            }
        }
        trace.push(RbpMove::Compute(v));
        red.insert(v);
        computed[v.index()] = true;
        if dag.is_sink(v) {
            trace.push(RbpMove::Save(v));
            blue[v.index()] = true;
            trace.push(RbpMove::Delete(v));
            red.remove(&v);
        }
    }
    Some(trace)
}

/// A generic PRBP strategy processing nodes in topological order and
/// aggregating in-edges one at a time; works for any `r ≥ 2`. Returns `None`
/// for `r < 2`.
pub fn prbp_topological(dag: &Dag, r: usize) -> Option<PrbpTrace> {
    if r < 2 {
        return None;
    }
    let n = dag.node_count();
    // Node states mirrored from the simulator: 0 = empty, 1 = blue,
    // 2 = blue + light red, 3 = dark red.
    const EMPTY: u8 = 0;
    const BLUE: u8 = 1;
    const LIGHT: u8 = 2;
    const DARK: u8 = 3;
    let mut state = vec![EMPTY; n];
    let mut marked_out = vec![0usize; n];
    for v in dag.nodes() {
        if dag.is_source(v) {
            state[v.index()] = BLUE;
        }
    }
    // The red (light or dark) nodes in id order: eviction scans these (at
    // most r) instead of every node of the DAG.
    let mut red: BTreeSet<NodeId> = BTreeSet::new();
    let mut trace = PrbpTrace::new();
    let order = topo::topological_order(dag);

    // Evict one red pebble that is neither `keep_a` nor `keep_b`.
    let evict_one = |state: &mut Vec<u8>,
                     marked_out: &Vec<usize>,
                     red: &mut BTreeSet<NodeId>,
                     trace: &mut PrbpTrace,
                     keep_a: NodeId,
                     keep_b: NodeId| {
        // Prefer: dark pebbles whose out-edges are all marked (free delete),
        // then light reds (free delete, blue copy remains), then dark pebbles
        // that must be saved first; the lowest id within a tier.
        let mut best: Option<(u8, NodeId)> = None;
        for &w in red.iter() {
            if w == keep_a || w == keep_b {
                continue;
            }
            let priority = match state[w.index()] {
                DARK if marked_out[w.index()] == dag.out_degree(w) && !dag.is_sink(w) => 0,
                LIGHT => 1,
                DARK => 2,
                _ => continue,
            };
            if best.map_or(true, |(p, _)| priority < p) {
                best = Some((priority, w));
                if priority == 0 {
                    break;
                }
            }
        }
        let (priority, w) = best.expect("r >= 2 guarantees an evictable pebble");
        match priority {
            0 => {
                trace.push(PrbpMove::Delete(w));
                state[w.index()] = EMPTY;
            }
            1 => {
                trace.push(PrbpMove::Delete(w));
                state[w.index()] = BLUE;
            }
            _ => {
                trace.push(PrbpMove::Save(w));
                trace.push(PrbpMove::Delete(w));
                state[w.index()] = BLUE;
            }
        }
        red.remove(&w);
    };

    for &v in &order {
        if dag.is_source(v) {
            continue;
        }
        for &(u, _) in dag.in_edges(v) {
            // Make room for u (if it must be loaded) and for v's accumulator.
            loop {
                let mut required = 0;
                if !matches!(state[u.index()], LIGHT | DARK) {
                    required += 1;
                }
                if !matches!(state[v.index()], LIGHT | DARK) {
                    required += 1;
                }
                if red.len() + required <= r {
                    break;
                }
                evict_one(&mut state, &marked_out, &mut red, &mut trace, u, v);
            }
            if !matches!(state[u.index()], LIGHT | DARK) {
                debug_assert_eq!(state[u.index()], BLUE, "value of {u:?} lost");
                trace.push(PrbpMove::Load(u));
                state[u.index()] = LIGHT;
                red.insert(u);
            }
            red.insert(v);
            trace.push(PrbpMove::PartialCompute { from: u, to: v });
            state[v.index()] = DARK;
            marked_out[u.index()] += 1;
        }
        if dag.is_sink(v) {
            trace.push(PrbpMove::Save(v));
            state[v.index()] = LIGHT;
            trace.push(PrbpMove::Delete(v));
            state[v.index()] = BLUE;
            red.remove(&v);
        }
    }
    Some(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prbp::PrbpConfig;
    use crate::rbp::RbpConfig;
    use pebble_dag::generators::{
        binary_tree, fft, fig1_full, matvec, pebble_collection, random_layered, zipper,
        RandomLayeredConfig,
    };

    fn check_rbp(dag: &Dag, r: usize) -> usize {
        let trace = rbp_topological(dag, r).expect("strategy exists");
        trace
            .validate(dag, RbpConfig::new(r))
            .expect("valid RBP trace")
    }

    fn check_prbp(dag: &Dag, r: usize) -> usize {
        let trace = prbp_topological(dag, r).expect("strategy exists");
        trace
            .validate(dag, PrbpConfig::new(r))
            .expect("valid PRBP trace")
    }

    #[test]
    fn rbp_topological_valid_on_structured_dags() {
        let fig1 = fig1_full();
        assert!(check_rbp(&fig1.dag, 4) >= 2);
        let t = binary_tree(3);
        assert!(check_rbp(&t, 3) >= 9);
        let mv = matvec(3);
        assert!(check_rbp(&mv.dag, mv.dag.max_in_degree() + 2) >= mv.trivial_cost());
        let f = fft(8);
        assert!(check_rbp(&f.dag, 4) >= 16);
    }

    #[test]
    fn rbp_topological_rejects_small_cache() {
        let mv = matvec(3);
        assert!(rbp_topological(&mv.dag, 3).is_none());
    }

    #[test]
    fn prbp_topological_works_with_two_pebbles_everywhere() {
        let fig1 = fig1_full();
        assert!(check_prbp(&fig1.dag, 2) >= 2);
        let t = binary_tree(4);
        assert!(check_prbp(&t, 2) >= 17);
        let mv = matvec(4);
        assert!(check_prbp(&mv.dag, 2) >= mv.trivial_cost());
        let z = zipper(3, 6);
        assert!(check_prbp(&z.dag, 2) >= 7);
        let p = pebble_collection(3, 9);
        assert!(check_prbp(&p.dag, 2) >= 4);
    }

    #[test]
    fn prbp_topological_rejects_cache_of_one() {
        let fig1 = fig1_full();
        assert!(prbp_topological(&fig1.dag, 1).is_none());
    }

    #[test]
    fn larger_cache_never_increases_strategy_cost() {
        let mv = matvec(3);
        let r_min = mv.dag.max_in_degree() + 1;
        let mut prev = usize::MAX;
        for r in [r_min, r_min + 2, r_min + 4, 2 * r_min] {
            let cost = check_rbp(&mv.dag, r);
            assert!(cost <= prev, "cost should not increase with more cache");
            prev = cost;
        }
    }

    #[test]
    fn random_dags_are_pebbled_validly() {
        for seed in 0..5 {
            let dag = random_layered(RandomLayeredConfig {
                layers: 4,
                width: 6,
                max_in_degree: 3,
                seed,
            });
            let r = dag.max_in_degree() + 1;
            let rbp_cost = check_rbp(&dag, r);
            let prbp_cost = check_prbp(&dag, r);
            assert!(rbp_cost >= dag.trivial_cost());
            assert!(prbp_cost >= dag.trivial_cost());
        }
    }

    #[test]
    fn prbp_with_ample_cache_reaches_trivial_cost_on_trees() {
        // With r much larger than the tree, nothing is ever evicted, so the
        // strategy pays only the trivial cost.
        let t = binary_tree(3);
        let cost = check_prbp(&t, 64);
        assert_eq!(cost, t.trivial_cost());
    }
}
