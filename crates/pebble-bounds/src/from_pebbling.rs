//! Converting validated pebbling traces into partitions.
//!
//! * [`hong_kung_partition`]: an RBP pebbling of cost `C` with cache `r`
//!   yields a `2r`-partition into `k = ⌈C/r⌉` classes (Hong & Kung).
//! * [`edge_partition_from_prbp`]: a PRBP pebbling yields a `2r`-edge
//!   partition (Lemma 6.4), giving `OPT_PRBP ≥ r·(MIN_edge(2r) − 1)`
//!   (Theorem 6.5).
//! * [`dominator_partition_from_prbp`]: a PRBP pebbling yields a
//!   `2r`-dominator partition (Lemma 6.8), giving
//!   `OPT_PRBP ≥ r·(MIN_dom(2r) − 1)` (Theorem 6.7).
//!
//! All conversions assign items to the subsequence of the pebbling obtained by
//! splitting after every `r`-th I/O operation.

use crate::s_edge_partition::SEdgePartition;
use crate::s_partition::{SDominatorPartition, SPartition};
use pebble_dag::{BitSet, Dag};
use pebble_game::moves::{PrbpMove, RbpMove};
use pebble_game::trace::{PrbpTrace, RbpTrace};
use pebble_game::GameMove;

/// The `OPT ≥ r·(k − 1)` bound shared by Hong–Kung, Theorem 6.5 and
/// Theorem 6.7, instantiated with a class count `k`.
pub fn subsequence_lower_bound(r: usize, k: usize) -> usize {
    r * k.saturating_sub(1)
}

/// Build the Hong–Kung `2r`-partition from an RBP trace: every node is
/// assigned to the subsequence in which it first receives a red pebble.
/// The trace must be valid for the DAG (validate it first); the resulting
/// partition satisfies Definition 5.3 with `S = 2r`.
pub fn hong_kung_partition(dag: &Dag, trace: &RbpTrace, r: usize) -> SPartition {
    let n = dag.node_count();
    let mut first_red: Vec<Option<usize>> = vec![None; n];
    let mut ios = 0usize;
    for mv in &trace.moves {
        let subseq = ios / r;
        match *mv {
            RbpMove::Load(v) | RbpMove::Compute(v) if first_red[v.index()].is_none() => {
                first_red[v.index()] = Some(subseq);
            }
            RbpMove::ComputeSlide { node, .. } if first_red[node.index()].is_none() => {
                first_red[node.index()] = Some(subseq);
            }
            _ => {}
        }
        ios += mv.io_cost();
    }
    let k = ios.div_ceil(r).max(1);
    let mut classes = vec![BitSet::new(n); k];
    for v in dag.nodes() {
        let c = first_red[v.index()].expect("every node receives a red pebble in a valid pebbling");
        classes[c].insert(v.index());
    }
    SPartition { classes }
}

/// Build the Lemma 6.4 `2r`-edge partition from a PRBP trace: every edge is
/// assigned to the subsequence in which it is marked. The trace must be valid
/// for the DAG.
pub fn edge_partition_from_prbp(dag: &Dag, trace: &PrbpTrace, r: usize) -> SEdgePartition {
    let m = dag.edge_count();
    let mut class_of_edge: Vec<Option<usize>> = vec![None; m];
    let mut ios = 0usize;
    for mv in &trace.moves {
        let subseq = ios / r;
        if let PrbpMove::PartialCompute { from, to } = *mv {
            let e = dag
                .find_edge(from, to)
                .expect("partial compute on an existing edge");
            // One-shot: the first (and only) marking decides the class.
            if class_of_edge[e.index()].is_none() {
                class_of_edge[e.index()] = Some(subseq);
            }
        }
        ios += mv.io_cost();
    }
    let k = ios.div_ceil(r).max(1);
    let mut classes = vec![BitSet::new(m); k];
    for e in dag.edges() {
        let c = class_of_edge[e.index()].expect("every edge is marked in a valid pebbling");
        classes[c].insert(e.index());
    }
    SEdgePartition { classes }
}

/// Build the Lemma 6.8 `2r`-dominator partition from a PRBP trace: every
/// non-source node is assigned to the subsequence of the *last* partial
/// compute marking one of its in-edges; every source is assigned to the
/// subsequence of its first load. The trace must be valid for the DAG.
pub fn dominator_partition_from_prbp(
    dag: &Dag,
    trace: &PrbpTrace,
    r: usize,
) -> SDominatorPartition {
    let n = dag.node_count();
    let mut class_of_node: Vec<Option<usize>> = vec![None; n];
    let mut remaining_in: Vec<usize> = (0..n)
        .map(|i| dag.in_degree(pebble_dag::NodeId::from_index(i)))
        .collect();
    let mut ios = 0usize;
    for mv in &trace.moves {
        let subseq = ios / r;
        match *mv {
            PrbpMove::PartialCompute { to, .. } => {
                remaining_in[to.index()] -= 1;
                if remaining_in[to.index()] == 0 {
                    class_of_node[to.index()] = Some(subseq);
                }
            }
            PrbpMove::Load(v) if dag.is_source(v) && class_of_node[v.index()].is_none() => {
                class_of_node[v.index()] = Some(subseq);
            }
            _ => {}
        }
        ios += mv.io_cost();
    }
    let k = ios.div_ceil(r).max(1);
    let mut classes = vec![BitSet::new(n); k];
    for v in dag.nodes() {
        let c = class_of_node[v.index()]
            .expect("every node is fully computed or loaded in a valid pebbling");
        classes[c].insert(v.index());
    }
    SDominatorPartition { classes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dag::generators::{
        binary_tree, chained_gadgets, fft, fig1_full, matvec, pebble_collection, zipper,
    };
    use pebble_game::prbp::PrbpConfig;
    use pebble_game::rbp::RbpConfig;
    use pebble_game::strategies;

    /// Validated PRBP traces for a collection of structured DAGs, together
    /// with the cache size they were built for.
    fn prbp_corpus() -> Vec<(pebble_dag::Dag, pebble_game::trace::PrbpTrace, usize)> {
        let mut out = Vec::new();
        let f = fig1_full();
        out.push((f.dag.clone(), strategies::fig1::prbp_optimal_trace(&f), 4));
        let mv = matvec(4);
        out.push((mv.dag.clone(), strategies::matvec::prbp_streaming(&mv), 7));
        let tree = pebble_dag::generators::kary_tree(2, 4);
        out.push((tree.dag.clone(), strategies::tree::prbp_tree(&tree), 3));
        let z = zipper(3, 6);
        out.push((z.dag.clone(), strategies::zipper::prbp_zipper(&z), 5));
        let p = pebble_collection(3, 9);
        out.push((
            p.dag.clone(),
            strategies::collection::prbp_full_cache(&p),
            5,
        ));
        let c = chained_gadgets(4);
        out.push((c.dag.clone(), strategies::chain_gadget::prbp_trace(&c), 4));
        let f16 = fft(16);
        out.push((
            f16.dag.clone(),
            strategies::fft::prbp_blocked(&f16, 8).unwrap(),
            8,
        ));
        out
    }

    #[test]
    fn hong_kung_partition_is_valid_and_bounds_cost() {
        let dags: Vec<(pebble_dag::Dag, usize)> = vec![
            (fig1_full().dag, 4),
            (binary_tree(3), 3),
            (matvec(3).dag, 8),
        ];
        for (dag, r) in dags {
            let trace = match r {
                8 => strategies::matvec::rbp_row_by_row(&matvec(3)),
                _ => strategies::topological::rbp_topological(&dag, r).unwrap(),
            };
            let cost = trace.validate(&dag, RbpConfig::new(r)).unwrap();
            let partition = hong_kung_partition(&dag, &trace, r);
            partition.validate(&dag, 2 * r).expect("valid 2r-partition");
            let k = partition.class_count();
            assert!(subsequence_lower_bound(r, k) <= cost);
            assert!(cost <= r * k);
        }
    }

    #[test]
    fn lemma_6_4_edge_partitions_are_valid_and_bound_cost() {
        for (dag, trace, r) in prbp_corpus() {
            let cost = trace.validate(&dag, PrbpConfig::new(r)).unwrap();
            let partition = edge_partition_from_prbp(&dag, &trace, r);
            partition
                .validate(&dag, 2 * r)
                .expect("valid 2r-edge partition");
            let k = partition.class_count();
            assert!(subsequence_lower_bound(r, k) <= cost, "bound violated");
            assert!(cost <= r * k, "class count too small");
        }
    }

    #[test]
    fn lemma_6_8_dominator_partitions_are_valid_and_bound_cost() {
        for (dag, trace, r) in prbp_corpus() {
            let cost = trace.validate(&dag, PrbpConfig::new(r)).unwrap();
            let partition = dominator_partition_from_prbp(&dag, &trace, r);
            partition
                .validate(&dag, 2 * r)
                .expect("valid 2r-dominator partition");
            let k = partition.class_count();
            assert!(subsequence_lower_bound(r, k) <= cost);
            assert!(cost <= r * k);
        }
    }

    #[test]
    fn class_counts_match_ceil_cost_over_r() {
        let f = fig1_full();
        let trace = strategies::fig1::prbp_optimal_trace(&f);
        let cost = trace.validate(&f.dag, PrbpConfig::new(4)).unwrap();
        assert_eq!(cost, 2);
        let partition = edge_partition_from_prbp(&f.dag, &trace, 4);
        assert_eq!(partition.class_count(), 1);
        let dom = dominator_partition_from_prbp(&f.dag, &trace, 4);
        assert_eq!(dom.class_count(), 1);
    }

    #[test]
    fn rbp_trace_converted_to_prbp_yields_consistent_partitions() {
        // The same pebbling seen through Proposition 4.1: both Lemma 6.4 and
        // Lemma 6.8 partitions derived from the converted trace stay valid.
        let tree = pebble_dag::generators::kary_tree(2, 3);
        let rbp = strategies::tree::rbp_tree(&tree);
        let prbp = pebble_game::convert::rbp_to_prbp(&tree.dag, &rbp, 3).unwrap();
        let cost = prbp.validate(&tree.dag, PrbpConfig::new(3)).unwrap();
        let ep = edge_partition_from_prbp(&tree.dag, &prbp, 3);
        ep.validate(&tree.dag, 6).unwrap();
        let dp = dominator_partition_from_prbp(&tree.dag, &prbp, 3);
        dp.validate(&tree.dag, 6).unwrap();
        assert!(subsequence_lower_bound(3, ep.class_count()) <= cost);
        assert!(subsequence_lower_bound(3, dp.class_count()) <= cost);
    }
}
