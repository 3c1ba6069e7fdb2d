//! Model variants of Section 8.1 / Appendix B and their companion
//! constructions.
//!
//! The variant *rules* themselves live in the simulator configurations
//! ([`crate::rbp::RbpConfig`] for sliding / re-computation / no-deletion,
//! [`crate::prbp::PrbpConfig`] for the `clear` rule and no-deletion) and in
//! [`crate::cost::CostModel`] for compute costs. This module provides the
//! *adjusted example DAGs* the appendix uses to show that the paper's
//! separations survive in those variants:
//!
//! * [`fig1_recompute_resistant`] — Appendix B.1: the Figure 1 DAG with an
//!   extra `z₁, z₂` layer below `u₀`, which restores `OPT_RBP = 3` even when
//!   re-computation is allowed (recomputing `u₁` would now require two spare
//!   red pebbles), while PRBP still pays only the trivial cost of 2.
//! * [`fig1_sliding_resistant`] — Appendix B.2: the Figure 1 DAG with an
//!   extra node `w₀` feeding `w₃`, which restores `OPT_RBP = 3` in the
//!   sliding-pebble model, while PRBP still pays only 2.
//! * [`no_delete_lower_bound`] — Appendix B.4: in the no-deletion variant
//!   every node except the final `r` resident ones must be saved, so
//!   `OPT ≥ n − r`.

use pebble_dag::{Dag, DagBuilder, NodeId};

/// The Appendix B.1 modification of the Figure 1 DAG: a layer `z₁, z₂` is
/// inserted between `u₀` and `u₁, u₂`.
#[derive(Debug, Clone)]
pub struct Fig1Variant {
    /// The modified DAG.
    pub dag: Dag,
    /// The unique source.
    pub u0: NodeId,
    /// The inserted nodes (the `z` layer for B.1, the single `w₀` for B.2).
    pub inserted: Vec<NodeId>,
    /// Entry node u1 of the inner gadget.
    pub u1: NodeId,
    /// Entry node u2 of the inner gadget.
    pub u2: NodeId,
    /// Internal nodes w1..w4.
    pub w: [NodeId; 4],
    /// Exit node v1.
    pub v1: NodeId,
    /// Exit node v2.
    pub v2: NodeId,
    /// The unique sink.
    pub v0: NodeId,
}

fn build_inner(b: &mut DagBuilder) -> (NodeId, NodeId, [NodeId; 4], NodeId, NodeId) {
    let u1 = b.add_labeled_node("u1");
    let u2 = b.add_labeled_node("u2");
    let w1 = b.add_labeled_node("w1");
    let w2 = b.add_labeled_node("w2");
    let w3 = b.add_labeled_node("w3");
    let w4 = b.add_labeled_node("w4");
    let v1 = b.add_labeled_node("v1");
    let v2 = b.add_labeled_node("v2");
    b.add_edge(u1, w1);
    b.add_edge(u1, w2);
    b.add_edge(w1, w3);
    b.add_edge(w2, w3);
    b.add_edge(u1, w4);
    b.add_edge(w3, w4);
    b.add_edge(w4, v1);
    b.add_edge(u2, v1);
    b.add_edge(w4, v2);
    b.add_edge(u2, v2);
    (u1, u2, [w1, w2, w3, w4], v1, v2)
}

/// Figure 1 adjusted for the re-computation variant (Appendix B.1): `u₀` now
/// feeds a two-node layer `z₁, z₂` and both `z` nodes feed `u₁` and `u₂`.
pub fn fig1_recompute_resistant() -> Fig1Variant {
    let mut b = DagBuilder::new();
    let u0 = b.add_labeled_node("u0");
    let z1 = b.add_labeled_node("z1");
    let z2 = b.add_labeled_node("z2");
    let (u1, u2, w, v1, v2) = build_inner(&mut b);
    let v0 = b.add_labeled_node("v0");
    b.add_edge(u0, z1);
    b.add_edge(u0, z2);
    b.add_edge(z1, u1);
    b.add_edge(z2, u1);
    b.add_edge(z1, u2);
    b.add_edge(z2, u2);
    b.add_edge(v1, v0);
    b.add_edge(v2, v0);
    let dag = b.build().expect("B.1 variant DAG is valid");
    Fig1Variant {
        dag,
        u0,
        inserted: vec![z1, z2],
        u1,
        u2,
        w,
        v1,
        v2,
        v0,
    }
}

/// Figure 1 adjusted for the sliding-pebble variant (Appendix B.2): an extra
/// node `w₀` with `u₁ → w₀ → w₃`, so `w₃` has three in-neighbours and sliding
/// no longer saves a pebble there.
pub fn fig1_sliding_resistant() -> Fig1Variant {
    let mut b = DagBuilder::new();
    let u0 = b.add_labeled_node("u0");
    let (u1, u2, w, v1, v2) = build_inner(&mut b);
    let w0 = b.add_labeled_node("w0");
    let v0 = b.add_labeled_node("v0");
    b.add_edge(u0, u1);
    b.add_edge(u0, u2);
    b.add_edge(u1, w0);
    b.add_edge(w0, w[2]);
    b.add_edge(v1, v0);
    b.add_edge(v2, v0);
    let dag = b.build().expect("B.2 variant DAG is valid");
    Fig1Variant {
        dag,
        u0,
        inserted: vec![w0],
        u1,
        u2,
        w,
        v1,
        v2,
        v0,
    }
}

/// The Appendix B.4 lower bound for the no-deletion variant: every node except
/// at most `r` (the ones that may still hold a red pebble in the final state)
/// must be saved at least once, so `OPT ≥ n − r`.
pub fn no_delete_lower_bound(dag: &Dag, r: usize) -> usize {
    dag.node_count().saturating_sub(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use crate::prbp::PrbpConfig;
    use crate::rbp::RbpConfig;

    #[test]
    fn recompute_variant_shapes() {
        let v = fig1_recompute_resistant();
        assert_eq!(v.dag.node_count(), 12);
        assert_eq!(v.dag.sources(), vec![v.u0]);
        assert_eq!(v.dag.sinks(), vec![v.v0]);
        assert_eq!(v.dag.max_in_degree(), 2);
        assert_eq!(v.inserted.len(), 2);
    }

    #[test]
    fn sliding_variant_shapes() {
        let v = fig1_sliding_resistant();
        assert_eq!(v.dag.node_count(), 11);
        assert_eq!(v.dag.in_degree(v.w[2]), 3); // w3 now has three inputs
        assert_eq!(v.dag.sources(), vec![v.u0]);
        assert_eq!(v.dag.sinks(), vec![v.v0]);
    }

    #[test]
    fn recomputation_helps_on_original_but_not_on_adjusted_dag() {
        // Appendix B.1: on the original Figure 1 DAG, re-computation brings
        // OPT_RBP down to 2 (verified in the solver tests); on the adjusted
        // DAG it stays at 3, while PRBP still achieves 2.
        let v = fig1_recompute_resistant();
        let rbp_recompute = exact::rbp_opt(&v.dag, RbpConfig::new(4).with_recompute()).unwrap();
        assert_eq!(rbp_recompute, 3);
        let prbp = exact::prbp_opt(&v.dag, PrbpConfig::new(4)).unwrap();
        assert_eq!(prbp, 2);
    }

    #[test]
    fn sliding_helps_on_original_but_not_on_adjusted_dag() {
        // Appendix B.2: with the extra w0 node, the sliding model needs 3 I/Os
        // again, while PRBP still achieves the trivial 2.
        let v = fig1_sliding_resistant();
        let rbp_sliding = exact::rbp_opt(&v.dag, RbpConfig::new(4).with_sliding()).unwrap();
        assert_eq!(rbp_sliding, 3);
        let prbp = exact::prbp_opt(&v.dag, PrbpConfig::new(4)).unwrap();
        assert_eq!(prbp, 2);
    }

    #[test]
    fn no_delete_variant_respects_its_lower_bound() {
        // On a small chain, the no-deletion optimum is at least n − r and the
        // exact solver agrees.
        let mut b = DagBuilder::new();
        let nodes = b.add_nodes(5);
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        let dag = b.build().unwrap();
        let bound = no_delete_lower_bound(&dag, 2);
        assert_eq!(bound, 3);
        let opt = exact::prbp_opt(&dag, PrbpConfig::new(2).with_no_delete()).unwrap();
        assert!(opt >= bound);
        // The unrestricted optimum is cheaper (only the trivial cost of 2).
        let unrestricted = exact::prbp_opt(&dag, PrbpConfig::new(2)).unwrap();
        assert!(unrestricted < opt);
    }
}
