//! Strategies for binary and k-ary reduction trees (Section 4.2.2 and
//! Appendix A.2), with cache size `r = k + 1`.
//!
//! * [`rbp_tree`]: for every node above the bottom two levels, `k − 1`
//!   children are saved and reloaded, giving a total cost of
//!   `k^d + 2·k^(d−1) − 1`.
//! * [`prbp_tree`]: partial computations make the bottom `k + 1` levels free;
//!   every node above them pays `2·(k − 1)` I/O steps, giving a total cost of
//!   `k^d + 2·k^(d−k) − 1` (for `d ≥ k`; smaller trees cost only the trivial
//!   `k^d + 1`).

use crate::moves::{PrbpMove, RbpMove};
use crate::trace::{PrbpTrace, RbpTrace};
use pebble_dag::generators::KaryTree;
use pebble_dag::NodeId;

/// Closed-form optimal RBP cost for a depth-`d` k-ary tree with `r = k + 1`
/// (Appendix A.2): `k^d + 2·k^(d−1) − 1` for `d ≥ 2`, and the trivial
/// `k^d + 1` for `d = 1`.
pub fn rbp_tree_cost_formula(k: usize, d: usize) -> usize {
    if d < 2 {
        return k.pow(d as u32) + 1;
    }
    k.pow(d as u32) + 2 * k.pow((d - 1) as u32) - 1
}

/// Closed-form optimal PRBP cost for a depth-`d` k-ary tree with `r = k + 1`
/// (Appendix A.2): `k^d + 2·k^(d−k) − 1` for `d ≥ k`, and the trivial
/// `k^d + 1` for `d < k`.
pub fn prbp_tree_cost_formula(k: usize, d: usize) -> usize {
    if d < k {
        return k.pow(d as u32) + 1;
    }
    k.pow(d as u32) + 2 * k.pow((d - k) as u32) - 1
}

/// The RBP strategy for a k-ary tree with `r = k + 1`, achieving
/// [`rbp_tree_cost_formula`].
pub fn rbp_tree(tree: &KaryTree) -> RbpTrace {
    let mut t = RbpTrace::new();
    rbp_subtree(tree, 0, 0, &mut t);
    t.push(RbpMove::Save(tree.root));
    t.push(RbpMove::Delete(tree.root));
    t
}

/// Recursively pebble the subtree rooted at position `i` of `level`, leaving a
/// single red pebble on its root. `level` counts from the root (level 0).
fn rbp_subtree(tree: &KaryTree, level: usize, i: usize, t: &mut RbpTrace) {
    let v = tree.levels[level][i];
    if level == tree.depth {
        // Leaf.
        t.push(RbpMove::Load(v));
        return;
    }
    let k = tree.k;
    let children: Vec<NodeId> = (0..k).map(|j| tree.child(level, i, j)).collect();
    if level + 1 == tree.depth {
        // Children are leaves: load them all, compute, drop the leaves.
        for &c in &children {
            t.push(RbpMove::Load(c));
        }
        t.push(RbpMove::Compute(v));
        for &c in &children {
            t.push(RbpMove::Delete(c));
        }
        return;
    }
    // General case: compute each child subtree; spill all but the last.
    for (j, _) in children.iter().enumerate() {
        rbp_subtree(tree, level + 1, i * k + j, t);
        if j + 1 < k {
            t.push(RbpMove::Save(children[j]));
            t.push(RbpMove::Delete(children[j]));
        }
    }
    for &c in children.iter().take(k - 1) {
        t.push(RbpMove::Load(c));
    }
    t.push(RbpMove::Compute(v));
    for &c in &children {
        t.push(RbpMove::Delete(c));
    }
}

/// The PRBP strategy for a k-ary tree with `r = k + 1`, achieving
/// [`prbp_tree_cost_formula`].
pub fn prbp_tree(tree: &KaryTree) -> PrbpTrace {
    let mut t = PrbpTrace::new();
    prbp_subtree(tree, 0, 0, &mut t);
    t.push(PrbpMove::Save(tree.root));
    t
}

/// Recursively pebble the subtree rooted at position `i` of `level`, leaving a
/// dark red pebble on its root (or a light red pebble for a leaf).
///
/// The *height* of the node (distance to the leaves) determines the approach:
/// for height ≤ k the whole subtree fits the "aggregate immediately" scheme
/// with peak usage `height + 1 ≤ r` and no I/O beyond the leaf loads; for
/// height > k the partially aggregated value is spilled and reloaded between
/// child subtrees (`2·(k−1)` I/O steps per node).
fn prbp_subtree(tree: &KaryTree, level: usize, i: usize, t: &mut PrbpTrace) {
    let v = tree.levels[level][i];
    if level == tree.depth {
        t.push(PrbpMove::Load(v));
        return;
    }
    let k = tree.k;
    let height = tree.depth - level;
    if height <= k {
        // Small subtree: aggregate every child into v as soon as it is done.
        for j in 0..k {
            let c = tree.child(level, i, j);
            prbp_subtree(tree, level + 1, i * k + j, t);
            t.push(PrbpMove::PartialCompute { from: c, to: v });
            t.push(PrbpMove::Delete(c));
        }
        return;
    }
    // Large subtree: each child needs the full cache, so spill v in between.
    for j in 0..k {
        let c = tree.child(level, i, j);
        if j > 0 {
            // v currently holds a partial value in fast memory; spill it.
            t.push(PrbpMove::Save(v));
            t.push(PrbpMove::Delete(v));
        }
        prbp_subtree(tree, level + 1, i * k + j, t);
        if j > 0 {
            t.push(PrbpMove::Load(v));
        }
        t.push(PrbpMove::PartialCompute { from: c, to: v });
        t.push(PrbpMove::Delete(c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use crate::prbp::PrbpConfig;
    use crate::rbp::RbpConfig;
    use pebble_dag::generators::kary_tree;

    #[test]
    fn rbp_binary_trees_match_formula() {
        for d in 1..=6 {
            let tree = kary_tree(2, d);
            let trace = rbp_tree(&tree);
            let cost = trace.validate(&tree.dag, RbpConfig::new(3)).unwrap();
            assert_eq!(cost, rbp_tree_cost_formula(2, d), "d={d}");
        }
    }

    #[test]
    fn prbp_binary_trees_match_formula() {
        for d in 1..=7 {
            let tree = kary_tree(2, d);
            let trace = prbp_tree(&tree);
            let cost = trace.validate(&tree.dag, PrbpConfig::new(3)).unwrap();
            assert_eq!(cost, prbp_tree_cost_formula(2, d), "d={d}");
        }
    }

    #[test]
    fn kary_trees_match_formula() {
        for (k, d) in [(3usize, 2usize), (3, 3), (3, 4), (4, 2), (4, 3), (5, 2)] {
            let tree = kary_tree(k, d);
            let rbp_cost = rbp_tree(&tree)
                .validate(&tree.dag, RbpConfig::new(k + 1))
                .unwrap();
            assert_eq!(rbp_cost, rbp_tree_cost_formula(k, d), "RBP k={k} d={d}");
            let prbp_cost = prbp_tree(&tree)
                .validate(&tree.dag, PrbpConfig::new(k + 1))
                .unwrap();
            assert_eq!(prbp_cost, prbp_tree_cost_formula(k, d), "PRBP k={k} d={d}");
        }
    }

    #[test]
    fn proposition_4_5_gap_for_deep_binary_trees() {
        // For binary trees of depth >= 3 with r = 3, PRBP is strictly better.
        for d in 3..=6 {
            assert!(prbp_tree_cost_formula(2, d) < rbp_tree_cost_formula(2, d));
        }
        // Depth 2 is inside PRBP's free bottom zone (trivial cost 5), while
        // RBP already pays 2 extra I/Os there.
        assert_eq!(prbp_tree_cost_formula(2, 2), 5);
        assert_eq!(rbp_tree_cost_formula(2, 2), 7);
    }

    #[test]
    fn strategy_costs_match_exact_optimum_on_small_trees() {
        // Depth-3 binary tree: the hand strategies hit the true optimum.
        let tree = kary_tree(2, 3);
        let rbp_opt = exact::rbp_opt(&tree.dag, RbpConfig::new(3)).unwrap();
        assert_eq!(rbp_opt, rbp_tree_cost_formula(2, 3));
        let prbp_opt = exact::prbp_opt(&tree.dag, PrbpConfig::new(3)).unwrap();
        assert_eq!(prbp_opt, prbp_tree_cost_formula(2, 3));
    }

    #[test]
    fn strategies_respect_cache_bound_tightly() {
        let tree = kary_tree(2, 4);
        assert!(rbp_tree(&tree)
            .validate(&tree.dag, RbpConfig::new(2))
            .is_err());
        assert!(prbp_tree(&tree)
            .validate(&tree.dag, PrbpConfig::new(2))
            .is_err());
    }
}
