//! Strategies for the zipper gadget (Section 4.2.1, Proposition 4.4) with
//! cache size `r = d + 2`.
//!
//! * [`rbp_zipper`]: the RBP traversal has to swap the whole resident source
//!   group at every chain step, paying ≈ `d` loads per chain node.
//! * [`prbp_zipper`]: partial computations pre-aggregate the group-A
//!   contribution of every chain node in one pass (one save + one later load
//!   per such node, i.e. 2 I/Os), after which group B stays resident for the
//!   entire chain traversal.

use crate::moves::{PrbpMove, RbpMove};
use crate::trace::{PrbpTrace, RbpTrace};
use pebble_dag::generators::Zipper;

/// The RBP strategy for the zipper gadget with `r = d + 2`: every chain step
/// evicts the currently resident group and loads the other one.
pub fn rbp_zipper(z: &Zipper) -> RbpTrace {
    let d = z.group_a.len();
    let mut t = RbpTrace::new();
    // Load group A and compute the first chain node.
    for &a in &z.group_a {
        t.push(RbpMove::Load(a));
    }
    t.push(RbpMove::Compute(z.chain[0]));
    for i in 1..z.chain.len() {
        let (incoming, outgoing) = if i % 2 == 1 {
            (&z.group_b, &z.group_a)
        } else {
            (&z.group_a, &z.group_b)
        };
        // Swap the groups one pebble at a time (sources have blue pebbles, so
        // the deletes are free), keeping the previous chain node resident.
        for j in 0..d {
            t.push(RbpMove::Delete(outgoing[j]));
            t.push(RbpMove::Load(incoming[j]));
        }
        t.push(RbpMove::Compute(z.chain[i]));
        t.push(RbpMove::Delete(z.chain[i - 1]));
    }
    let last = *z.chain.last().expect("non-empty chain");
    t.push(RbpMove::Save(last));
    t
}

/// The PRBP strategy for the zipper gadget with `r = d + 2`: phase 1
/// pre-aggregates the group-A inputs of every even chain node and spills the
/// partial values; phase 2 keeps group B resident and walks the chain,
/// reloading each spilled partial value just before it is needed.
pub fn prbp_zipper(z: &Zipper) -> PrbpTrace {
    let pc = |from, to| PrbpMove::PartialCompute { from, to };
    let mut t = PrbpTrace::new();
    // Phase 1: group A resident; aggregate its contribution into every even
    // chain node and spill the partial value.
    for &a in &z.group_a {
        t.push(PrbpMove::Load(a));
    }
    for (i, &c) in z.chain.iter().enumerate() {
        if i % 2 != 0 {
            continue;
        }
        for &a in &z.group_a {
            t.push(pc(a, c));
        }
        t.push(PrbpMove::Save(c));
        t.push(PrbpMove::Delete(c));
    }
    for &a in &z.group_a {
        t.push(PrbpMove::Delete(a));
    }
    // Phase 2: group B resident; walk the chain.
    for &b in &z.group_b {
        t.push(PrbpMove::Load(b));
    }
    for (i, &c) in z.chain.iter().enumerate() {
        if i % 2 == 0 {
            // The group-A contribution was pre-aggregated; reload it and (for
            // i > 0) fold in the previous chain node.
            t.push(PrbpMove::Load(c));
            if i > 0 {
                t.push(pc(z.chain[i - 1], c));
            }
        } else {
            for &b in &z.group_b {
                t.push(pc(b, c));
            }
            t.push(pc(z.chain[i - 1], c));
        }
        if i > 0 {
            t.push(PrbpMove::Delete(z.chain[i - 1]));
        }
    }
    // The sink is dark red after its final aggregation (any chain longer than
    // one node); save it. A single-node chain was already saved in phase 1.
    if z.chain.len() > 1 {
        let last = *z.chain.last().expect("non-empty chain");
        t.push(PrbpMove::Save(last));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use crate::prbp::PrbpConfig;
    use crate::rbp::RbpConfig;
    use pebble_dag::generators::zipper;

    #[test]
    fn rbp_zipper_is_valid_and_costs_about_d_per_step() {
        for (d, len) in [(3usize, 5usize), (4, 6), (5, 8)] {
            let z = zipper(d, len);
            let trace = rbp_zipper(&z);
            let cost = trace.validate(&z.dag, RbpConfig::new(d + 2)).unwrap();
            // d loads for group A + d·(len−1) swap loads + 1 save.
            assert_eq!(cost, d + d * (len - 1) + 1, "d={d} len={len}");
        }
    }

    #[test]
    fn prbp_zipper_is_valid_and_costs_two_per_even_node() {
        for (d, len) in [(3usize, 5usize), (4, 6), (5, 8), (3, 9)] {
            let z = zipper(d, len);
            let trace = prbp_zipper(&z);
            let cost = trace.validate(&z.dag, PrbpConfig::new(d + 2)).unwrap();
            let even_nodes = len.div_ceil(2);
            // 2d source loads + save/load per even chain node + final save.
            let expected = 2 * d + 2 * even_nodes + 1;
            assert_eq!(cost, expected, "d={d} len={len}");
        }
    }

    #[test]
    fn proposition_4_4_gap() {
        // For d >= 3 and long enough chains the PRBP strategy beats the RBP
        // strategy.
        for d in 3..=6 {
            let len = 8;
            let z = zipper(d, len);
            let rbp_cost = rbp_zipper(&z)
                .validate(&z.dag, RbpConfig::new(d + 2))
                .unwrap();
            let prbp_cost = prbp_zipper(&z)
                .validate(&z.dag, PrbpConfig::new(d + 2))
                .unwrap();
            assert!(prbp_cost < rbp_cost, "d={d}: {prbp_cost} !< {rbp_cost}");
        }
    }

    #[test]
    fn exact_confirms_strategies_are_upper_bounds() {
        // Small enough for the exact solvers: d = 3, chain of 3, r = 5.
        let z = zipper(3, 3);
        let rbp_opt = exact::rbp_opt(&z.dag, RbpConfig::new(5)).unwrap();
        let prbp_opt = exact::prbp_opt(&z.dag, PrbpConfig::new(5)).unwrap();
        assert!(prbp_opt <= rbp_opt);
        let rbp_strategy = rbp_zipper(&z).validate(&z.dag, RbpConfig::new(5)).unwrap();
        let prbp_strategy = prbp_zipper(&z)
            .validate(&z.dag, PrbpConfig::new(5))
            .unwrap();
        assert!(rbp_opt <= rbp_strategy);
        assert!(prbp_opt <= prbp_strategy);
    }

    #[test]
    fn strategies_respect_the_cache_bound() {
        let z = zipper(4, 6);
        assert!(rbp_zipper(&z).validate(&z.dag, RbpConfig::new(5)).is_err());
        assert!(prbp_zipper(&z)
            .validate(&z.dag, PrbpConfig::new(5))
            .is_err());
    }
}
