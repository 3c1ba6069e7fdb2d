//! Strategies for the Proposition 4.7 chained-gadget DAG: `OPT_PRBP = 2`
//! while `OPT_RBP = Θ(n)` with `r = 4`.

use crate::moves::{PrbpMove, RbpMove};
use crate::trace::{PrbpTrace, RbpTrace};
use pebble_dag::generators::ChainedGadgets;

/// The cache size used in Proposition 4.7.
pub const CHAIN_CACHE: usize = 4;

/// The PRBP strategy of cost 2 (only the trivial cost) for the chained-gadget
/// DAG with `r = 4`: each gadget is traversed with partial computations while
/// keeping dark red pebbles only on its boundary nodes.
pub fn prbp_trace(c: &ChainedGadgets) -> PrbpTrace {
    let pc = |from, to| PrbpMove::PartialCompute { from, to };
    let mut t = PrbpTrace::new();
    let first = &c.gadgets[0];
    t.push(PrbpMove::Load(c.u0));
    t.push(pc(c.u0, first[0]));
    t.push(pc(c.u0, first[1]));
    t.push(PrbpMove::Delete(c.u0));
    for g in &c.gadgets {
        let [u1, u2, w1, w2, w3, w4, v1, v2] = *g;
        t.push(pc(u1, w1));
        t.push(pc(w1, w3));
        t.push(PrbpMove::Delete(w1));
        t.push(pc(u1, w2));
        t.push(pc(w2, w3));
        t.push(PrbpMove::Delete(w2));
        t.push(pc(u1, w4));
        t.push(pc(w3, w4));
        t.push(PrbpMove::Delete(u1));
        t.push(PrbpMove::Delete(w3));
        t.push(pc(w4, v1));
        t.push(pc(w4, v2));
        t.push(pc(u2, v1));
        t.push(pc(u2, v2));
        t.push(PrbpMove::Delete(w4));
        t.push(PrbpMove::Delete(u2));
    }
    let last = c.gadgets.last().expect("at least one gadget");
    t.push(pc(last[6], c.v0));
    t.push(pc(last[7], c.v0));
    t.push(PrbpMove::Save(c.v0));
    t
}

/// An RBP strategy of cost `2·copies + 2` for the chained-gadget DAG with
/// `r = 4`: inside each gadget the exit value `u2` has to be spilled to slow
/// memory and reloaded, matching (up to a factor of two) the `Θ(n)` lower
/// bound of Proposition 4.7.
pub fn rbp_trace(c: &ChainedGadgets) -> RbpTrace {
    let mut t = RbpTrace::new();
    let first = &c.gadgets[0];
    t.push(RbpMove::Load(c.u0));
    t.push(RbpMove::Compute(first[0]));
    t.push(RbpMove::Compute(first[1]));
    t.push(RbpMove::Delete(c.u0));
    for g in &c.gadgets {
        let [u1, u2, w1, w2, w3, w4, v1, v2] = *g;
        // Red pebbles on entry: {u1, u2}.
        t.push(RbpMove::Compute(w1));
        t.push(RbpMove::Compute(w2));
        // All four pebbles are in use; spill u2 to make room for w3.
        t.push(RbpMove::Save(u2));
        t.push(RbpMove::Delete(u2));
        t.push(RbpMove::Compute(w3));
        t.push(RbpMove::Delete(w1));
        t.push(RbpMove::Delete(w2));
        t.push(RbpMove::Compute(w4));
        t.push(RbpMove::Delete(w3));
        t.push(RbpMove::Delete(u1));
        t.push(RbpMove::Load(u2));
        t.push(RbpMove::Compute(v1));
        t.push(RbpMove::Compute(v2));
        t.push(RbpMove::Delete(w4));
        t.push(RbpMove::Delete(u2));
        // Red pebbles on exit: {v1, v2} = next gadget's {u1, u2}.
    }
    let last = c.gadgets.last().expect("at least one gadget");
    t.push(RbpMove::Compute(c.v0));
    t.push(RbpMove::Delete(last[6]));
    t.push(RbpMove::Delete(last[7]));
    t.push(RbpMove::Save(c.v0));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use crate::prbp::PrbpConfig;
    use crate::rbp::RbpConfig;
    use pebble_dag::generators::chained_gadgets;

    #[test]
    fn prbp_strategy_has_trivial_cost_for_all_sizes() {
        for copies in [1, 2, 3, 8, 20] {
            let c = chained_gadgets(copies);
            let trace = prbp_trace(&c);
            let cost = trace
                .validate(&c.dag, PrbpConfig::new(CHAIN_CACHE))
                .unwrap();
            assert_eq!(cost, 2, "copies={copies}");
        }
    }

    #[test]
    fn rbp_strategy_costs_two_per_gadget() {
        for copies in [1, 2, 5, 12] {
            let c = chained_gadgets(copies);
            let trace = rbp_trace(&c);
            let cost = trace.validate(&c.dag, RbpConfig::new(CHAIN_CACHE)).unwrap();
            assert_eq!(cost, 2 * copies + 2, "copies={copies}");
        }
    }

    #[test]
    fn prbp_strategy_needs_exactly_four_pebbles() {
        let c = chained_gadgets(3);
        let trace = prbp_trace(&c);
        assert!(trace.validate(&c.dag, PrbpConfig::new(3)).is_err());
        assert!(trace.validate(&c.dag, PrbpConfig::new(4)).is_ok());
    }

    #[test]
    fn exact_optimum_confirms_linear_gap_on_small_instances() {
        // Proposition 4.7 on small instances: OPT_PRBP stays at 2 while
        // OPT_RBP grows by at least 1 per gadget.
        for copies in [1usize, 2] {
            let c = chained_gadgets(copies);
            let prbp_opt = exact::prbp_opt(&c.dag, PrbpConfig::new(CHAIN_CACHE)).unwrap();
            assert_eq!(prbp_opt, 2);
            let rbp_opt = exact::rbp_opt(&c.dag, RbpConfig::new(CHAIN_CACHE)).unwrap();
            assert!(rbp_opt >= copies + 2, "copies={copies}, rbp_opt={rbp_opt}");
            assert!(rbp_opt <= 2 * copies + 2);
        }
    }
}
