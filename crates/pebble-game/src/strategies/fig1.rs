//! The explicit optimal pebbling strategies for the Figure 1 DAG listed in
//! Appendix A.1 of the paper (Proposition 4.2): `OPT_RBP = 3` and
//! `OPT_PRBP = 2` with `r = 4`.

use crate::moves::{PrbpMove, RbpMove};
use crate::trace::{PrbpTrace, RbpTrace};
use pebble_dag::generators::Fig1Dag;

/// The cache size used throughout Proposition 4.2.
pub const FIG1_CACHE: usize = 4;

/// The Appendix A.1 RBP strategy of cost 3 for the Figure 1 DAG (`r = 4`).
pub fn rbp_optimal_trace(f: &Fig1Dag) -> RbpTrace {
    let [w1, w2, w3, w4] = f.w;
    RbpTrace::from_moves(vec![
        RbpMove::Load(f.u0),
        RbpMove::Compute(f.u1),
        RbpMove::Delete(f.u0),
        RbpMove::Compute(w1),
        RbpMove::Compute(w2),
        RbpMove::Compute(w3),
        RbpMove::Delete(w1),
        RbpMove::Delete(w2),
        RbpMove::Compute(w4),
        RbpMove::Delete(w3),
        RbpMove::Delete(f.u1),
        RbpMove::Load(f.u0),
        RbpMove::Compute(f.u2),
        RbpMove::Delete(f.u0),
        RbpMove::Compute(f.v1),
        RbpMove::Compute(f.v2),
        RbpMove::Delete(w4),
        RbpMove::Delete(f.u2),
        RbpMove::Compute(f.v0),
        RbpMove::Save(f.v0),
    ])
}

/// The Appendix A.1 PRBP strategy of cost 2 for the Figure 1 DAG (`r = 4`).
pub fn prbp_optimal_trace(f: &Fig1Dag) -> PrbpTrace {
    let [w1, w2, w3, w4] = f.w;
    let pc = |from, to| PrbpMove::PartialCompute { from, to };
    PrbpTrace::from_moves(vec![
        PrbpMove::Load(f.u0),
        pc(f.u0, f.u1),
        pc(f.u0, f.u2),
        PrbpMove::Delete(f.u0),
        pc(f.u1, w1),
        pc(w1, w3),
        PrbpMove::Delete(w1),
        pc(f.u1, w2),
        pc(w2, w3),
        PrbpMove::Delete(w2),
        pc(f.u1, w4),
        pc(w3, w4),
        PrbpMove::Delete(f.u1),
        PrbpMove::Delete(w3),
        pc(w4, f.v1),
        pc(w4, f.v2),
        pc(f.u2, f.v1),
        pc(f.u2, f.v2),
        PrbpMove::Delete(w4),
        PrbpMove::Delete(f.u2),
        pc(f.v1, f.v0),
        pc(f.v2, f.v0),
        PrbpMove::Save(f.v0),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact;
    use crate::prbp::PrbpConfig;
    use crate::rbp::RbpConfig;
    use pebble_dag::generators::fig1_full;

    #[test]
    fn rbp_trace_is_valid_and_costs_three() {
        let f = fig1_full();
        let trace = rbp_optimal_trace(&f);
        assert_eq!(
            trace.validate(&f.dag, RbpConfig::new(FIG1_CACHE)).unwrap(),
            3
        );
    }

    #[test]
    fn prbp_trace_is_valid_and_costs_two() {
        let f = fig1_full();
        let trace = prbp_optimal_trace(&f);
        assert_eq!(
            trace.validate(&f.dag, PrbpConfig::new(FIG1_CACHE)).unwrap(),
            2
        );
    }

    #[test]
    fn traces_match_the_exact_optima() {
        // Proposition 4.2 verified end to end: the hand strategies achieve the
        // exact optima computed by the solvers.
        let f = fig1_full();
        let rbp_opt = exact::rbp_opt(&f.dag, RbpConfig::new(FIG1_CACHE)).unwrap();
        let prbp_opt = exact::prbp_opt(&f.dag, PrbpConfig::new(FIG1_CACHE)).unwrap();
        assert_eq!(rbp_opt, 3);
        assert_eq!(prbp_opt, 2);
        assert_eq!(
            rbp_optimal_trace(&f)
                .validate(&f.dag, RbpConfig::new(FIG1_CACHE))
                .unwrap(),
            rbp_opt
        );
        assert_eq!(
            prbp_optimal_trace(&f)
                .validate(&f.dag, PrbpConfig::new(FIG1_CACHE))
                .unwrap(),
            prbp_opt
        );
    }

    #[test]
    fn rbp_trace_fails_with_smaller_cache() {
        let f = fig1_full();
        let trace = rbp_optimal_trace(&f);
        assert!(trace.validate(&f.dag, RbpConfig::new(3)).is_err());
    }

    #[test]
    fn prbp_trace_respects_capacity_four_exactly() {
        // The strategy peaks at exactly 4 red pebbles, so r = 3 must fail.
        let f = fig1_full();
        let trace = prbp_optimal_trace(&f);
        assert!(trace.validate(&f.dag, PrbpConfig::new(3)).is_err());
        assert!(trace.validate(&f.dag, PrbpConfig::new(4)).is_ok());
    }
}
