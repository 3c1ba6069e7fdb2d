//! Exact-search vocabulary shared by the engine and its callers.
//!
//! The exact solvers run an A* search over pebbling configurations: the
//! state of the search is the full pebble placement (plus edge markings for
//! PRBP), transitions are the individual game moves, and the edge weights
//! are the I/O costs (compute and delete moves are free). The search itself
//! lives in the unified anytime engine: call [`crate::engine::solve_rbp`] /
//! [`crate::engine::solve_prbp`] and read the outcome's `cost`, `trace` and
//! `stats`. An engine configuration with no deadline or budget runs to the
//! proven optimum with reproducible statistics.
//!
//! This module keeps what those solves share:
//!
//! * the admissible [`LowerBound`] heuristics ([`heuristic`]):
//!   [`ZeroHeuristic`] recovers plain uniform-cost (Dijkstra) search, and
//!   [`LoadCountHeuristic`] counts mandatory future loads and saves;
//! * [`SearchStats`], the expanded/generated/distinct state counts that
//!   benchmarks use as a hardware-independent performance metric;
//! * [`ExactError`], why a solve returned no schedule;
//! * [`rbp_initial_bound`] / [`prbp_initial_bound`], a heuristic evaluated
//!   on the initial state, which is an admissible lower bound on `OPT`.
//!
//! These searches are exponential in general (finding `OPT` is NP-hard,
//! Theorem 7.1), so they are intended for the paper's small gadget DAGs;
//! `EngineConfig::node_budget` guards against runaway instances.

pub mod heuristic;

pub use heuristic::{LoadCountHeuristic, LowerBound, PrbpStateView, RbpStateView, ZeroHeuristic};

use crate::engine;
use crate::prbp::PrbpConfig;
use crate::rbp::RbpConfig;
use pebble_dag::Dag;
use std::fmt;

/// Counters describing how much work an exact search did. `expanded` is the
/// hardware-independent metric benchmarks track: the number of states popped
/// from the frontier and expanded into successors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// States popped from the frontier and expanded.
    pub expanded: usize,
    /// Successor states generated (before duplicate detection).
    pub generated: usize,
    /// Distinct states interned in the transposition table.
    pub distinct: usize,
}

/// Why an exact search did not return an optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExactError {
    /// No valid pebbling exists for this DAG and cache size (e.g. RBP with
    /// `r < Δ_in + 1`).
    Unsolvable,
    /// The state limit was reached before the search completed.
    StateLimitExceeded {
        /// Number of states explored when the search stopped.
        explored: usize,
    },
    /// An anytime solve was stopped by its deadline before any incumbent
    /// schedule was found. Only engine solves with a deadline can produce
    /// this.
    Interrupted {
        /// Number of states explored when the solve was stopped.
        explored: usize,
    },
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::Unsolvable => write!(f, "no valid pebbling exists"),
            ExactError::StateLimitExceeded { explored } => {
                write!(f, "state limit exceeded after exploring {explored} states")
            }
            ExactError::Interrupted { explored } => {
                write!(
                    f,
                    "solve interrupted after exploring {explored} states with no incumbent"
                )
            }
        }
    }
}

impl std::error::Error for ExactError {}

/// Evaluate a heuristic on the *initial* RBP state (blue pebbles on all
/// sources, nothing in fast memory). For an admissible heuristic this is a
/// valid lower bound on `OPT_RBP`, which makes it directly comparable to the
/// exact optimum in tests and experiments.
pub fn rbp_initial_bound(dag: &Dag, config: RbpConfig, heuristic: &dyn LowerBound) -> usize {
    let words = engine::rbp_start_words(dag);
    heuristic.rbp_bound(dag, config, &RbpStateView::new(&words, dag.node_count()))
}

/// Evaluate a heuristic on the *initial* PRBP state (blue pebbles on all
/// sources, all edges unmarked). For an admissible heuristic this is a valid
/// lower bound on `OPT_PRBP`.
pub fn prbp_initial_bound(dag: &Dag, config: PrbpConfig, heuristic: &dyn LowerBound) -> usize {
    let words = engine::prbp_start_words(dag);
    heuristic.prbp_bound(
        dag,
        config,
        &PrbpStateView::new(&words, dag.node_count(), dag.edge_count()),
    )
}

/// Proven optimal RBP cost through a sequential load-count engine solve.
#[cfg(test)]
pub(crate) fn rbp_opt(dag: &Dag, config: RbpConfig) -> Result<usize, ExactError> {
    let engine = engine::EngineConfig::default();
    engine::solve_rbp(dag, config, &engine, &LoadCountHeuristic, None).map(|out| out.cost)
}

/// Proven optimal PRBP cost through a sequential load-count engine solve.
#[cfg(test)]
pub(crate) fn prbp_opt(dag: &Dag, config: PrbpConfig) -> Result<usize, ExactError> {
    let engine = engine::EngineConfig::default();
    engine::solve_prbp(dag, config, &engine, &LoadCountHeuristic, None).map(|out| out.cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{solve_prbp, solve_rbp, EngineConfig};
    use pebble_dag::DagBuilder;

    fn fork() -> Dag {
        // a, b -> c: RBP needs r >= 3, PRBP works with r = 2.
        let mut b = DagBuilder::new();
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[2]);
        b.add_edge(n[1], n[2]);
        b.build().unwrap()
    }

    #[test]
    fn optimal_cost_dispatches_both_models() {
        let g = fork();
        assert_eq!(rbp_opt(&g, RbpConfig::new(3)).unwrap(), 3);
        assert_eq!(rbp_opt(&g, RbpConfig::new(2)), Err(ExactError::Unsolvable));
        assert_eq!(prbp_opt(&g, PrbpConfig::new(2)).unwrap(), 3);
        assert_eq!(prbp_opt(&g, PrbpConfig::new(3)).unwrap(), 3);
    }

    #[test]
    fn error_display() {
        assert!(ExactError::Unsolvable.to_string().contains("no valid"));
        assert!(ExactError::StateLimitExceeded { explored: 7 }
            .to_string()
            .contains('7'));
        assert!(ExactError::Interrupted { explored: 9 }
            .to_string()
            .contains("interrupted"));
    }

    #[test]
    fn with_variants_report_consistent_stats() {
        let g = fork();
        let engine = EngineConfig::default();
        let solved = solve_rbp(&g, RbpConfig::new(3), &engine, &ZeroHeuristic, None).unwrap();
        assert_eq!(solved.cost, 3);
        assert!(solved.stats.distinct >= solved.stats.expanded);
        assert!(solved.stats.generated >= solved.stats.expanded);
        let config = PrbpConfig::new(2);
        let solved = solve_prbp(&g, config, &engine, &LoadCountHeuristic, None).unwrap();
        assert_eq!(solved.cost, 3);
        assert_eq!(solved.trace.validate(&g, config).unwrap(), solved.cost);
    }

    #[test]
    fn initial_bounds_do_not_exceed_optima() {
        let g = fork();
        let h = rbp_initial_bound(&g, RbpConfig::new(3), &LoadCountHeuristic);
        assert!(h <= rbp_opt(&g, RbpConfig::new(3)).unwrap());
        let h = prbp_initial_bound(&g, PrbpConfig::new(2), &LoadCountHeuristic);
        assert!(h <= prbp_opt(&g, PrbpConfig::new(2)).unwrap());
    }

    /// A solve stopped after three distinct states.
    fn tiny_budget() -> EngineConfig {
        EngineConfig {
            node_budget: Some(3),
            ..EngineConfig::default()
        }
    }

    mod rbp {
        use super::super::*;
        use super::tiny_budget;
        use crate::engine::{solve_rbp, EngineConfig};
        use pebble_dag::generators::{binary_tree, fig1_full, pyramid};
        use pebble_dag::DagBuilder;

        #[test]
        fn chain_has_trivial_cost_only() {
            let mut b = DagBuilder::new();
            let n = b.add_nodes(4);
            for w in n.windows(2) {
                b.add_edge(w[0], w[1]);
            }
            let g = b.build().unwrap();
            assert_eq!(rbp_opt(&g, RbpConfig::new(2)).unwrap(), 2);
        }

        #[test]
        fn infeasible_when_cache_too_small() {
            let g = super::fork();
            assert_eq!(rbp_opt(&g, RbpConfig::new(2)), Err(ExactError::Unsolvable));
            // Sliding reduces the requirement by one pebble.
            assert_eq!(rbp_opt(&g, RbpConfig::new(2).with_sliding()).unwrap(), 3);
        }

        #[test]
        fn fig1_optimum_is_three_with_r4() {
            // Proposition 4.2: OPT_RBP = 3.
            let f = fig1_full();
            assert_eq!(rbp_opt(&f.dag, RbpConfig::new(4)).unwrap(), 3);
        }

        #[test]
        fn fig1_recomputation_reaches_two() {
            // Appendix B.1: with re-computation, OPT_RBP drops to 2 on Figure 1.
            let f = fig1_full();
            let config = RbpConfig::new(4).with_recompute();
            assert_eq!(rbp_opt(&f.dag, config).unwrap(), 2);
        }

        #[test]
        fn fig1_sliding_reaches_two() {
            // Appendix B.2: with sliding pebbles, OPT_RBP also drops to 2 on
            // Figure 1.
            let f = fig1_full();
            let config = RbpConfig::new(4).with_sliding();
            assert_eq!(rbp_opt(&f.dag, config).unwrap(), 2);
        }

        #[test]
        fn binary_tree_depth2_matches_formula() {
            // Appendix A.2 formula: the non-trivial I/O is 2^d - 2 and the
            // trivial cost is 2^d + 1 for depth d with r = 3.
            let d = 2;
            let g = binary_tree(d);
            let expected = (1usize << d) + 1 + ((1usize << d) - 2);
            assert_eq!(rbp_opt(&g, RbpConfig::new(3)).unwrap(), expected);
        }

        #[test]
        fn optimal_trace_replays_to_optimal_cost() {
            let f = fig1_full();
            let config = RbpConfig::new(4);
            let engine = EngineConfig::default();
            let out = solve_rbp(&f.dag, config, &engine, &LoadCountHeuristic, None).unwrap();
            assert_eq!(out.cost, 3);
            assert_eq!(out.trace.validate(&f.dag, config).unwrap(), 3);
        }

        #[test]
        fn pyramid_with_ample_cache_has_trivial_cost() {
            let p = pyramid(4);
            let trivial = p.dag.trivial_cost();
            assert_eq!(rbp_opt(&p.dag, RbpConfig::new(10)).unwrap(), trivial);
        }

        #[test]
        fn state_limit_is_reported() {
            let f = fig1_full();
            let config = RbpConfig::new(4);
            let result = solve_rbp(&f.dag, config, &tiny_budget(), &LoadCountHeuristic, None);
            assert!(matches!(result, Err(ExactError::StateLimitExceeded { .. })));
        }

        #[test]
        fn stats_are_populated_and_zero_expands_more() {
            let f = fig1_full();
            let config = RbpConfig::new(4);
            let engine = EngineConfig::default();
            let zero = solve_rbp(&f.dag, config, &engine, &ZeroHeuristic, None).unwrap();
            let load = solve_rbp(&f.dag, config, &engine, &LoadCountHeuristic, None).unwrap();
            assert_eq!(zero.cost, load.cost);
            assert!(zero.stats.expanded > 0 && load.stats.expanded > 0);
            assert!(load.stats.expanded <= zero.stats.expanded);
            assert!(load.stats.distinct > 0);
        }
    }

    mod prbp {
        use super::super::*;
        use super::tiny_budget;
        use crate::engine::{solve_prbp, EngineConfig};
        use pebble_dag::generators::{fig1_full, fig1_gadget};
        use pebble_dag::DagBuilder;

        fn chain(len: usize) -> Dag {
            let mut b = DagBuilder::new();
            let n = b.add_nodes(len);
            for w in n.windows(2) {
                b.add_edge(w[0], w[1]);
            }
            b.build().unwrap()
        }

        #[test]
        fn chain_needs_only_trivial_cost_with_r2() {
            assert_eq!(prbp_opt(&chain(5), PrbpConfig::new(2)).unwrap(), 2);
        }

        #[test]
        fn high_in_degree_node_pebbled_with_two_reds() {
            // A single aggregation node with 4 inputs: RBP would need r = 5,
            // PRBP manages with r = 2 at trivial cost.
            let mut b = DagBuilder::new();
            let srcs = b.add_nodes(4);
            let sink = b.add_node();
            for &s in &srcs {
                b.add_edge(s, sink);
            }
            let g = b.build().unwrap();
            assert_eq!(prbp_opt(&g, PrbpConfig::new(2)).unwrap(), 5);
        }

        #[test]
        fn cache_of_one_is_unsolvable() {
            assert_eq!(
                prbp_opt(&chain(2), PrbpConfig::new(1)),
                Err(ExactError::Unsolvable)
            );
        }

        #[test]
        fn fig1_optimum_is_two_with_r4() {
            // Proposition 4.2: OPT_PRBP = 2.
            let f = fig1_full();
            assert_eq!(prbp_opt(&f.dag, PrbpConfig::new(4)).unwrap(), 2);
        }

        #[test]
        fn fig1_gadget_alone_costs_four_with_r4() {
            // The standalone 8-node gadget: 2 sources + 2 sinks = trivial
            // cost 4, and PRBP achieves it.
            let g = fig1_gadget();
            assert_eq!(prbp_opt(&g.dag, PrbpConfig::new(4)).unwrap(), 4);
        }

        #[test]
        fn optimal_trace_replays_to_optimal_cost() {
            let f = fig1_full();
            let config = PrbpConfig::new(4);
            let engine = EngineConfig::default();
            let out = solve_prbp(&f.dag, config, &engine, &LoadCountHeuristic, None).unwrap();
            assert_eq!(out.cost, 2);
            assert_eq!(out.trace.validate(&f.dag, config).unwrap(), 2);
        }

        #[test]
        fn prbp_never_beats_rbp_from_below_on_chain() {
            // Sanity: on a plain chain both models have the same optimum.
            let g = chain(4);
            let rbp = rbp_opt(&g, RbpConfig::new(2)).unwrap();
            let prbp = prbp_opt(&g, PrbpConfig::new(2)).unwrap();
            assert_eq!(rbp, prbp);
        }

        #[test]
        fn state_limit_is_reported() {
            let f = fig1_full();
            let config = PrbpConfig::new(4);
            let result = solve_prbp(&f.dag, config, &tiny_budget(), &LoadCountHeuristic, None);
            assert!(matches!(result, Err(ExactError::StateLimitExceeded { .. })));
        }

        #[test]
        fn stats_are_populated_and_zero_expands_more() {
            let f = fig1_full();
            let config = PrbpConfig::new(4);
            let engine = EngineConfig::default();
            let zero = solve_prbp(&f.dag, config, &engine, &ZeroHeuristic, None).unwrap();
            let load = solve_prbp(&f.dag, config, &engine, &LoadCountHeuristic, None).unwrap();
            assert_eq!(zero.cost, load.cost);
            assert!(load.stats.expanded <= zero.stats.expanded);
        }
    }
}
