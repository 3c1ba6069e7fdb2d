//! Composable lower bounds: sum per-component admissible bounds with
//! boundary-credit corrections.
//!
//! Take any partition of (a subset of) the nodes into components
//! `C_1, …, C_k`. Every I/O move of a valid schedule `S` touches exactly one
//! node, so `cost(S) = Σ_i c_i(S) + c_rest(S)` where `c_i` counts the I/Os
//! on nodes of `C_i` and `c_rest` the I/Os on unassigned nodes. The bound
//! rests on two facts:
//!
//! 1. **Per-component**: restricting `S` to the *internal* sub-DAG `G_i` of
//!    `C_i` (members only, internal edges only, isolated nodes dropped)
//!    yields a valid pebbling of `G_i` after at most `P_i + Q_i` repairs,
//!    where `P_i` counts *fake sources* (members computed from boundary
//!    values: no internal in-edge but a global one) and `Q_i` counts *fake
//!    sinks* (members whose value leaves the component: no internal
//!    out-edge but a global one). A fake source becomes an `G_i`-source and
//!    needs one inserted load the moment `S` computes it (once — the games
//!    are one-shot); a fake sink is a `G_i`-sink that `S` may discard
//!    unsaved, needing one inserted save. Every other restricted move stays
//!    legal move-for-move: states of members evolve identically except for
//!    dropped cross-edge computes, whose effects the two repairs cover, and
//!    partial-value saves/loads that the restriction drops (dropping only
//!    lowers the cost). Hence `c_i(S) ≥ LB(G_i) − P_i − Q_i` for *any*
//!    admissible lower bound `LB` of the standalone instance `G_i`.
//! 2. **Unassigned sources**: every source must be loaded at least once (its
//!    consumers need it red, and sources cannot be computed), so
//!    `c_rest(S) ≥ #(unassigned sources)`.
//!
//! Summing: `OPT ≥ Σ_i max(0, LB(G_i) − P_i − Q_i) + #unassigned sources`
//! — for **every** partition, connected or not, convex or not. The credits
//! are exactly why decomposition-aware *schedules* beat decomposition-blind
//! *bounds* on tightly coupled DAGs; where the parts are genuinely
//! independent (disjoint weak components: `P_i = Q_i = 0`) the bound is a
//! plain sum and strictly dominates single-instance bounds that mix phases
//! across components.
//!
//! The construction above relies on the one-shot rules; the `clear`
//! (re-computation) variant would make the `P_i` repair count unbounded, so
//! [`composed_prbp_bound`] returns `None` for such configurations.

use pebble_dag::decompose::extract_internal;
use pebble_dag::{Dag, NodeId};
use pebble_game::exact::{self, LoadCountHeuristic};
use pebble_game::prbp::PrbpConfig;
use pebble_game::rbp::RbpConfig;

/// A composable lower bound, decomposed into its contributions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposedBound {
    /// Per-component contribution `max(0, LB(G_i) − P_i − Q_i)`, in input
    /// order. Callers holding stronger per-component knowledge (an exact
    /// optimum of a boundary-free component) may raise individual entries
    /// before summing — see [`ComposedBound::total`].
    pub per_component: Vec<usize>,
    /// Number of source nodes assigned to no component; each contributes one
    /// mandatory load.
    pub unassigned_source_loads: usize,
}

impl ComposedBound {
    /// The composed bound: sum of the per-component contributions plus the
    /// unassigned-source loads.
    pub fn total(&self) -> usize {
        self.per_component.iter().sum::<usize>() + self.unassigned_source_loads
    }
}

/// Evaluate the composable PRBP bound for `partition` (disjoint member
/// lists, each sorted ascending; nodes outside every part are treated as
/// unassigned). Returns `None` for configurations with re-computation
/// enabled (see the module docs).
///
/// Each component is bounded by its load-count bound. The Section 6 phase
/// bounds (Theorems 6.5/6.7) would never raise it: at a sub-DAG's initial
/// state they never exceed load-count (see the crate docs).
pub fn composed_prbp_bound(
    dag: &Dag,
    config: PrbpConfig,
    partition: &[Vec<NodeId>],
) -> Option<ComposedBound> {
    if config.allow_clear {
        return None;
    }
    let per_component = partition
        .iter()
        .map(|members| {
            component_contribution(dag, members, |sub| {
                exact::prbp_initial_bound(sub, config, &LoadCountHeuristic)
            })
        })
        .collect();
    Some(ComposedBound {
        per_component,
        unassigned_source_loads: unassigned_sources(dag, partition),
    })
}

/// Evaluate the composable RBP bound for `partition` (same contract as
/// [`composed_prbp_bound`]; RBP has no re-computation variant, so this is
/// total).
pub fn composed_rbp_bound(
    dag: &Dag,
    config: RbpConfig,
    partition: &[Vec<NodeId>],
) -> ComposedBound {
    let per_component = partition
        .iter()
        .map(|members| {
            component_contribution(dag, members, |sub| {
                exact::rbp_initial_bound(sub, config, &LoadCountHeuristic)
            })
        })
        .collect();
    ComposedBound {
        per_component,
        unassigned_source_loads: unassigned_sources(dag, partition),
    }
}

fn component_contribution(dag: &Dag, members: &[NodeId], bound: impl Fn(&Dag) -> usize) -> usize {
    let Some(internal) = extract_internal(dag, members) else {
        return 0;
    };
    bound(&internal.dag).saturating_sub(internal.fake_sources + internal.fake_sinks)
}

fn unassigned_sources(dag: &Dag, partition: &[Vec<NodeId>]) -> usize {
    let mut assigned = dag.node_set();
    for part in partition {
        for &v in part {
            assigned.insert(v.index());
        }
    }
    dag.nodes()
        .filter(|&v| dag.is_source(v) && !assigned.contains(v.index()))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dag::decompose::{decompose, Strategy};
    use pebble_dag::generators::{binary_tree, fft, matmul};
    use pebble_dag::DagBuilder;
    use pebble_game::engine::{solve_prbp, solve_rbp, EngineConfig};

    fn prbp_opt(dag: &Dag, config: PrbpConfig) -> usize {
        let engine = EngineConfig::default();
        let out = solve_prbp(dag, config, &engine, &LoadCountHeuristic, None);
        out.unwrap().cost
    }

    fn parts_of(dag: &Dag, strategy: Strategy) -> Vec<Vec<NodeId>> {
        decompose(dag, strategy, None)
            .unwrap()
            .components
            .into_iter()
            .map(|c| c.nodes)
            .collect()
    }

    #[test]
    fn disconnected_components_sum_exactly() {
        // Two disjoint trees: the composed bound is the sum of the per-tree
        // bounds, with zero credits.
        let mut b = DagBuilder::new();
        let n = b.add_nodes(6);
        for (u, v) in [(0, 2), (1, 2), (3, 5), (4, 5)] {
            b.add_edge(n[u], n[v]);
        }
        let dag = b.build().unwrap();
        let parts = parts_of(&dag, Strategy::Wcc);
        assert_eq!(parts.len(), 2);
        let config = PrbpConfig::new(2);
        let composed = composed_prbp_bound(&dag, config, &parts).unwrap();
        assert_eq!(composed.unassigned_source_loads, 0);
        assert_eq!(composed.per_component.len(), 2);
        let opt = prbp_opt(&dag, config);
        assert!(composed.total() <= opt, "{} > {}", composed.total(), opt);
        // Each half alone needs 3 I/Os (2 loads + 1 save), and the composed
        // bound sees both halves.
        assert_eq!(composed.total(), 6);
    }

    #[test]
    fn banded_partition_stays_admissible_on_fft() {
        let f = fft(4).dag; // 12 nodes: within exact-solver reach
        let parts = parts_of(&f, Strategy::LevelBands { max_nodes: 8 });
        assert!(parts.len() > 1);
        let config = PrbpConfig::new(3);
        let composed = composed_prbp_bound(&f, config, &parts).unwrap();
        let opt = prbp_opt(&f, config);
        assert!(composed.total() <= opt, "{} > {}", composed.total(), opt);
    }

    #[test]
    fn cone_partition_counts_unassigned_source_loads() {
        let mm = matmul(2, 1, 2).dag; // 12 nodes: within exact-solver reach
        let parts = parts_of(
            &mm,
            Strategy::SinkCones {
                max_nodes: 6,
                max_sinks: 1,
            },
        );
        let config = PrbpConfig::new(3);
        let composed = composed_prbp_bound(&mm, config, &parts).unwrap();
        // All 4 matrix entries are sources no tile owns.
        assert_eq!(composed.unassigned_source_loads, 4);
        let opt = prbp_opt(&mm, config);
        assert!(composed.total() <= opt);
    }

    #[test]
    fn rbp_variant_is_admissible_too() {
        let t = binary_tree(3);
        let parts = parts_of(&t, Strategy::Whole);
        let config = RbpConfig::new(4);
        let composed = composed_rbp_bound(&t, config, &parts);
        let engine = EngineConfig::default();
        let opt = solve_rbp(&t, config, &engine, &LoadCountHeuristic, None)
            .unwrap()
            .cost;
        assert!(composed.total() <= opt);
        // The whole-graph partition reproduces the plain single-instance
        // bound (no credits apply).
        assert!(composed.total() >= t.trivial_cost());
    }

    #[test]
    fn clear_variant_is_refused() {
        let t = binary_tree(2);
        let parts = parts_of(&t, Strategy::Whole);
        assert!(composed_prbp_bound(&t, PrbpConfig::new(2).with_clear(), &parts).is_none());
    }
}
