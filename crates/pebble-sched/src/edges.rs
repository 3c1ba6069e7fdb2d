//! Edge-order greedy scheduling: the one PRBP greedy loop.
//!
//! PRBP's partial compute aggregates one in-edge at a time, so a greedy
//! PRBP schedule is fully described by the sequence of edges it
//! aggregates. [`greedy_prbp_edges`] schedules an explicit edge sequence;
//! [`crate::greedy_prbp`] runs the same loop on the by-target sequence of a
//! node order ([`by_target_edges`]), each node's in-edges back to back.
//! An explicit sequence can do what no node order can: let a high-fan-in
//! node (a matmul accumulator, an attention score) absorb one input at a
//! time, with each input produced just-in-time and deleted immediately.
//! That makes the tiled matmul / streaming attention access patterns
//! expressible as a *generic* greedy run (see `compose`).
//!
//! The edge sequence must be *complete* (every edge exactly once) and
//! *source-complete* (all in-edges of `u` appear before any edge `(u, v)`).
//! An explicit sequence is verified up-front in `O(n + m)`, and an invalid
//! one returns `None`; the by-target sequence of a topological order is
//! both by construction. Evictions follow Belady's rule, with next-use
//! distances measured in edge positions. Victims come from the indexed
//! eviction queue (the crate-private `eviction` module): a node's next
//! occurrence changes only when the sequence reaches an edge it is an
//! endpoint of, so each edge costs `O(log r)` in the queue instead of a
//! scan over the red nodes. A consumed non-sink input is deleted at once,
//! a finished sink is saved and deleted at once, and a spilled partial
//! value is loaded back before it absorbs its next input.
//!
//! The queue's index keeps every node's occurrences — the positions of the
//! edges it is an endpoint of, `2m` entries in all — in one flat `u32`
//! array, and one 16-byte slot per node: its `u64` eviction key (the next
//! occurrence *strictly after* the current edge in 32 bits, whether the
//! eviction is free in 1 bit, the inverted node id in 31 bits), a `u32`
//! cursor into its occurrences and the end of its list with the red and
//! dirty flags in its top two bits. The loop reads its sequence through an
//! iterator, twice: once to fill the index, once to schedule. So PRBP greedy
//! takes DAGs of fewer than 2³¹ nodes and 2²⁹ edges on every path, and
//! returns `None` beyond that.

use crate::eviction::EvictionIndex;
use pebble_dag::{Dag, EdgeId, NodeId};
use pebble_game::moves::PrbpMove;
use pebble_game::prbp::{PebbleState, PrbpConfig};
use pebble_game::sink::MoveSink;
use pebble_game::trace::PrbpTrace;
use pebble_game::PrbpBuilder;

/// Schedule `dag` in PRBP with cache size `r` by processing `edges` in the
/// given order, evicting by Belady's rule. Returns the trace and the I/O
/// cost the simulator counted as it applied each move. Works for any
/// `r ≥ 2`; returns `None` below that, when `edges` is not a complete,
/// source-complete edge sequence, and beyond the size limits of the module
/// docs.
pub fn greedy_prbp_edges(dag: &Dag, r: usize, edges: &[EdgeId]) -> Option<(PrbpTrace, usize)> {
    if edges.len() != dag.edge_count() {
        return None;
    }
    // Validate: every edge once, and every in-edge of `u` before any (u, v).
    let mut seen = dag.edge_set();
    let mut in_done = vec![0u32; dag.node_count()];
    for &e in edges {
        if e.index() >= dag.edge_count() || seen.contains(e.index()) {
            return None;
        }
        seen.insert(e.index());
        let (u, v) = dag.edge_endpoints(e);
        if in_done[u.index()] as usize != dag.in_degree(u) {
            return None;
        }
        in_done[v.index()] += 1;
    }
    let pairs = edges.iter().map(|&e| dag.edge_endpoints(e));
    run(dag, r, pairs, PrbpTrace::new()).map(|(trace, io, _)| (trace, io))
}

/// The PRBP greedy loop on `edges`, a complete, source-complete edge
/// sequence given as `(source, target)` pairs (the callers check it),
/// streaming every validated move into `sink`. Returns the sink, the I/O
/// cost and the eviction index's work count (key refreshes plus heap pops),
/// or `None` for `r < 2` and beyond the size limits of the module docs.
///
/// Every move goes through the simulator, so the cost is the one a replay
/// of the moves gives: an illegal move panics, and so does a schedule that
/// ends short of the terminal state (either is a bug here, since the
/// sequence is complete and source-complete).
pub(crate) fn run<S: MoveSink<PrbpMove>>(
    dag: &Dag,
    r: usize,
    edges: impl DoubleEndedIterator<Item = (NodeId, NodeId)> + Clone,
    sink: S,
) -> Option<(S, usize, u64)> {
    if r < 2 {
        return None;
    }
    let mut red = EvictionIndex::for_edges(dag, edges.clone())?;
    let mut builder = PrbpBuilder::with_sink(dag, PrbpConfig::new(r), sink);

    for (t, (u, v)) in edges.enumerate() {
        red.begin_position(t);
        let needed = usize::from(!red.contains(u)) + usize::from(!red.contains(v));
        while red.len() + needed > r {
            let victim = red.pop_victim(
                |w| w == u || w == v,
                |w| {
                    let game = builder.game();
                    // A sink has no out-edges, but it is dead only once it
                    // has absorbed every input.
                    let dead = game.unmarked_out_degree(w) == 0 && game.unmarked_in_degree(w) == 0;
                    let dark = game.pebble_state(w) == PebbleState::DarkRed;
                    (dead, !dark || (dead && !dag.is_sink(w)))
                },
            );
            builder.evict(victim).expect("victim is evictable");
        }
        if !red.contains(u) {
            // `u` is fully computed (source-completeness) and not red: its
            // value was saved when it was evicted, so a blue copy exists.
            builder.ensure_red(u).expect("u has a blue copy");
            red.insert(u);
        }
        if !red.contains(v) {
            if builder.game().pebble_state(v) == PebbleState::Blue {
                // A partially aggregated value that was spilled: bring it
                // back before aggregating into it (a blue-only target would
                // lose its partial value).
                builder.push(PrbpMove::Load(v)).expect("v has a blue copy");
            }
            red.insert(v);
        }
        builder
            .push(PrbpMove::PartialCompute { from: u, to: v })
            .expect("edge aggregation is legal");
        red.touch(u);
        red.touch(v);
        // A fully consumed non-sink input dies immediately, freeing its slot.
        if builder.game().unmarked_out_degree(u) == 0 && !dag.is_sink(u) {
            builder.evict(u).expect("dead value evicts for free");
            red.remove(u);
        }
        // A completed sink is saved and dropped on the spot.
        if dag.is_sink(v) && builder.game().unmarked_in_degree(v) == 0 {
            builder.push(PrbpMove::Save(v)).expect("sink is dark red");
            builder.push(PrbpMove::Delete(v)).expect("light red delete");
            red.remove(v);
        }
    }
    let work = red.work();
    let (sink, game) = builder.finish();
    assert!(game.is_terminal(), "the edge loop must end terminal");
    Some((sink, game.io_cost(), work))
}

/// A shared-input-affinity edge order for DAGs whose non-source nodes all
/// have out-degree ≤ 1 (sink-cone components): process the cone nodes by
/// (level, descending-sorted predecessor ids); at each node emit its
/// source in-edges followed by its single out-edge. Accumulators absorb one
/// input at a time while consumers of the same source run back to back.
/// Returns `None` when some non-source node has out-degree ≥ 2.
pub fn cone_affinity_edges(dag: &Dag) -> Option<Vec<EdgeId>> {
    let n = dag.node_count();
    for v in dag.nodes() {
        if !dag.is_source(v) && dag.out_degree(v) > 1 {
            return None;
        }
    }
    let levels = pebble_dag::topo::levels(dag);
    let mut pi: Vec<NodeId> = dag.nodes().filter(|&v| !dag.is_source(v)).collect();
    let key: Vec<Vec<usize>> = (0..n)
        .map(|i| {
            let v = NodeId::from_index(i);
            if dag.is_source(v) {
                Vec::new()
            } else {
                let mut preds: Vec<usize> = dag.predecessors(v).map(|u| u.index()).collect();
                preds.sort_unstable_by(|a, b| b.cmp(a));
                preds
            }
        })
        .collect();
    pi.sort_by(|&a, &b| {
        (levels[a.index()], &key[a.index()], a.index()).cmp(&(
            levels[b.index()],
            &key[b.index()],
            b.index(),
        ))
    });
    let mut edges = Vec::with_capacity(dag.edge_count());
    for &v in &pi {
        for &(u, e) in dag.in_edges(v) {
            if dag.is_source(u) {
                edges.push(e);
            }
        }
        if let Some(&(_, e)) = dag.out_edges(v).first() {
            edges.push(e);
        }
    }
    debug_assert_eq!(edges.len(), dag.edge_count());
    Some(edges)
}

/// The by-target edge order of `order`: for each node of the order, its
/// in-edges in CSR order. On a topological order it is the sequence
/// [`crate::greedy_prbp`] schedules. Useful as a baseline edge sequence and
/// in tests.
pub fn by_target_edges(dag: &Dag, order: &[NodeId]) -> Vec<EdgeId> {
    let mut edges = Vec::with_capacity(dag.edge_count());
    for &v in order {
        for &(_, e) in dag.in_edges(v) {
            edges.push(e);
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order;
    use crate::policy::FurthestInFuture;
    use pebble_dag::generators::{attention_qk, fft, matmul};

    #[test]
    fn by_target_edges_match_node_greedy_validity() {
        let dag = fft(16).dag;
        let ord = order::natural(&dag);
        let edges = by_target_edges(&dag, &ord);
        let (trace, cost) = greedy_prbp_edges(&dag, 4, &edges).unwrap();
        assert_eq!(trace.validate(&dag, PrbpConfig::new(4)), Ok(cost));
        let node_trace = crate::greedy_prbp(&dag, 4, &ord, &mut FurthestInFuture);
        assert_eq!(node_trace, Some(trace));
    }

    #[test]
    fn invalid_edge_sequences_are_rejected() {
        let dag = fft(8).dag;
        let ord = order::natural(&dag);
        let edges = by_target_edges(&dag, &ord);
        let mut rev = edges.clone();
        rev.reverse();
        assert!(greedy_prbp_edges(&dag, 4, &rev).is_none());
        assert!(greedy_prbp_edges(&dag, 4, &edges[1..]).is_none());
        let mut dup = edges.clone();
        dup[0] = dup[1];
        assert!(greedy_prbp_edges(&dag, 4, &dup).is_none());
        assert!(greedy_prbp_edges(&dag, 1, &edges).is_none());
    }

    #[test]
    fn cone_order_streams_matmul_accumulators() {
        // On a matmul the affinity edge order visits products k-major and
        // forwards each product into its accumulator immediately, so the
        // working set is accumulators + one input row/column — far below
        // what the node-order greedy needs for the same instance.
        let mm = matmul(4, 4, 4).dag;
        let r = 4 * 4 + 2 * 4 + 2; // t² accumulators + 2t inputs + transient
        let edges = cone_affinity_edges(&mm).unwrap();
        let (trace, cost) = greedy_prbp_edges(&mm, r, &edges).unwrap();
        assert_eq!(trace.validate(&mm, PrbpConfig::new(r)), Ok(cost));
        // Spill-free: every source loaded once, every sink saved once.
        assert_eq!(cost, mm.trivial_cost());

        let ord = order::dfs_postorder(&mm);
        let node_trace = crate::greedy_prbp(&mm, r, &ord, &mut FurthestInFuture).unwrap();
        let node_cost = node_trace.validate(&mm, PrbpConfig::new(r)).unwrap();
        assert!(cost <= node_cost);
    }

    #[test]
    fn cone_order_applies_to_attention_qk() {
        let att = attention_qk(4, 2).dag;
        let edges = cone_affinity_edges(&att).unwrap();
        let r = 16 + 2 * 4 * 2 + 2;
        let (trace, cost) = greedy_prbp_edges(&att, r, &edges).unwrap();
        assert_eq!(cost, att.trivial_cost());
        assert_eq!(trace.validate(&att, PrbpConfig::new(r)), Ok(cost));
    }

    #[test]
    fn cone_order_rejects_fanout_dags() {
        assert!(cone_affinity_edges(&fft(8).dag).is_none());
    }

    #[test]
    fn a_sink_still_aggregating_is_not_evicted_as_dead() {
        // A half-aggregated accumulator is live: ranking it as dead would
        // save and evict it ahead of every live value, then load it back.
        let mm = matmul(8, 8, 8).dag;
        let edges = cone_affinity_edges(&mm).unwrap();
        for (r, expected) in [(16usize, 1_008usize), (24, 880), (32, 766), (64, 318)] {
            let (trace, cost) = greedy_prbp_edges(&mm, r, &edges).unwrap();
            assert_eq!(cost, expected, "r = {r}");
            assert_eq!(trace.validate(&mm, PrbpConfig::new(r)), Ok(cost));
        }
    }

    #[test]
    fn spilled_accumulators_reload_correctly() {
        // Tiny cache on a matmul forces accumulator spills; the executor
        // must reload blue-only partial values before aggregating into them.
        let mm = matmul(3, 3, 3).dag;
        let edges = cone_affinity_edges(&mm).unwrap();
        for r in [2usize, 3, 4, 6] {
            let (trace, cost) = greedy_prbp_edges(&mm, r, &edges).unwrap();
            assert_eq!(trace.validate(&mm, PrbpConfig::new(r)), Ok(cost));
            assert!(cost >= mm.trivial_cost());
        }
    }
}
