//! Greedy topological schedulers: process the nodes in a fixed compute
//! order, loading inputs on demand and evicting by Belady's rule
//! ([`FurthestInFuture`]).
//!
//! PRBP aggregates one in-edge at a time, so [`greedy_prbp`] is the PRBP
//! edge loop of [`crate::edges`] run on the by-target sequence of the order
//! ([`crate::edges::by_target_edges`]): each node's in-edges back to back,
//! each consumed input deleted at once. [`greedy_rbp`] computes a node from
//! all of its inputs at once, in its own loop here.
//!
//! Every move is pushed through the validated trace builders of
//! `pebble-game`, so an internal inconsistency fails at the offending move,
//! and the I/O cost an executor returns is the simulator's own count.
//!
//! The executors come in two forms: [`greedy_prbp`] / [`greedy_rbp`] collect
//! the moves into a trace, while [`greedy_prbp_into`] / [`greedy_rbp_into`]
//! stream every validated move into a caller-supplied
//! [`MoveSink`] — the memory-bounded path that lets
//! million-node DAGs be scheduled and certified without ever materialising a
//! move vector.
//!
//! The caller-supplied compute order is validated up-front (`O(n + m)`); a
//! non-topological or incomplete order returns `None` in release builds too,
//! instead of tripping an assertion deep inside the trace builder.
//!
//! Complexity: `O(n + m)` for the order check and the eviction index, plus
//! `O(log r)` per touched node for the indexed eviction queue the executors
//! share (the crate-private `eviction` module): `O((n + m) log r)` in total,
//! so the million-node FFT schedules in about the same time at r = 2048 as
//! at r = 16.
//!
//! The index keeps the use positions of every node in one flat `u32`
//! array — its consumers' positions in the order for RBP, `m` entries in
//! all, and the positions of the edges it is an endpoint of for PRBP, `2m`
//! — and one 16-byte slot per node: its current eviction key, a `u32`
//! cursor into its positions and the end of its list, with its red and
//! dirty flags in the end's top two bits. A key is one `u64`: the next
//! use's position in 32 bits (a dead value's `NEVER` as `u32::MAX`),
//! whether the eviction is free in 1 bit and the inverted node id in 31
//! bits ([`crate::EvictionKey`]). So the executors take DAGs of fewer than
//! 2³¹ nodes, and of fewer than 2³⁰ edges for RBP and 2²⁹ for PRBP; they
//! return `None` beyond that, as they do for a cache too small to schedule
//! in.

use crate::edges;
use crate::eviction::EvictionIndex;
use crate::policy::FurthestInFuture;
use pebble_dag::{topo, Dag, NodeId};
use pebble_game::moves::{PrbpMove, RbpMove};
use pebble_game::rbp::RbpConfig;
use pebble_game::sink::MoveSink;
use pebble_game::trace::{PrbpTrace, RbpTrace};
use pebble_game::RbpBuilder;

/// Schedule `dag` in PRBP with cache size `r`, processing the nodes of
/// `order` (a topological order covering every node) and evicting by
/// Belady's rule. Works for any `r ≥ 2`; returns `None` below that,
/// `None` when `order` is not a topological order covering every node
/// exactly once, and `None` beyond the size limits of the module docs.
///
/// The in-edges of each node are aggregated one at a time, so at most two
/// pebbles (the current input and the accumulator) are ever pinned, and an
/// input is deleted as soon as its last consumer has absorbed it.
pub fn greedy_prbp(
    dag: &Dag,
    r: usize,
    order: &[NodeId],
    policy: &mut FurthestInFuture,
) -> Option<PrbpTrace> {
    greedy_prbp_into(dag, r, order, policy, PrbpTrace::new()).map(|(trace, _)| trace)
}

/// Streaming form of [`greedy_prbp`]: every validated move is forwarded to
/// `sink` instead of being collected, so the executor runs in `O(n + m)`
/// memory regardless of how many moves the schedule contains. Returns the
/// sink and the executor's I/O cost, or `None` under the same conditions as
/// [`greedy_prbp`] (`r < 2`, invalid order, size limits).
pub fn greedy_prbp_into<S: MoveSink<PrbpMove>>(
    dag: &Dag,
    r: usize,
    order: &[NodeId],
    _policy: &mut FurthestInFuture,
    sink: S,
) -> Option<(S, usize)> {
    // Validate up-front: external callers (the CLI, refinement loops) hand in
    // arbitrary orders. The by-target sequence of a topological order is
    // complete and source-complete, as the edge loop requires.
    if !topo::is_topological_order(dag, order) {
        return None;
    }
    edges::run(dag, r, by_target(dag, order), sink).map(|(sink, io, _)| (sink, io))
}

/// The by-target sequence of `order` as `(source, target)` pairs: for each
/// node of the order, its in-edges in CSR order.
fn by_target<'a>(
    dag: &'a Dag,
    order: &'a [NodeId],
) -> impl DoubleEndedIterator<Item = (NodeId, NodeId)> + Clone + 'a {
    order
        .iter()
        .flat_map(move |&v| dag.in_edges(v).iter().map(move |&(u, _)| (u, v)))
}

/// Schedule `dag` in RBP with cache size `r`, processing the nodes of
/// `order` and evicting by Belady's rule. RBP requires all inputs of a node
/// to be red simultaneously, so this needs `r ≥ Δ_in + 1`; returns `None`
/// below that, `None` when `order` is not a topological order covering
/// every node exactly once, and `None` beyond the size limits of the module
/// docs.
pub fn greedy_rbp(
    dag: &Dag,
    r: usize,
    order: &[NodeId],
    policy: &mut FurthestInFuture,
) -> Option<RbpTrace> {
    greedy_rbp_into(dag, r, order, policy, RbpTrace::new()).map(|(trace, _)| trace)
}

/// Streaming form of [`greedy_rbp`]: every validated move is forwarded to
/// `sink` instead of being collected. Returns the sink and the executor's
/// I/O cost, or `None` under the same conditions as [`greedy_rbp`].
pub fn greedy_rbp_into<S: MoveSink<RbpMove>>(
    dag: &Dag,
    r: usize,
    order: &[NodeId],
    _policy: &mut FurthestInFuture,
    sink: S,
) -> Option<(S, usize)> {
    if r < dag.max_in_degree() + 1 {
        return None;
    }
    if !topo::is_topological_order(dag, order) {
        return None;
    }
    let mut red = EvictionIndex::for_nodes(dag, order)?;
    let mut pinned = vec![false; dag.node_count()];
    // Uncomputed successors per node, maintained incrementally so a
    // candidate is described in O(1).
    let mut remaining: Vec<u32> = dag.nodes().map(|v| dag.out_degree(v) as u32).collect();
    let mut builder = RbpBuilder::with_sink(dag, RbpConfig::new(r), sink);

    for (t, &v) in order.iter().enumerate() {
        if dag.is_source(v) {
            continue;
        }
        red.begin_position(t);
        let mut needed = 1; // the slot for v itself
        for &(u, _) in dag.in_edges(v) {
            pinned[u.index()] = true;
            if !red.contains(u) {
                needed += 1;
            }
        }
        while red.len() + needed > r {
            let victim = red.pop_victim(
                |w| pinned[w.index()] || w == v,
                |w| {
                    // A value whose consumers are all computed is dead, and
                    // dropping it is free.
                    let dead = remaining[w.index()] == 0;
                    (dead, dead || builder.game().has_blue(w))
                },
            );
            builder.evict(victim).expect("victim is evictable");
        }
        for &(u, _) in dag.in_edges(v) {
            if !red.contains(u) {
                builder.ensure_red(u).expect("u has a blue copy");
                red.insert(u);
            }
        }
        builder.push(RbpMove::Compute(v)).expect("inputs are red");
        red.insert(v);
        for &(u, _) in dag.in_edges(v) {
            pinned[u.index()] = false;
            remaining[u.index()] -= 1;
            red.touch(u);
        }
        if dag.is_sink(v) {
            builder.push(RbpMove::Save(v)).expect("sink is red");
            builder.push(RbpMove::Delete(v)).expect("red delete");
            red.remove(v);
        }
    }
    let (sink, game) = builder.finish();
    debug_assert!(game.is_terminal());
    Some((sink, game.io_cost()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::order;
    use pebble_dag::generators::{binary_tree, fft, fig1_full, matmul};
    use pebble_game::prbp::PrbpConfig;

    fn prbp_cost(dag: &Dag, r: usize, ord: &[NodeId]) -> usize {
        let trace = greedy_prbp(dag, r, ord, &mut FurthestInFuture).expect("schedulable");
        trace
            .validate(dag, PrbpConfig::new(r))
            .expect("valid trace")
    }

    #[test]
    fn prbp_greedy_valid_on_structured_dags() {
        for dag in [
            fig1_full().dag,
            binary_tree(4),
            fft(16).dag,
            matmul(3, 3, 3).dag,
        ] {
            let cost = prbp_cost(&dag, 3, &order::natural(&dag));
            assert!(cost >= dag.trivial_cost());
        }
    }

    #[test]
    fn rbp_greedy_valid_and_capacity_gated() {
        let mm = matmul(3, 3, 3);
        let ord = order::natural(&mm.dag);
        assert!(greedy_rbp(&mm.dag, 3, &ord, &mut FurthestInFuture).is_none());
        let trace = greedy_rbp(
            &mm.dag,
            mm.dag.max_in_degree() + 2,
            &ord,
            &mut FurthestInFuture,
        )
        .unwrap();
        let cost = trace
            .validate(&mm.dag, RbpConfig::new(mm.dag.max_in_degree() + 2))
            .unwrap();
        assert!(cost >= mm.dag.trivial_cost());
    }

    /// Replay `moves` under `config`, checking after every move that the
    /// simulator's red counter equals its red set's population. Returns the
    /// I/O cost of the terminal state.
    fn replay_counting_red(dag: &Dag, config: RbpConfig, moves: &[RbpMove]) -> usize {
        let mut game = pebble_game::rbp::RbpGame::new(dag, config);
        for &mv in moves {
            game.apply(mv).unwrap();
            assert_eq!(game.red_count(), game.red_set().count(), "after {mv:?}");
        }
        assert!(game.is_terminal());
        game.io_cost()
    }

    /// `moves` with every compute that leaves an input dead turned into a
    /// slide from that input, and the input's later delete dropped. With
    /// `recompute`, every remaining compute is issued twice, the second time
    /// onto a red node.
    fn with_slides(dag: &Dag, moves: &[RbpMove], recompute: bool) -> Vec<RbpMove> {
        let mut remaining: Vec<usize> = dag.nodes().map(|v| dag.out_degree(v)).collect();
        let mut slid = vec![false; dag.node_count()];
        let mut out = Vec::with_capacity(moves.len());
        for &mv in moves {
            match mv {
                RbpMove::Compute(v) => {
                    let mut dead = None;
                    for u in dag.predecessors(v) {
                        remaining[u.index()] -= 1;
                        if remaining[u.index()] == 0 && dead.is_none() {
                            dead = Some(u);
                        }
                    }
                    match dead {
                        Some(from) => {
                            slid[from.index()] = true;
                            out.push(RbpMove::ComputeSlide { node: v, from });
                        }
                        None => {
                            out.push(mv);
                            if recompute {
                                out.push(mv);
                            }
                        }
                    }
                }
                RbpMove::Delete(u) if slid[u.index()] => {}
                mv => out.push(mv),
            }
        }
        out
    }

    #[test]
    fn rbp_simulator_red_count_follows_a_greedy_trace() {
        for (dag, r) in [(fft(64).dag, 8), (matmul(4, 4, 4).dag, 8)] {
            let trace = greedy_rbp(&dag, r, &order::natural(&dag), &mut FurthestInFuture).unwrap();
            let cost = replay_counting_red(&dag, RbpConfig::new(r), &trace.moves);
            // A slide from a dead input costs no I/O, and neither does a
            // recompute onto a red node.
            let slides = with_slides(&dag, &trace.moves, false);
            assert!(slides
                .iter()
                .any(|mv| matches!(mv, RbpMove::ComputeSlide { .. })));
            let sliding = RbpConfig::new(r).with_sliding();
            assert_eq!(replay_counting_red(&dag, sliding, &slides), cost);
            let recomputes = with_slides(&dag, &trace.moves, true);
            assert!(recomputes.len() > slides.len());
            let both = sliding.with_recompute();
            assert_eq!(replay_counting_red(&dag, both, &recomputes), cost);
        }
    }

    #[test]
    fn prbp_greedy_works_at_minimum_cache() {
        let dag = fft(8).dag;
        let ord = order::natural(&dag);
        assert!(greedy_prbp(&dag, 1, &ord, &mut FurthestInFuture).is_none());
        let cost = prbp_cost(&dag, 2, &ord);
        assert!(cost >= dag.trivial_cost());
    }

    #[test]
    fn ample_cache_reaches_trivial_cost() {
        let dag = binary_tree(4);
        let ord = order::natural(&dag);
        let cost = prbp_cost(&dag, 64, &ord);
        assert_eq!(cost, dag.trivial_cost());
    }

    #[test]
    fn non_topological_orders_are_rejected_not_panicked() {
        // Regression: these entry points used to guard the caller-supplied
        // order with `debug_assert!` only, so in release builds a reversed
        // order panicked via an `.expect(...)` deep inside the trace builder
        // instead of returning `None` as documented.
        let dag = fft(8).dag;
        let mut rev = order::natural(&dag);
        rev.reverse();
        assert!(greedy_prbp(&dag, 4, &rev, &mut FurthestInFuture).is_none());
        assert!(greedy_rbp(&dag, dag.max_in_degree() + 2, &rev, &mut FurthestInFuture).is_none());

        // Incomplete and duplicated orders are rejected the same way.
        let short = &order::natural(&dag)[1..];
        assert!(greedy_prbp(&dag, 4, short, &mut FurthestInFuture).is_none());
        let mut dup = order::natural(&dag);
        dup[0] = dup[1];
        assert!(greedy_prbp(&dag, 4, &dup, &mut FurthestInFuture).is_none());
    }

    #[test]
    fn streaming_executor_matches_the_materialised_trace() {
        use pebble_game::sink::CountingSink;
        let dag = fft(16).dag;
        let r = 4;
        let ord = order::natural(&dag);
        let trace = greedy_prbp(&dag, r, &ord, &mut FurthestInFuture).unwrap();
        let (sink, io) =
            greedy_prbp_into(&dag, r, &ord, &mut FurthestInFuture, CountingSink::new()).unwrap();
        assert_eq!(sink.moves, trace.len());
        assert_eq!(sink.io, trace.io_cost());
        assert_eq!(io, trace.io_cost());

        let rtrace = greedy_rbp(&dag, r + 4, &ord, &mut FurthestInFuture).unwrap();
        let (rsink, rio) = greedy_rbp_into(
            &dag,
            r + 4,
            &ord,
            &mut FurthestInFuture,
            CountingSink::new(),
        )
        .unwrap();
        assert_eq!(rsink.moves, rtrace.len());
        assert_eq!(rio, rtrace.io_cost());
    }

    // A wall-clock ratio, so release builds only (CI runs this crate's
    // tests in release).
    #[cfg(not(debug_assertions))]
    #[test]
    fn rbp_simulator_work_per_move_does_not_grow_with_the_dag() {
        // A move touches its node and its in-edges, so replaying a trace
        // costs about the same per move on a 2,304-node FFT as on a
        // 245,760-node one. Work that scans the red set per move, such as
        // recounting it, reads n / 64 words: 36 against 3,840, a ratio far
        // above the bound below. The best of five replays keeps a noisy
        // machine from failing the test.
        use pebble_game::rbp::RbpGame;
        use std::time::Instant;
        let seconds_per_move = |m: usize| {
            let dag = fft(m).dag;
            let r = 16;
            let ord = order::dfs_postorder(&dag);
            let moves = greedy_rbp(&dag, r, &ord, &mut FurthestInFuture)
                .unwrap()
                .moves;
            let best = (0..5)
                .map(|_| {
                    let mut game = RbpGame::new(&dag, RbpConfig::new(r));
                    let started = Instant::now();
                    game.run(moves.iter().copied()).expect("valid trace");
                    started.elapsed()
                })
                .min()
                .unwrap();
            best.as_secs_f64() / moves.len() as f64
        };
        let (small, large) = (seconds_per_move(256), seconds_per_move(16384));
        assert!(
            large <= 8.0 * small,
            "{:.1} ns per move on fft-16384 against {:.1} ns on fft-256",
            large * 1e9,
            small * 1e9
        );
    }

    #[test]
    fn eviction_work_does_not_grow_with_the_cache() {
        // The eviction queue's work (key refreshes plus heap pops) is the
        // hardware-independent form of "r = 2048 within 1.5x of r = 16": a
        // full scan of the red set per eviction grew it 126x over that range
        // on fft-16384.
        use pebble_game::sink::CountingSink;
        let dag = fft(4096).dag;
        let ord = order::dfs_postorder(&dag);
        let work = |r| {
            let pairs = by_target(&dag, &ord);
            let (_, _, work) = edges::run(&dag, r, pairs, CountingSink::new()).unwrap();
            work
        };
        let (small, large) = (work(16), work(2048));
        let size = (dag.node_count() + dag.edge_count()) as u64;
        assert!(
            2 * large <= 3 * small,
            "r=2048 work {large} vs r=16 {small}"
        );
        assert!(
            small.max(large) <= 3 * size,
            "work {small}/{large} vs n + m = {size}"
        );
    }

    #[test]
    fn dfs_order_beats_natural_on_matmul() {
        // The layer-major order opens every output accumulator long before
        // its products arrive; the DFS postorder computes each accumulator's
        // products right before aggregating them, which is what keeps the
        // accumulators resident. This locality win is why the DFS order is
        // part of the default portfolio.
        let mm = matmul(8, 8, 8);
        let r = 24;
        let nat = prbp_cost(&mm.dag, r, &order::natural(&mm.dag));
        let dfs = prbp_cost(&mm.dag, r, &order::dfs_postorder(&mm.dag));
        assert!(dfs < nat, "dfs {dfs} >= natural {nat}");
    }
}
