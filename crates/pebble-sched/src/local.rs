//! Local-search refinement of a schedule.
//!
//! The search state is a *compute order* (the sequence in which the nodes are
//! completed); two move kinds are explored:
//!
//! * **eviction re-decision** — re-run the greedy executor on the same order
//!   with every shipped [`EvictionPolicy`](crate::policy::EvictionPolicy) and
//!   keep the cheapest result;
//! * **segment re-ordering** — move a contiguous segment of the order to a
//!   different position (seeded, deterministic), keeping the proposal only if
//!   the new order is still topological.
//!
//! Every proposal is *executed through the game simulator* (the greedy
//! executor builds its trace against a live game) and accepted only when the
//! replayed, validated cost strictly decreases — costs are never extrapolated
//! from the order alone.

use crate::greedy::greedy_prbp;
use crate::order;
use crate::policy::all_policies;
use pebble_dag::{topo, Dag, NodeId};
use pebble_game::moves::PrbpMove;
use pebble_game::trace::PrbpTrace;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Parameters for [`local_search_prbp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalConfig {
    /// Number of segment-move proposals.
    pub iterations: usize,
    /// RNG seed (the search is fully deterministic for a given seed).
    pub seed: u64,
    /// Maximum length of a moved segment.
    pub max_segment: usize,
}

impl Default for LocalConfig {
    fn default() -> Self {
        LocalConfig {
            iterations: 200,
            seed: 0x5EED,
            max_segment: 64,
        }
    }
}

/// Recover the compute order of a PRBP trace: sources (in id order) followed
/// by the non-source nodes in the order they became fully computed. Lets the
/// local search refine the output of any scheduler, including the beam.
///
/// Returns `None` when the trace is malformed for this DAG: either it does
/// not complete every node, or it contains more `PartialCompute` moves into
/// some node than that node has in-edges. (Both cases used to be guarded by
/// `debug_assert!` only, so a release build silently returned a truncated
/// order — or wrapped the in-degree counter around — instead of failing.)
pub fn compute_order_of_trace(dag: &Dag, trace: &PrbpTrace) -> Option<Vec<NodeId>> {
    let n = dag.node_count();
    let mut unmarked_in: Vec<u32> = (0..n)
        .map(|i| dag.in_degree(NodeId::from_index(i)) as u32)
        .collect();
    let mut order: Vec<NodeId> = dag.nodes().filter(|&v| dag.is_source(v)).collect();
    for mv in &trace.moves {
        if let PrbpMove::PartialCompute { to, .. } = *mv {
            let left = unmarked_in[to.index()].checked_sub(1)?;
            unmarked_in[to.index()] = left;
            if left == 0 {
                order.push(to);
            }
        }
    }
    if order.len() != n {
        return None;
    }
    Some(order)
}

/// Greedily evaluate `order` with every shipped eviction policy; returns the
/// cheapest `(policy name, trace, validated cost)`.
fn best_policy(dag: &Dag, r: usize, ord: &[NodeId]) -> Option<(&'static str, PrbpTrace, usize)> {
    let mut best: Option<(&'static str, PrbpTrace, usize)> = None;
    for mut p in all_policies() {
        let trace = greedy_prbp(dag, r, ord, p.as_mut())?;
        let cost = trace.io_cost();
        if best.as_ref().map_or(true, |&(_, _, c)| cost < c) {
            best = Some((p.name(), trace, cost));
        }
    }
    best
}

/// Returns `true` if every edge of `dag` is oriented forward under `pos`.
fn is_topological(dag: &Dag, pos: &[usize]) -> bool {
    dag.edges().all(|e| {
        let (u, v) = dag.edge_endpoints(e);
        pos[u.index()] < pos[v.index()]
    })
}

/// Move the segment `v[start .. start + len]` so that it begins at index
/// `dest` of the resulting vector, preserving the relative order of all other
/// elements. `dest` ranges over `0 ..= v.len() - len`; `dest == start` is a
/// no-op.
///
/// Implemented as a single slice rotation: `O(window)` time, no allocation.
/// (The previous implementation drained the segment and re-inserted it
/// element-by-element at `dest` *relative to the drained vector*, which both
/// cost `O(n · len)` and, for `dest > start`, landed the segment `len`
/// positions past the documented destination.)
fn move_segment<T>(v: &mut [T], start: usize, len: usize, dest: usize) {
    if dest < start {
        v[dest..start + len].rotate_right(len);
    } else {
        v[start..dest + len].rotate_left(len);
    }
}

/// Refine the schedule starting from `initial_order` (defaults to the natural
/// order when `None`): pick the best eviction policy for the order, then
/// propose seeded segment moves, re-running the greedy executor on every
/// topologically valid proposal and keeping only strictly cheaper validated
/// results. Returns the refined trace and its cost; `None` for `r < 2` or
/// when `initial_order` is not a topological order covering every node
/// exactly once.
pub fn local_search_prbp(
    dag: &Dag,
    r: usize,
    initial_order: Option<Vec<NodeId>>,
    cfg: LocalConfig,
) -> Option<(PrbpTrace, usize)> {
    if let Some(ord) = &initial_order {
        // Validate here, in release too: a bad caller-supplied order would
        // otherwise only surface as a panic inside the greedy executor.
        if !topo::is_topological_order(dag, ord) {
            return None;
        }
    }
    let mut ord = initial_order.unwrap_or_else(|| order::natural(dag));
    let (_, mut best_trace, mut best_cost) = best_policy(dag, r, &ord)?;

    let n = ord.len();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut pos = vec![0usize; n];
    for _ in 0..cfg.iterations {
        if n < 3 {
            break;
        }
        let len = rng.gen_range(1..=cfg.max_segment.clamp(1, n - 1));
        // Inclusive upper end: a segment may start at (or be moved to) the
        // very tail of the order, position n - len.
        let start = rng.gen_range(0..=n - len);
        let dest = rng.gen_range(0..=n - len);
        if dest == start {
            continue;
        }
        // Move ord[start .. start+len] so that it begins at `dest`.
        let mut cand = ord.clone();
        move_segment(&mut cand, start, len, dest);
        for (i, v) in cand.iter().enumerate() {
            pos[v.index()] = i;
        }
        if !is_topological(dag, &pos) {
            continue;
        }
        // Re-decide the eviction policy on the proposed order, accepting
        // only a strict, simulator-validated improvement.
        let Some((_, trace, cost)) = best_policy(dag, r, &cand) else {
            continue;
        };
        if cost < best_cost {
            best_cost = cost;
            best_trace = trace;
            ord = cand;
        }
    }
    Some((best_trace, best_cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beam::{beam_prbp, BeamConfig};
    use pebble_dag::generators::{fft, fig1_full, random_layered, RandomLayeredConfig};
    use pebble_game::prbp::PrbpConfig;

    #[test]
    fn compute_order_roundtrips_through_beam_traces() {
        let dag = fft(8).dag;
        let trace = beam_prbp(&dag, 4, BeamConfig::adaptive()).unwrap();
        let ord = compute_order_of_trace(&dag, &trace).expect("beam traces are complete");
        assert_eq!(ord.len(), dag.node_count());
        assert!(topo::is_topological_order(&dag, &ord));
    }

    #[test]
    fn compute_order_rejects_incomplete_and_malformed_traces() {
        // Regression: the pre-fix code only `debug_assert`ed completeness, so
        // a release build returned a silently truncated order for incomplete
        // traces — and wrapped `unmarked_in` around on traces with repeated
        // aggregations into the same node.
        let dag = fft(8).dag;
        let full = beam_prbp(&dag, 4, BeamConfig::adaptive()).unwrap();

        // Incomplete: drop the tail of a valid trace.
        let cut = PrbpTrace::from_moves(full.moves[..full.moves.len() / 2].to_vec());
        assert_eq!(compute_order_of_trace(&dag, &cut), None);

        // Malformed: aggregate the same edge more often than the target's
        // in-degree allows; the decrement must not wrap.
        let (u, v) = dag.edge_endpoints(dag.edges().next().unwrap());
        let dup = PrbpTrace::from_moves(vec![
            PrbpMove::PartialCompute { from: u, to: v };
            dag.in_degree(v) + 1
        ]);
        assert_eq!(compute_order_of_trace(&dag, &dup), None);
    }

    #[test]
    fn move_segment_pins_final_positions() {
        // Documented semantics: the segment begins at `dest` in the result.
        let mut v = vec![0, 1, 2, 3, 4, 5];
        move_segment(&mut v, 1, 2, 3); // move [1, 2] so it begins at index 3
        assert_eq!(v, vec![0, 3, 4, 1, 2, 5]);

        let mut v = vec![0, 1, 2, 3, 4, 5];
        move_segment(&mut v, 3, 2, 1); // move [3, 4] so it begins at index 1
        assert_eq!(v, vec![0, 3, 4, 1, 2, 5]);

        // Extremes: to the very front and the very tail.
        let mut v = vec![0, 1, 2, 3, 4];
        move_segment(&mut v, 2, 2, 0);
        assert_eq!(v, vec![2, 3, 0, 1, 4]);
        let mut v = vec![0, 1, 2, 3, 4];
        move_segment(&mut v, 0, 2, 3);
        assert_eq!(v, vec![2, 3, 4, 0, 1]);

        // `dest == start` is a no-op.
        let mut v = vec![0, 1, 2, 3];
        move_segment(&mut v, 1, 2, 1);
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    fn local_search_rejects_invalid_initial_orders() {
        let dag = fig1_full().dag;
        let mut rev = order::natural(&dag);
        rev.reverse();
        assert!(local_search_prbp(&dag, 3, Some(rev), LocalConfig::default()).is_none());
    }

    #[test]
    fn local_search_never_worsens_and_validates() {
        for seed in 0..3 {
            let dag = random_layered(RandomLayeredConfig {
                layers: 5,
                width: 8,
                max_in_degree: 3,
                seed,
            });
            let r = 5;
            let (_, baseline, base_cost) = best_policy(&dag, r, &order::natural(&dag)).unwrap();
            assert_eq!(
                baseline.validate(&dag, PrbpConfig::new(r)).unwrap(),
                base_cost
            );
            let cfg = LocalConfig {
                iterations: 40,
                ..Default::default()
            };
            let (trace, cost) = local_search_prbp(&dag, r, None, cfg).unwrap();
            assert!(cost <= base_cost, "{cost} > {base_cost}");
            assert_eq!(trace.validate(&dag, PrbpConfig::new(r)).unwrap(), cost);
        }
    }

    #[test]
    fn local_search_is_deterministic() {
        let dag = fig1_full().dag;
        let cfg = LocalConfig::default();
        let a = local_search_prbp(&dag, 3, None, cfg).unwrap();
        let b = local_search_prbp(&dag, 3, None, cfg).unwrap();
        assert_eq!(a.1, b.1);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn rejects_tiny_cache() {
        let dag = fig1_full().dag;
        assert!(local_search_prbp(&dag, 1, None, LocalConfig::default()).is_none());
    }
}
