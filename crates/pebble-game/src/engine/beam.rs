//! Anytime beam search over partial PRBP schedules, inside the engine.
//!
//! A partial schedule is identified with its pebbling configuration in the
//! canonical packed encoding of [`crate::packed`] (the same
//! `[red | blue | marked]` bit planes the exact A* solver interns), so two
//! beam entries that reach the same configuration are merged and only the
//! cheaper survives — a beam-limited version of the solver's transposition
//! table.
//!
//! Search structure: one level per non-source node. Every beam entry proposes
//! its cheapest next nodes (fewest immediate loads among the ready nodes,
//! selected rather than fully sorted), the pooled proposals are ranked by
//! projected cost, and the best `width` distinct successor configurations
//! are materialised. Width 1 degenerates to an *adaptive* greedy scheduler
//! that picks the globally cheapest next node online; larger widths buy
//! schedule quality for more time and memory.
//!
//! Every level rescores each entry's whole ready list, so a solve is
//! superlinear in the DAG size: `pebble-sched`'s compose runs the beams only
//! on components of at most 512 nodes.
//!
//! The engine adds the anytime contract on top of the classic level loop:
//! deadline and budget stops are honoured between macro steps, and an
//! early stop *greedily completes* the best partial schedule so the caller
//! still receives a full, simulator-validated incumbent. The search is
//! sequential: each level materialises proposals in rank order and stops
//! after `width` distinct survivors, so only the children that can enter the
//! beam are ever built.

use super::astar::stop_requested;
use super::domain::Domain;
use super::{EngineConfig, RawOutcome, StopReason};
use crate::exact::{ExactError, LowerBound, SearchStats};
use crate::moves::PrbpMove;
use crate::packed;
use crate::prbp::PrbpConfig;
use pebble_dag::{Dag, NodeId};
use std::rc::Rc;
use std::time::Instant;

/// Node pebble states mirrored from the simulator.
const EMPTY: u8 = 0;
const BLUE: u8 = 1;
const LIGHT: u8 = 2;
const DARK: u8 = 3;

/// Move-chain link: the moves appended by one macro step, linked back to the
/// parent partial schedule. Keeps full traces shareable between beam entries
/// without copying.
struct MoveLink {
    parent: Option<Rc<MoveLink>>,
    moves: Vec<PrbpMove>,
}

/// One partial schedule.
struct Entry {
    /// Pebble state per node.
    state: Vec<u8>,
    /// Unmarked out-edges per node.
    unmarked_out: Vec<u32>,
    /// Predecessors not yet fully computed, per node.
    preds_left: Vec<u32>,
    /// Fully-computed flag per node (sources start `true`).
    completed: Vec<bool>,
    /// Nodes whose predecessors are all computed but which are not themselves
    /// computed; contains every such node at least once (lazily filtered).
    ready: Vec<NodeId>,
    /// The currently red nodes, for `O(r)` eviction scans.
    red_members: Vec<NodeId>,
    io: usize,
    /// Canonical `[red | blue | marked]` packed words, kept incrementally.
    packed: Vec<u64>,
    moves: Option<Rc<MoveLink>>,
}

impl Entry {
    fn initial(dag: &Dag) -> Self {
        let n = dag.node_count();
        let wn = packed::plane_words(n);
        let wm = packed::plane_words(dag.edge_count());
        let mut state = vec![EMPTY; n];
        let mut completed = vec![false; n];
        let mut words = vec![0u64; 2 * wn + wm];
        let mut preds_left = vec![0u32; n];
        for v in dag.nodes() {
            if dag.is_source(v) {
                state[v.index()] = BLUE;
                completed[v.index()] = true;
                packed::set(&mut words[wn..2 * wn], v.index());
            }
            for &(u, _) in dag.in_edges(v) {
                if !dag.is_source(u) {
                    preds_left[v.index()] += 1;
                }
            }
        }
        let ready = dag
            .nodes()
            .filter(|&v| !dag.is_source(v) && preds_left[v.index()] == 0)
            .collect();
        Entry {
            state,
            unmarked_out: dag.nodes().map(|v| dag.out_degree(v) as u32).collect(),
            preds_left,
            completed,
            ready,
            red_members: Vec::new(),
            io: 0,
            packed: words,
            moves: None,
        }
    }

    fn clone_for_child(&self) -> Self {
        Entry {
            state: self.state.clone(),
            unmarked_out: self.unmarked_out.clone(),
            preds_left: self.preds_left.clone(),
            completed: self.completed.clone(),
            ready: self.ready.clone(),
            red_members: self.red_members.clone(),
            io: self.io,
            packed: self.packed.clone(),
            moves: self.moves.clone(),
        }
    }

    /// Place a red pebble on `v` (bookkeeping + packed bit).
    fn make_red(&mut self, wn: usize, v: NodeId) {
        self.red_members.push(v);
        packed::set(&mut self.packed[..wn], v.index());
    }

    /// Remove the red pebble from `v` (bookkeeping + packed bit).
    fn drop_red(&mut self, wn: usize, v: NodeId) {
        let p = self
            .red_members
            .iter()
            .position(|&w| w == v)
            .expect("red member");
        self.red_members.swap_remove(p);
        packed::clear(&mut self.packed[..wn], v.index());
    }

    /// Immediate loads required to complete `v` now: predecessors without a
    /// red pebble.
    fn immediate_loads(&self, dag: &Dag, v: NodeId) -> usize {
        dag.in_edges(v)
            .iter()
            .filter(|&&(u, _)| self.state[u.index()] < LIGHT)
            .count()
    }

    /// Evict one non-pinned red pebble; returns the I/O spent. Preference:
    /// light red pebbles (free), then dark values (save first) — within a
    /// tier, fewest unmarked out-edges first, then smallest id. Every dark
    /// candidate is a *completed* value: the only dark-but-uncompleted node
    /// is the accumulator currently inside [`Entry::complete`], and that one
    /// is always pinned.
    fn evict_one(&mut self, wn: usize, moves: &mut Vec<PrbpMove>, pin_a: NodeId, pin_b: NodeId) {
        let mut best: Option<((u8, u32, usize), NodeId)> = None;
        for &v in &self.red_members {
            if v == pin_a || v == pin_b {
                continue;
            }
            let tier = match self.state[v.index()] {
                LIGHT => 0u8,
                _ => {
                    debug_assert!(
                        self.completed[v.index()],
                        "only the pinned accumulator can be dark and uncompleted"
                    );
                    1
                }
            };
            let key = (tier, self.unmarked_out[v.index()], v.index());
            if best.map_or(true, |(k, _)| key < k) {
                best = Some((key, v));
            }
        }
        let (_, v) = best.expect("r >= 2 guarantees an evictable pebble");
        let vi = v.index();
        if self.state[vi] == DARK {
            moves.push(PrbpMove::Save(v));
            self.io += 1;
            packed::set(&mut self.packed[wn..2 * wn], vi);
        }
        moves.push(PrbpMove::Delete(v));
        self.state[vi] = BLUE;
        self.drop_red(wn, v);
    }

    /// Complete node `v`: aggregate all of its in-edges (loading inputs and
    /// evicting on demand), then save-and-drop if it is a sink. `v` must be
    /// ready.
    fn complete(&mut self, dag: &Dag, r: usize, wn: usize, v: NodeId) {
        debug_assert!(!self.completed[v.index()] && self.preds_left[v.index()] == 0);
        let mut moves = Vec::new();
        for &(u, e) in dag.in_edges(v) {
            let ui = u.index();
            let vi = v.index();
            let mut needed = usize::from(self.state[ui] < LIGHT);
            needed += usize::from(self.state[vi] < LIGHT);
            while self.red_members.len() + needed > r {
                self.evict_one(wn, &mut moves, u, v);
            }
            if self.state[ui] < LIGHT {
                debug_assert_eq!(self.state[ui], BLUE, "computed value lost");
                moves.push(PrbpMove::Load(u));
                self.state[ui] = LIGHT;
                self.io += 1;
                self.make_red(wn, u);
            }
            if self.state[vi] < LIGHT {
                debug_assert_eq!(self.state[vi], EMPTY, "uncomputed node has blue");
                self.make_red(wn, v);
            }
            moves.push(PrbpMove::PartialCompute { from: u, to: v });
            self.state[vi] = DARK;
            packed::set(&mut self.packed[2 * wn..], e.index());
            self.unmarked_out[ui] -= 1;
            // A dead value (all out-edges marked, not a sink) frees its slot
            // at no cost; dropping it eagerly keeps pressure low.
            if self.unmarked_out[ui] == 0 && !dag.is_sink(u) {
                moves.push(PrbpMove::Delete(u));
                self.state[ui] = if self.state[ui] == LIGHT { BLUE } else { EMPTY };
                self.drop_red(wn, u);
            }
        }
        self.completed[v.index()] = true;
        for &(w, _) in dag.out_edges(v) {
            self.preds_left[w.index()] -= 1;
            if self.preds_left[w.index()] == 0 {
                self.ready.push(w);
            }
        }
        if dag.is_sink(v) {
            moves.push(PrbpMove::Save(v));
            self.io += 1;
            moves.push(PrbpMove::Delete(v));
            self.state[v.index()] = BLUE;
            packed::set(&mut self.packed[wn..2 * wn], v.index());
            self.drop_red(wn, v);
        }
        self.moves = Some(Rc::new(MoveLink {
            parent: self.moves.take(),
            moves,
        }));
    }

    /// Greedily complete the remaining levels (cheapest ready node first) so
    /// an early-stopped beam still hands back a full schedule.
    fn complete_greedily(&mut self, dag: &Dag, r: usize, wn: usize) {
        loop {
            self.ready.retain(|&v| !self.completed[v.index()]);
            let Some(v) = self
                .ready
                .iter()
                .copied()
                .min_by_key(|&v| (self.immediate_loads(dag, v), v.index()))
            else {
                return;
            };
            self.complete(dag, r, wn, v);
        }
    }

    fn all_moves(&self) -> Vec<PrbpMove> {
        let mut chunks = Vec::new();
        let mut link = self.moves.clone();
        while let Some(l) = link {
            chunks.push(l.moves.clone());
            link = l.parent.clone();
        }
        chunks.reverse();
        chunks.concat()
    }
}

/// The engine's beam-mode PRBP solve. Requires `r ≥ 2` (returns
/// [`ExactError::Unsolvable`] below) and the standard delete semantics
/// (the emitted macro steps use `Save`/`Delete`, so `no_delete` configs are
/// unsupported). Deterministic: ranking ties break by node id and beam
/// insertion order.
pub(crate) fn solve_beam(
    dag: &Dag,
    config: PrbpConfig,
    domain: &super::PrbpDomain<'_>,
    engine: &EngineConfig,
    width: usize,
    heuristic: &dyn LowerBound,
) -> Result<RawOutcome<PrbpMove>, ExactError> {
    assert!(
        !config.no_delete,
        "beam search emits Save/Delete macro steps; no_delete configs are unsupported"
    );
    let r = config.r;
    if r < 2 {
        return Err(ExactError::Unsolvable);
    }
    let width = width.max(1);
    let branch = match engine.branch {
        0 => 4,
        b => b,
    };
    let start = domain.start_words();
    let h0 = domain.h(heuristic, &start);
    let deadline_at = engine.deadline.map(|d| Instant::now() + d);

    let wn = packed::plane_words(dag.node_count());
    let levels = dag.nodes().filter(|&v| !dag.is_source(v)).count();
    let mut stats = SearchStats::default();
    let mut stopped: Option<StopReason> = None;

    let mut beam = vec![Entry::initial(dag)];
    let mut scored: Vec<(usize, NodeId)> = Vec::new();
    'levels: for _ in 0..levels {
        if let Some(reason) = stop_requested(deadline_at) {
            stopped = Some(reason);
            break 'levels;
        }
        if let Some(budget) = engine.node_budget {
            if stats.distinct > budget {
                stopped = Some(StopReason::Budget);
                break 'levels;
            }
        }
        // Pool of proposals: (projected io, entry index, node).
        let mut proposals: Vec<(usize, usize, NodeId)> = Vec::new();
        for (ei, entry) in beam.iter_mut().enumerate() {
            // Compact the lazily-filtered ready list in place.
            entry.ready.retain(|&v| !entry.completed[v.index()]);
            scored.clear();
            scored.extend(
                entry
                    .ready
                    .iter()
                    .map(|&v| (entry.immediate_loads(dag, v), v)),
            );
            // Keys are unique per entry (node ids are), so selecting the
            // `branch` smallest and sorting only those yields exactly the
            // prefix a full sort would.
            let key = |&(c, v): &(usize, NodeId)| (c, v.index());
            if scored.len() > branch {
                scored.select_nth_unstable_by_key(branch, key);
                scored.truncate(branch);
            }
            scored.sort_unstable_by_key(key);
            for &(c, v) in &scored {
                proposals.push((entry.io + c, ei, v));
            }
        }
        proposals.sort_unstable_by_key(|&(g, ei, v)| (g, v.index(), ei));
        stats.generated += proposals.len();

        // Materialise the best distinct successor configurations in rank
        // order, stopping once `width` of them survive the dedup.
        let mut next: Vec<Entry> = Vec::with_capacity(width);
        for &(_, ei, v) in &proposals {
            if next.len() >= width {
                break;
            }
            if let Some(reason) = stop_requested(deadline_at) {
                stopped = Some(reason);
                if next.is_empty() {
                    // No child of this level survives yet; fall back to
                    // the parent beam for greedy completion.
                    break 'levels;
                }
                beam = next;
                break 'levels;
            }
            let mut child = if width == 1 {
                // Width-1 fast path: only one child is ever materialised,
                // so advance the single entry without cloning its state.
                debug_assert_eq!(ei, 0);
                beam.pop().expect("single beam entry")
            } else {
                beam[ei].clone_for_child()
            };
            child.complete(dag, r, wn, v);
            stats.expanded += 1;
            stats.distinct += 1;
            // At most `width` survivors: a linear scan of their packed
            // words is the dedup.
            match next.iter().position(|e| e.packed == child.packed) {
                Some(slot) => {
                    if child.io < next[slot].io {
                        next[slot] = child;
                    }
                }
                None => next.push(child),
            }
        }
        debug_assert!(!next.is_empty(), "every level has a ready node");
        beam = next;
    }

    let best = beam
        .iter()
        .enumerate()
        .min_by_key(|(_, e)| e.io)
        .map(|(i, _)| i)
        .expect("non-empty beam");
    let mut best = beam.swap_remove(best);
    if stopped.is_some() {
        // Early stop: finish the best partial schedule greedily so the
        // incumbent handed back is a complete pebbling.
        best.complete_greedily(dag, r, wn);
    }
    let moves = best.all_moves();
    let cost = domain
        .validate_moves(&moves)
        .expect("beam schedules replay as legal pebblings");
    debug_assert_eq!(cost, best.io, "incremental io diverged from simulator");
    Ok(RawOutcome {
        cost,
        moves,
        bound: h0,
        proven: cost == h0,
        stats,
        stop: stopped.unwrap_or(StopReason::Completed),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prbp::PrbpGame;
    use pebble_dag::generators::fft;

    #[test]
    fn incremental_packed_words_match_the_game_encoding() {
        // The beam maintains its packed `[red | blue | marked]` words
        // incrementally; they must stay equal to what the simulator's
        // canonical `PrbpGame::packed_words` produces for the same move
        // sequence — that equality is what makes the dedup keys meaningful
        // (and interchangeable with the exact solver's encoding).
        let dag = fft(8).dag;
        let r = 4;
        let wn = packed::plane_words(dag.node_count());
        let mut entry = Entry::initial(&dag);
        let mut game = PrbpGame::new(&dag, PrbpConfig::new(r));
        assert_eq!(entry.packed, game.packed_words());
        let order: Vec<NodeId> = pebble_dag::topo::topological_order(&dag)
            .into_iter()
            .filter(|&v| !dag.is_source(v))
            .collect();
        for v in order {
            entry.complete(&dag, r, wn, v);
            // Replay exactly the moves this macro step appended.
            let link = entry.moves.as_ref().expect("macro appended moves");
            game.run(link.moves.iter().copied()).expect("legal moves");
            assert_eq!(entry.packed, game.packed_words(), "diverged at {v:?}");
        }
        assert!(game.is_terminal());
    }

    #[test]
    fn greedy_completion_finishes_a_partial_schedule() {
        let dag = fft(8).dag;
        let wn = packed::plane_words(dag.node_count());
        let mut entry = Entry::initial(&dag);
        // Complete one level by hand, then let the greedy fallback finish.
        let first = pebble_dag::topo::topological_order(&dag)
            .into_iter()
            .find(|&v| !dag.is_source(v))
            .expect("non-source node");
        entry.complete(&dag, 4, wn, first);
        entry.complete_greedily(&dag, 4, wn);
        let moves = entry.all_moves();
        let mut game = PrbpGame::new(&dag, PrbpConfig::new(4));
        game.run(moves.iter().copied()).expect("legal moves");
        assert!(game.is_terminal());
        assert_eq!(game.io_cost(), entry.io);
    }
}
