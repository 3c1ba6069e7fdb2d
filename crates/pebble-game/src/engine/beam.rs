//! Anytime beam search over partial PRBP schedules, inside the engine.
//!
//! A partial schedule is identified with its pebbling configuration in the
//! canonical packed encoding of [`crate::packed`] (the same
//! `[red | blue | marked]` bit planes the exact A* solver interns), so two
//! beam entries that reach the same configuration are merged and only the
//! cheaper survives — a beam-limited version of the solver's transposition
//! table. The packed words are also the entry's state: pebble colours and
//! unmarked out-degrees are read from them.
//!
//! Search structure: one level per non-source node. Every beam entry proposes
//! its cheapest next nodes (fewest immediate loads among the ready nodes,
//! then lowest id), the pooled proposals are ranked by projected cost, and
//! the best `width` distinct successor configurations are materialised, in
//! rank order, so only children that can enter the beam are built. Width 1
//! is an *adaptive* greedy scheduler; larger widths buy schedule quality.
//!
//! A level costs word scans plus one entry copy per child: an entry keeps
//! its ready nodes in bitsets bucketed by immediate loads, updated in
//! `O(out-degree)` when a node gains or loses its red pebble, children reuse
//! the buffers of dropped entries, and all moves go to one per-solve arena.
//! The copy is `O(n)`, so a solve is still quadratic in the DAG size:
//! `pebble-sched`'s compose runs the beams only on components of at most 512
//! nodes; on larger ones they changed no benchmark answer but cost time.
//!
//! Anytime contract: deadline and budget stops are honoured between macro
//! steps, and an early stop *greedily completes* the best partial schedule,
//! so the caller still receives a full, simulator-validated incumbent.

use super::astar::stop_requested;
use super::domain::Domain;
use super::{EngineConfig, RawOutcome, StopReason};
use crate::exact::{ExactError, LowerBound, SearchStats};
use crate::moves::PrbpMove;
use crate::packed::{clear, get, plane_words, set};
use crate::prbp::PrbpConfig;
use pebble_dag::{Dag, NodeId};
use std::ops::Range;

/// Most load buckets an entry keeps. Ready nodes with more immediate loads
/// share the last bucket, which is ranked by a sort.
const MAX_BUCKETS: usize = 64;

/// A candidate child: `(projected io, parent entry index, node)`.
type Proposal = (usize, usize, NodeId);

/// What every entry of one solve shares.
struct Shape<'a> {
    dag: &'a Dag,
    r: usize,
    /// Words per node plane.
    wn: usize,
    /// `max_in_degree + 1` load buckets, at most [`MAX_BUCKETS`].
    buckets: usize,
}

impl Shape<'_> {
    /// The words of the bucket of a ready node with `loads` loads.
    fn bucket(&self, loads: u32) -> Range<usize> {
        let b = (loads as usize).min(self.buckets - 1);
        b * self.wn..(b + 1) * self.wn
    }
}

/// Every macro step's moves, back to back, and one `(parent step, end)`
/// record per step: a step's moves run from the previous record's end to
/// its own. Step 0 is the empty root; entries that share a prefix point at
/// the same step.
struct Arena {
    moves: Vec<PrbpMove>,
    steps: Vec<(usize, usize)>,
}

impl Arena {
    /// The full move sequence ending at `step`.
    fn replay(&self, mut step: usize) -> Vec<PrbpMove> {
        let mut ranges = Vec::new();
        while step != 0 {
            ranges.push(self.steps[step - 1].1..self.steps[step].1);
            step = self.steps[step].0;
        }
        let chunks = ranges.into_iter().rev().map(|r| &self.moves[r]);
        chunks.flatten().copied().collect()
    }
}

/// One partial schedule.
#[derive(Clone)]
struct Entry {
    /// Canonical `[red | blue | marked]` words: the state and dedup key.
    words: Vec<u64>,
    /// Fully computed nodes (sources start completed).
    completed: Vec<u64>,
    /// Per node, the predecessors without a red pebble (immediate loads).
    loads: Vec<u32>,
    /// Ready nodes (predecessors completed, itself not) by load bucket.
    ready: Vec<u64>,
    /// The currently red nodes, for `O(r)` eviction scans.
    red_members: Vec<NodeId>,
    io: usize,
    /// This schedule's last macro step in the [`Arena`].
    step: usize,
}

impl Entry {
    fn initial(s: &Shape) -> Self {
        let (dag, words) = (s.dag, super::prbp_start_words(s.dag));
        let mut entry = Entry {
            // Exactly the sources start completed, and they hold the blues.
            completed: words[s.wn..2 * s.wn].to_vec(),
            words,
            loads: dag.nodes().map(|v| dag.in_degree(v) as u32).collect(),
            ready: vec![0; s.buckets * s.wn],
            red_members: Vec::new(),
            io: 0,
            step: 0,
        };
        dag.nodes().for_each(|v| entry.enqueue_if_ready(s, v));
        entry
    }

    /// Become a copy of `src`, reusing this entry's buffers.
    fn copy_from(&mut self, src: &Entry) {
        self.words.clone_from(&src.words);
        self.completed.clone_from(&src.completed);
        self.loads.clone_from(&src.loads);
        self.ready.clone_from(&src.ready);
        self.red_members.clone_from(&src.red_members);
        (self.io, self.step) = (src.io, src.step);
    }

    fn red(&self, v: NodeId) -> bool {
        get(&self.words, v.index())
    }

    fn blue(&self, s: &Shape, v: NodeId) -> bool {
        get(&self.words[s.wn..], v.index())
    }

    fn unmarked_out(&self, s: &Shape, v: NodeId) -> usize {
        let marked = &self.words[2 * s.wn..];
        let out = s.dag.out_edges(v).iter();
        out.filter(|&&(_, e)| !get(marked, e.index())).count()
    }

    /// Put `v` into its load bucket if all its predecessors are completed
    /// and it is not.
    fn enqueue_if_ready(&mut self, s: &Shape, v: NodeId) {
        let done = |u: NodeId| get(&self.completed, u.index());
        if !done(v) && s.dag.predecessors(v).all(done) {
            set(&mut self.ready[s.bucket(self.loads[v.index()])], v.index());
        }
    }

    /// Place (`red`) or remove the red pebble on `v`, then update the loads
    /// of its successors and move the ready ones to their new buckets.
    fn set_red(&mut self, s: &Shape, v: NodeId, red: bool) {
        if red {
            self.red_members.push(v);
            set(&mut self.words[..s.wn], v.index());
        } else {
            let p = self.red_members.iter().position(|&w| w == v);
            self.red_members.swap_remove(p.expect("red member"));
            clear(&mut self.words[..s.wn], v.index());
        }
        for &(w, _) in s.dag.out_edges(v) {
            let (wi, loads) = (w.index(), self.loads[w.index()]);
            self.loads[wi] = if red { loads - 1 } else { loads + 1 };
            let (old, new) = (s.bucket(loads), s.bucket(self.loads[wi]));
            if old != new && get(&self.ready[old.clone()], wi) {
                clear(&mut self.ready[old], wi);
                set(&mut self.ready[new], wi);
            }
        }
    }

    /// Append this entry's `branch` cheapest ready nodes by `(loads, id)` to
    /// `out` as `(io + loads, ei, node)` proposals: the first set bits of
    /// its lowest buckets.
    fn propose(&self, s: &Shape, branch: usize, ei: usize, out: &mut Vec<Proposal>) {
        let start = out.len();
        for b in 0..s.buckets {
            // Only the capped last bucket mixes load counts.
            let mixed = b + 1 == MAX_BUCKETS;
            let plane = &self.ready[b * s.wn..(b + 1) * s.wn];
            for (i, mut word) in plane.iter().copied().enumerate() {
                while word != 0 {
                    if out.len() - start == branch && !mixed {
                        return;
                    }
                    let v = NodeId::from_index(i * 64 + word.trailing_zeros() as usize);
                    word &= word - 1;
                    out.push((self.io + self.loads[v.index()] as usize, ei, v));
                }
            }
            if mixed {
                out[start..].sort_unstable_by_key(|&(g, _, v)| (g, v.index()));
                out.truncate(start + branch);
            }
        }
    }

    /// Evict one non-pinned red pebble. Preference: light red pebbles
    /// (free), then dark values (save first) — within a tier, fewest
    /// unmarked out-edges first, then smallest id. Every dark candidate is a
    /// *completed* value: the only dark-but-uncompleted node is the
    /// accumulator currently inside [`Entry::complete`], and that one is
    /// always pinned.
    fn evict_one(&mut self, s: &Shape, moves: &mut Vec<PrbpMove>, pin_a: NodeId, pin_b: NodeId) {
        let mut best: Option<((bool, usize, usize), NodeId)> = None;
        for &v in &self.red_members {
            let dark = !self.blue(s, v);
            if v == pin_a || v == pin_b || best.is_some_and(|((d, ..), _)| dark && !d) {
                continue;
            }
            let key = (dark, self.unmarked_out(s, v), v.index());
            if best.map_or(true, |(k, _)| key < k) {
                best = Some((key, v));
            }
        }
        let (_, v) = best.expect("r >= 2 guarantees an evictable pebble");
        if !self.blue(s, v) {
            moves.push(PrbpMove::Save(v));
            self.io += 1;
            set(&mut self.words[s.wn..2 * s.wn], v.index());
        }
        moves.push(PrbpMove::Delete(v));
        self.set_red(s, v, false);
    }

    /// Complete node `v`: aggregate all of its in-edges (loading inputs and
    /// evicting on demand), then save-and-drop if it is a sink. `v` must be
    /// ready. The moves become one new step in `arena`.
    fn complete(&mut self, s: &Shape, arena: &mut Arena, v: NodeId) {
        let (dag, wn, vi) = (s.dag, s.wn, v.index());
        let bucket = s.bucket(self.loads[vi]);
        debug_assert!(get(&self.ready[bucket.clone()], vi), "{v:?} is not ready");
        clear(&mut self.ready[bucket], vi);
        let moves = &mut arena.moves;
        for &(u, e) in dag.in_edges(v) {
            let needed = usize::from(!self.red(u)) + usize::from(!self.red(v));
            while self.red_members.len() + needed > s.r {
                self.evict_one(s, moves, u, v);
            }
            if !self.red(u) {
                debug_assert!(self.blue(s, u), "computed value lost");
                moves.push(PrbpMove::Load(u));
                self.io += 1;
                self.set_red(s, u, true);
            }
            if !self.red(v) {
                debug_assert!(!self.blue(s, v), "uncomputed node has blue");
                self.set_red(s, v, true);
            }
            moves.push(PrbpMove::PartialCompute { from: u, to: v });
            set(&mut self.words[2 * wn..], e.index());
            // A dead value (all out-edges marked, not a sink) frees its slot
            // at no cost; dropping it eagerly keeps pressure low.
            if !dag.is_sink(u) && self.unmarked_out(s, u) == 0 {
                moves.push(PrbpMove::Delete(u));
                self.set_red(s, u, false);
            }
        }
        set(&mut self.completed, vi);
        dag.out_edges(v)
            .iter()
            .for_each(|&(w, _)| self.enqueue_if_ready(s, w));
        if dag.is_sink(v) {
            moves.push(PrbpMove::Save(v));
            self.io += 1;
            moves.push(PrbpMove::Delete(v));
            set(&mut self.words[wn..2 * wn], vi);
            self.set_red(s, v, false);
        }
        arena.steps.push((self.step, arena.moves.len()));
        self.step = arena.steps.len() - 1;
    }

    /// Complete the cheapest ready node (`scratch` is a reusable buffer);
    /// `false` once every node is completed.
    fn greedy_step(&mut self, s: &Shape, arena: &mut Arena, scratch: &mut Vec<Proposal>) -> bool {
        scratch.clear();
        self.propose(s, 1, 0, scratch);
        let Some(&(_, _, v)) = scratch.first() else {
            return false;
        };
        self.complete(s, arena, v);
        true
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
    if config.r < 2 {
        return Err(ExactError::Unsolvable);
    }
    let width = width.max(1);
    let branch = if engine.branch == 0 { 4 } else { engine.branch };
    let h0 = domain.h(heuristic, &domain.start_words());
    let deadline_at = super::deadline_at(engine);

    let s = Shape {
        dag,
        r: config.r,
        wn: plane_words(dag.node_count()),
        buckets: (dag.max_in_degree() + 1).min(MAX_BUCKETS),
    };
    let mut arena = Arena {
        moves: Vec::new(),
        steps: vec![(0, 0)],
    };
    let levels = dag.nodes().filter(|&v| !dag.is_source(v)).count();
    let mut stats = SearchStats::default();
    let mut stopped: Option<StopReason> = None;

    let mut beam = vec![Entry::initial(&s)];
    // Reused across levels: the pooled proposals, the next beam, and the
    // buffers of dropped entries. `next` grows on demand: `width` may be far
    // larger than any level's proposals.
    let mut proposals: Vec<Proposal> = Vec::new();
    let mut next: Vec<Entry> = Vec::new();
    let mut spare: Vec<Entry> = Vec::new();
    'levels: for _ in 0..levels {
        let over_budget = engine.node_budget.is_some_and(|b| stats.distinct > b);
        stopped = stop_requested(deadline_at).or(over_budget.then_some(StopReason::Budget));
        if stopped.is_some() {
            break;
        }
        proposals.clear();
        for (ei, entry) in beam.iter().enumerate() {
            entry.propose(&s, branch, ei, &mut proposals);
        }
        proposals.sort_unstable_by_key(|&(g, ei, v)| (g, v.index(), ei));
        stats.generated += proposals.len();

        // Materialise the best distinct successor configurations in rank
        // order, stopping once `width` of them survive the dedup.
        for &(_, ei, v) in &proposals {
            if next.len() >= width {
                break;
            }
            if let Some(reason) = stop_requested(deadline_at) {
                stopped = Some(reason);
                // With no child of this level yet, the parent beam is
                // greedily completed instead.
                if !next.is_empty() {
                    std::mem::swap(&mut beam, &mut next);
                }
                break 'levels;
            }
            let mut child = if width == 1 {
                // Width-1 fast path: only one child is ever materialised,
                // so advance the single entry without copying its state.
                debug_assert_eq!(ei, 0);
                beam.pop().expect("single beam entry")
            } else if let Some(mut spare) = spare.pop() {
                spare.copy_from(&beam[ei]);
                spare
            } else {
                beam[ei].clone()
            };
            child.complete(&s, &mut arena, v);
            stats.expanded += 1;
            // At most `width` survivors: a linear scan of their packed
            // words is the dedup. Only a new configuration counts as
            // distinct.
            match next.iter().position(|e| e.words == child.words) {
                Some(slot) if child.io < next[slot].io => {
                    spare.push(std::mem::replace(&mut next[slot], child));
                }
                Some(_) => {
                    // Dropped: forget its step, the newest.
                    arena.steps.pop();
                    arena.moves.truncate(arena.steps[arena.steps.len() - 1].1);
                    spare.push(child);
                }
                None => {
                    stats.distinct += 1;
                    next.push(child);
                }
            }
        }
        debug_assert!(!next.is_empty(), "every level has a ready node");
        std::mem::swap(&mut beam, &mut next);
        spare.append(&mut next);
    }

    let best = (0..beam.len()).min_by_key(|&i| beam[i].io);
    let mut best = beam.swap_remove(best.expect("non-empty beam"));
    if stopped.is_some() {
        // Early stop: finish the best partial schedule greedily so the
        // incumbent handed back is a complete pebbling.
        while best.greedy_step(&s, &mut arena, &mut proposals) {}
    }
    let moves = arena.replay(best.step);
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
    use crate::exact::LoadCountHeuristic;
    use crate::prbp::PrbpGame;
    use pebble_dag::generators::{binary_tree, fft};

    /// The shape and an empty arena, as [`solve_beam`] builds them.
    fn setup(dag: &Dag, r: usize) -> (Shape<'_>, Arena) {
        let shape = Shape {
            dag,
            r,
            wn: plane_words(dag.node_count()),
            buckets: (dag.max_in_degree() + 1).min(MAX_BUCKETS),
        };
        let arena = Arena {
            moves: Vec::new(),
            steps: vec![(0, 0)],
        };
        (shape, arena)
    }

    fn beam(dag: &Dag, r: usize, width: usize) -> super::super::EngineOutcome<crate::PrbpTrace> {
        let engine = EngineConfig {
            width: Some(width),
            ..EngineConfig::default()
        };
        super::super::solve_prbp(dag, PrbpConfig::new(r), &engine, &LoadCountHeuristic, None)
            .expect("beam solve")
    }

    /// Assert that `entry`'s ready buckets hold exactly the simulator's
    /// ready nodes, each in the bucket of its immediate loads.
    fn assert_buckets_match(s: &Shape, entry: &Entry, game: &PrbpGame) {
        let dag = s.dag;
        for v in dag.nodes() {
            let ready = !game.is_fully_computed(v)
                && dag.predecessors(v).all(|u| game.is_fully_computed(u));
            let loads = dag
                .predecessors(v)
                .filter(|&u| !game.pebble_state(u).has_red())
                .count() as u32;
            for b in 0..s.buckets {
                let plane = b * s.wn..(b + 1) * s.wn;
                let want = ready && plane == s.bucket(loads);
                assert_eq!(
                    get(&entry.ready[plane], v.index()),
                    want,
                    "{v:?} bucket {b}"
                );
            }
        }
    }

    #[test]
    fn incremental_packed_words_match_the_game_encoding() {
        // The beam maintains its packed `[red | blue | marked]` words
        // incrementally; they must stay equal to what the simulator's
        // canonical `PrbpGame::packed_words` produces for the same move
        // sequence — that equality is what makes the dedup keys meaningful
        // (and interchangeable with the exact solver's encoding). Its ready
        // buckets must track the simulator's ready nodes and their loads,
        // through hand-picked steps and a greedy finish alike.
        let dag = fft(8).dag;
        let r = 4;
        let (s, mut arena) = setup(&dag, r);
        let mut entry = Entry::initial(&s);
        let mut game = PrbpGame::new(&dag, PrbpConfig::new(r));
        assert_eq!(entry.words, game.packed_words());
        assert_buckets_match(&s, &entry, &game);
        let order: Vec<NodeId> = pebble_dag::topo::topological_order(&dag)
            .into_iter()
            .filter(|&v| !dag.is_source(v))
            .collect();
        let mut check = |entry: &Entry, arena: &Arena, at: &str| {
            // Replay exactly the moves this macro step appended.
            let range = arena.steps[entry.step - 1].1..arena.steps[entry.step].1;
            game.run(arena.moves[range].iter().copied())
                .expect("legal moves");
            assert_eq!(entry.words, game.packed_words(), "diverged at {at}");
            assert_buckets_match(&s, entry, &game);
        };
        for &v in &order[..order.len() / 2] {
            entry.complete(&s, &mut arena, v);
            check(&entry, &arena, &format!("{v:?}"));
        }
        let mut scratch = Vec::new();
        while entry.greedy_step(&s, &mut arena, &mut scratch) {
            check(&entry, &arena, "a greedy step");
        }
        assert!(game.is_terminal());
    }

    /// FNV-1a 64 over a fixed byte encoding of a move list: one tag byte
    /// per move, then its node ids as little-endian `u32`s.
    fn digest(moves: &[PrbpMove]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |b: u8| h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        for m in moves {
            let (tag, ids) = match *m {
                PrbpMove::Save(v) => (0u8, [v, v]),
                PrbpMove::Load(v) => (1, [v, v]),
                PrbpMove::PartialCompute { from, to } => (2, [from, to]),
                PrbpMove::Delete(v) => (3, [v, v]),
                PrbpMove::Clear(v) => (4, [v, v]),
            };
            eat(tag);
            for v in ids {
                (v.index() as u32)
                    .to_le_bytes()
                    .into_iter()
                    .for_each(&mut eat);
            }
        }
        h
    }

    /// The beam's exact output on a fixed corpus: `(name, width, r, cost,
    /// move count, move digest)`. The constants were produced by the
    /// per-level-rescoring beam this implementation replaced; any change to
    /// ranking, tie-breaking, dedup or eviction order shows up here. The
    /// `matmul2x100x2` sums have in-degree 100, so its ready nodes also use
    /// the capped last load bucket.
    #[test]
    fn beam_output_is_pinned_on_a_fixed_corpus() {
        use pebble_dag::generators::{
            attention_qk, binary_tree, matmul, random_layered, RandomLayeredConfig,
        };
        let random = random_layered(RandomLayeredConfig {
            layers: 6,
            width: 7,
            max_in_degree: 3,
            seed: 17,
        });
        let dags = [
            ("fft16", fft(16).dag),
            ("matmul444", matmul(4, 4, 4).dag),
            ("attn_qk44", attention_qk(4, 4).dag),
            ("tree5", binary_tree(5)),
            ("random6x7", random),
            ("matmul2x100x2", matmul(2, 100, 2).dag),
        ];
        let expected: &[(&str, usize, usize, usize, usize, u64)] = &[
            ("fft16", 1, 3, 155, 442, 13581383776689036361),
            ("fft16", 1, 8, 103, 356, 17566028573313168999),
            ("fft16", 8, 3, 136, 409, 15436661292040822411),
            ("fft16", 8, 8, 98, 348, 18384895783033378501),
            ("matmul444", 1, 3, 267, 728, 15862683977693459877),
            ("matmul444", 1, 8, 243, 690, 3883739478195187591),
            ("matmul444", 8, 3, 267, 728, 11143923344355438629),
            ("matmul444", 8, 8, 219, 649, 5157335432623552021),
            ("attn_qk44", 1, 3, 267, 760, 17179511432061012355),
            ("attn_qk44", 1, 8, 243, 722, 3824098177552823963),
            ("attn_qk44", 8, 3, 267, 760, 5317870527954236505),
            ("attn_qk44", 8, 8, 222, 686, 11963772757055116881),
            ("tree5", 1, 3, 47, 179, 1132582640889929859),
            ("tree5", 1, 8, 33, 158, 14241301199349445717),
            ("tree5", 8, 3, 47, 179, 1019013422982700647),
            ("tree5", 8, 8, 33, 158, 88886341311101469),
            ("random6x7", 1, 3, 73, 223, 15119272771789233780),
            ("random6x7", 1, 8, 37, 164, 9617665059592377884),
            ("random6x7", 8, 3, 65, 211, 12691623253967920244),
            ("random6x7", 8, 8, 35, 161, 11606965726932745898),
            ("matmul2x100x2", 1, 3, 1599, 4400, 16783730059033915023),
            ("matmul2x100x2", 1, 8, 1587, 4380, 13397532906434104817),
            ("matmul2x100x2", 8, 3, 1599, 4400, 583275268414839041),
            ("matmul2x100x2", 8, 8, 1585, 4377, 6905816571164246357),
        ];
        let mut got = Vec::new();
        for (name, dag) in &dags {
            for width in [1, 8] {
                for r in [3, 8] {
                    let out = beam(dag, r, width);
                    let moves = &out.trace.moves;
                    got.push((*name, width, r, out.cost, moves.len(), digest(moves)));
                }
            }
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn distinct_counts_only_configurations_that_enter_the_beam() {
        // On fft-16 at r = 8 some children of a level reach the same
        // configuration and are merged: every materialised child is
        // expanded, only the new configurations are distinct.
        let out = beam(&fft(16).dag, 8, 8);
        assert!(out.stats.distinct < out.stats.expanded, "{:?}", out.stats);
        // Each level keeps at least one configuration.
        let levels = fft(16).dag.nodes().count() - 16;
        assert!(out.stats.distinct >= levels);
    }

    #[test]
    fn the_widest_beam_allocates_on_demand() {
        // No level of the 7-node tree has 64 distinct children, so the
        // widest beam keeps exactly what width 64 keeps.
        let dag = binary_tree(2);
        let (widest, wide) = (beam(&dag, 3, usize::MAX), beam(&dag, 3, 64));
        assert_eq!((widest.cost, widest.trace), (wide.cost, wide.trace));
    }

    #[test]
    fn greedy_completion_finishes_a_partial_schedule() {
        let dag = fft(8).dag;
        let (s, mut arena) = setup(&dag, 4);
        let mut entry = Entry::initial(&s);
        // Complete one level by hand, then let the greedy fallback finish.
        let first = pebble_dag::topo::topological_order(&dag)
            .into_iter()
            .find(|&v| !dag.is_source(v))
            .expect("non-source node");
        entry.complete(&s, &mut arena, first);
        while entry.greedy_step(&s, &mut arena, &mut Vec::new()) {}
        let moves = arena.replay(entry.step);
        let mut game = PrbpGame::new(&dag, PrbpConfig::new(4));
        game.run(moves.iter().copied()).expect("legal moves");
        assert!(game.is_terminal());
        assert_eq!(game.io_cost(), entry.io);
    }
}
