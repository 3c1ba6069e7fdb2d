//! The eviction index shared by the greedy executors: the PRBP edge loop
//! of [`crate::edges`] and the RBP node executor of [`crate::greedy`].
//!
//! [`EvictionIndex`] owns everything an eviction reads: every node's use
//! positions, how far the executor has passed through them, whether the
//! node is red, its current [`EvictionKey`], and a max-heap of keys. It
//! answers Belady's next-use question itself, so an executor only reports
//! whether a candidate is dead and whether evicting it is free. Choosing a
//! victim costs a few heap operations instead of a scan over every red
//! node. Keys are refreshed lazily and superseded heap entries stay in
//! place: an entry is *stale*, and skipped when popped, once its node is no
//! longer red or its key differs from the node's current key.
//!
//! # Layout
//!
//! One flat `u32` array holds the use positions of every node, node after
//! node, ascending within a node: the compute-order positions of its
//! consumers for the RBP executor ([`EvictionIndex::for_nodes`]), the edge
//! positions at which it is an endpoint for the PRBP edge loop
//! ([`EvictionIndex::for_edges`]). Each node has one 16-byte slot:
//!
//! * `key` (`u64`): the node's current [`EvictionKey`], or `UNKEYED`;
//! * `cursor` (`u32`): the index into the position array of the node's
//!   first use not yet passed, which only moves forward;
//! * `end` (`u32`): the end of the node's list in the low 30 bits, and the
//!   `RED` and `DIRTY` flags in the top two.
//!
//! Re-keying a node reads its slot and the positions its cursor passes, and
//! nothing else of the index.
//!
//! # Limits
//!
//! A key keeps the node id in 31 bits and a list end shares its word with
//! two flags, so the index takes fewer than 2³¹ nodes and fewer than 2³⁰
//! use positions in total (`m` for RBP, `2m` for PRBP). The constructors
//! return `None` beyond that, and so do the executors.
//!
//! # The touch invariant
//!
//! The laziness rests on one invariant: every input of a key — the next use
//! and the `(dead, free)` state an executor reports — changes only when the
//! executor *touches* the node: loads it, aggregates from or into it, or
//! computes it. A node's next use is, by definition, a position where it
//! gets touched, so an untouched node's next use cannot fall behind the
//! clock. One rule follows: before an eviction, the nodes touched since
//! they were last keyed are re-keyed (executors report touches through
//! [`EvictionIndex::touch`]).
//!
//! A next use is the first use *strictly after* the current position, so a
//! key never expires: every use at the current position belongs to a
//! pinned node. Pinned nodes — the endpoints of the edge being aggregated
//! in PRBP, or every input of the node being computed in RBP — are never
//! the victim. They are not re-keyed while pinned, and a pinned entry that
//! reaches the top of the heap is dropped; the node is re-keyed at the
//! first eviction where it is not pinned.
//!
//! Re-keying skips the heap push when the key did not change, and the heap
//! is compacted once it holds more than twice as many entries as there are
//! red nodes (plus eight), so it stays `O(r)` long. Each touch causes at
//! most one re-key and one push. Each pop discards a stale entry (at most
//! one per push), drops a pinned entry (at most one per push, and it
//! touches the node once more), or returns the victim. A node is pinned
//! only at its own uses, so a whole schedule costs `O((n + m) log r)`.

use crate::policy::EvictionKey;
use pebble_dag::{Dag, NodeId};
use std::collections::BinaryHeap;

/// `end` flag: the node holds a red pebble.
const RED: u32 = 1 << 31;
/// `end` flag: the node was touched since it was last keyed.
const DIRTY: u32 = 1 << 30;
/// The list-end bits of `end`.
const END: u32 = DIRTY - 1;

/// One node's eviction state; see the module docs.
#[derive(Clone, Copy)]
struct Slot {
    key: EvictionKey,
    cursor: u32,
    end: u32,
}

/// The red nodes of a greedy executor, ordered by eviction key.
pub(crate) struct EvictionIndex {
    slots: Vec<Slot>,
    /// Use positions, one ascending list per node.
    positions: Vec<u32>,
    /// Number of red nodes.
    len: usize,
    /// Keys pushed so far, stale entries included.
    heap: BinaryHeap<EvictionKey>,
    /// Nodes touched since they were last keyed (each flagged `DIRTY`).
    dirty: Vec<NodeId>,
    /// The executor's current position.
    position: u32,
    /// Key refreshes plus heap pops: the index's work, independent of clocks.
    work: u64,
}

impl EvictionIndex {
    /// The index of the RBP executor on `order`: a node's uses are the
    /// positions of its consumers in `order`. `order` must cover every node
    /// exactly once. `None` beyond the index's limits.
    pub(crate) fn for_nodes(dag: &Dag, order: &[NodeId]) -> Option<Self> {
        let mut index = Self::with_lists(dag, |v| dag.out_degree(v))?;
        // Filling from the last position down leaves each list ascending and
        // each cursor at the list's start.
        for (t, &v) in order.iter().enumerate().rev() {
            for &(u, _) in dag.in_edges(v) {
                index.push_front(u, t as u32);
            }
        }
        Some(index)
    }

    /// The index of the PRBP edge loop on `edges`, given as `(source,
    /// target)` pairs: a node's uses are the positions of the edges it is an
    /// endpoint of. `edges` must yield every edge exactly once. `None`
    /// beyond the index's limits.
    pub(crate) fn for_edges(
        dag: &Dag,
        edges: impl DoubleEndedIterator<Item = (NodeId, NodeId)>,
    ) -> Option<Self> {
        let mut index = Self::with_lists(dag, |v| dag.in_degree(v) + dag.out_degree(v))?;
        for (t, (u, v)) in (0..dag.edge_count() as u32).rev().zip(edges.rev()) {
            index.push_front(u, t);
            index.push_front(v, t);
        }
        Some(index)
    }

    /// An index with room for `uses(v)` positions per node, each cursor at
    /// the end of its empty list.
    fn with_lists(dag: &Dag, uses: impl Fn(NodeId) -> usize) -> Option<Self> {
        if dag.node_count() > EvictionKey::MAX_NODES {
            return None;
        }
        let mut end = 0usize;
        let mut slots = Vec::with_capacity(dag.node_count());
        for v in dag.nodes() {
            end += uses(v);
            if end > END as usize {
                return None;
            }
            slots.push(Slot {
                key: EvictionKey::UNKEYED,
                cursor: end as u32,
                end: end as u32,
            });
        }
        Some(EvictionIndex {
            slots,
            positions: vec![0; end],
            len: 0,
            heap: BinaryHeap::new(),
            dirty: Vec::new(),
            position: 0,
            work: 0,
        })
    }

    /// Prepend `position` to `v`'s list.
    fn push_front(&mut self, v: NodeId, position: u32) {
        let slot = &mut self.slots[v.index()];
        slot.cursor -= 1;
        self.positions[slot.cursor as usize] = position;
    }

    /// Whether `v` holds a red pebble.
    pub(crate) fn contains(&self, v: NodeId) -> bool {
        self.slots[v.index()].end & RED != 0
    }

    /// Number of red nodes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Key refreshes plus heap pops so far.
    pub(crate) fn work(&self) -> u64 {
        self.work
    }

    /// Record that `v` became red; it is keyed before the next eviction.
    pub(crate) fn insert(&mut self, v: NodeId) {
        debug_assert!(!self.contains(v));
        self.slots[v.index()].end |= RED;
        self.len += 1;
        self.touch(v);
    }

    /// Record that `v` lost its red pebble.
    pub(crate) fn remove(&mut self, v: NodeId) {
        debug_assert!(self.contains(v));
        let slot = &mut self.slots[v.index()];
        slot.end &= !RED;
        slot.key = EvictionKey::UNKEYED;
        self.len -= 1;
    }

    /// Record that the executor touched `v`, which may change its key.
    pub(crate) fn touch(&mut self, v: NodeId) {
        let end = &mut self.slots[v.index()].end;
        if *end & DIRTY == 0 {
            *end |= DIRTY;
            self.dirty.push(v);
        }
    }

    /// Enter `position`.
    pub(crate) fn begin_position(&mut self, position: usize) {
        self.position = position as u32;
    }

    /// The first use of `v` strictly after the current position, or
    /// [`EvictionKey::NEVER`] if none remains. Moves `v`'s cursor past the
    /// uses before it.
    fn next_use(&mut self, v: NodeId) -> u32 {
        let slot = &mut self.slots[v.index()];
        let end = (slot.end & END) as usize;
        let uses = &self.positions[slot.cursor as usize..end];
        let passed = uses.iter().take_while(|&&p| p <= self.position).count();
        slot.cursor += passed as u32;
        uses.get(passed).copied().unwrap_or(EvictionKey::NEVER)
    }

    /// Remove and return the red node with the largest Belady key that is
    /// not `pinned`. `state` reports `(dead, free)` for a red node at the
    /// current position — a dead value ranks as never used again — and is
    /// called only for nodes touched since they were last keyed.
    ///
    /// Panics if every red node is pinned, which the executors' capacity
    /// checks rule out.
    pub(crate) fn pop_victim(
        &mut self,
        pinned: impl Fn(NodeId) -> bool,
        mut state: impl FnMut(NodeId) -> (bool, bool),
    ) -> NodeId {
        // Re-key the dirty nodes. Pinned ones cannot be the victim, so they
        // stay dirty until an eviction where they are not pinned.
        let mut kept = 0;
        for i in 0..self.dirty.len() {
            let v = self.dirty[i];
            let red = self.contains(v);
            if red && pinned(v) {
                self.dirty[kept] = v;
                kept += 1;
                continue;
            }
            self.slots[v.index()].end &= !DIRTY;
            if !red {
                continue;
            }
            let (dead, free) = state(v);
            self.work += 1;
            let rank = if dead {
                EvictionKey::NEVER
            } else {
                self.next_use(v)
            };
            let key = EvictionKey::new(rank, free, v);
            let slot = &mut self.slots[v.index()];
            if key != slot.key {
                slot.key = key;
                self.heap.push(key);
            }
        }
        self.dirty.truncate(kept);
        if self.heap.len() > 2 * self.len + 8 {
            self.compact();
        }

        let victim = loop {
            let key = self.heap.pop().expect("an unpinned red node to evict");
            self.work += 1;
            let v = key.node();
            if !self.is_current(key) {
                continue;
            }
            if pinned(v) {
                // Never the victim: drop the entry and re-key the node at
                // an eviction where it is not pinned.
                self.slots[v.index()].key = EvictionKey::UNKEYED;
                self.touch(v);
                continue;
            }
            break v;
        };
        self.remove(victim);
        victim
    }

    /// Whether `key` is the current key of a red node (`remove` resets the
    /// key, so a matching key implies membership).
    fn is_current(&self, key: EvictionKey) -> bool {
        self.slots[key.node().index()].key == key
    }

    /// Drop stale and duplicate heap entries. Afterwards the heap holds at
    /// most one entry per red node.
    fn compact(&mut self) {
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.retain(|&key| self.is_current(key));
        entries.sort_unstable();
        entries.dedup();
        self.heap = BinaryHeap::from(entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dag::DagBuilder;

    fn id(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// A DAG whose node ids are positions of its natural order, in which
    /// source `i` is used exactly at the positions `uses[i]`, each past the
    /// sources. Source `uses.len()` feeds every later position.
    fn used_at(uses: &[&[usize]]) -> (Dag, Vec<NodeId>) {
        let k = uses.len();
        let len = 1 + uses.iter().flat_map(|u| u.iter()).max().expect("a use");
        let mut b = DagBuilder::new();
        let v = b.add_nodes(len);
        for t in k + 1..len {
            b.add_edge(v[k], v[t]);
        }
        for (i, ts) in uses.iter().enumerate() {
            for &t in ts.iter() {
                assert!(t > k, "use {t} falls inside the sources");
                b.add_edge(v[i], v[t]);
            }
        }
        (b.build().unwrap(), v)
    }

    fn index(uses: &[&[usize]]) -> EvictionIndex {
        let (dag, order) = used_at(uses);
        EvictionIndex::for_nodes(&dag, &order).unwrap()
    }

    /// Pop a Belady victim; every red node is live and costs a save.
    fn pop(index: &mut EvictionIndex, pinned: impl Fn(NodeId) -> bool) -> NodeId {
        index.pop_victim(pinned, |_| (false, false))
    }

    #[test]
    fn pops_the_largest_unpinned_key() {
        let mut index = index(&[&[9], &[14], &[11], &[12]]);
        for i in [3, 1, 0, 2] {
            index.insert(id(i));
        }
        let pinned = |v: NodeId| v == id(1);
        assert_eq!(pop(&mut index, pinned), id(3));
        assert_eq!(pop(&mut index, pinned), id(2));
        assert_eq!(index.len(), 2);
        assert!(index.contains(id(0)) && index.contains(id(1)));
        assert!(!index.contains(id(3)));
    }

    #[test]
    fn dead_values_rank_as_never_and_free_breaks_ties() {
        let mut index = index(&[&[9], &[14], &[11]]);
        for i in 0..3 {
            index.insert(id(i));
        }
        // Nodes 0 and 2 are dead: they outrank node 1's use at 14, and
        // among them the free one goes first.
        let state = |v: NodeId| (v != id(1), v == id(2));
        assert_eq!(index.pop_victim(|_| false, state), id(2));
        assert_eq!(index.pop_victim(|_| false, state), id(0));
        assert_eq!(index.pop_victim(|_| false, state), id(1));
    }

    #[test]
    fn cursors_pass_the_uses_behind_the_position() {
        let mut index = index(&[&[5, 9], &[7]]);
        index.insert(id(0));
        index.insert(id(1));
        index.begin_position(4);
        assert_eq!(index.next_use(id(0)), 5);
        // A use at the current position is already past.
        index.begin_position(5);
        assert_eq!(index.next_use(id(0)), 9);
        assert_eq!(index.next_use(id(1)), 7);
        index.begin_position(7);
        assert_eq!(index.next_use(id(1)), EvictionKey::NEVER);
        assert_eq!(pop(&mut index, |_| false), id(1));
    }

    #[test]
    fn the_edge_index_counts_a_use_at_the_position_as_past() {
        // 0 -> 1 at position 0, 1 -> 2 at position 1.
        let mut b = DagBuilder::new();
        let v = b.add_nodes(3);
        b.add_edge(v[0], v[1]);
        b.add_edge(v[1], v[2]);
        let dag = b.build().unwrap();
        let edges = [(v[0], v[1]), (v[1], v[2])];
        let mut index = EvictionIndex::for_edges(&dag, edges.into_iter()).unwrap();
        index.begin_position(0);
        assert_eq!(index.next_use(id(1)), 1);
        assert_eq!(index.next_use(id(0)), EvictionKey::NEVER);
        index.begin_position(1);
        assert_eq!(index.next_use(id(1)), EvictionKey::NEVER);
    }

    #[test]
    fn untouched_nodes_keep_their_key_and_touched_ones_are_rekeyed() {
        let mut index = index(&[&[10], &[20], &[30]]);
        for i in 0..3 {
            index.insert(id(i));
        }
        assert_eq!(pop(&mut index, |_| false), id(2));
        // Node 0 turns dead. Untouched, it keeps its old key (the executors
        // touch every node whose state changes) ...
        let dead_zero = |v: NodeId| (v == id(0), false);
        assert_eq!(index.pop_victim(|_| false, dead_zero), id(1));
        // ... and once touched it is re-keyed.
        index.insert(id(1));
        index.touch(id(0));
        assert_eq!(index.pop_victim(|_| false, dead_zero), id(0));
    }

    #[test]
    fn entering_a_position_rekeys_no_node() {
        let mut index = index(&[&[5, 12], &[9], &[50]]);
        index.begin_position(4);
        for i in 0..3 {
            index.insert(id(i));
        }
        assert_eq!(pop(&mut index, |_| false), id(2));
        // Node 0 read position 5 as its next use. Past it, untouched, it
        // keeps that key (the executors touch a node at each of its uses)
        // and node 1's use at 9 ranks above it ...
        index.begin_position(6);
        assert_eq!(pop(&mut index, |_| false), id(1));
        // ... and once touched it is re-keyed to 12.
        index.insert(id(1));
        index.touch(id(0));
        assert_eq!(pop(&mut index, |_| false), id(0));
    }

    #[test]
    fn compaction_bounds_the_heap_by_the_red_set() {
        let mut index = index(&[&[1000], &[2000]]);
        index.insert(id(0));
        index.insert(id(1));
        for round in 0..1000 {
            // Both keys change every round, leaving a stale entry each:
            // node 0 turns free and back, node 1 dead and back.
            index.touch(id(0));
            index.touch(id(1));
            let flip = round % 2 == 0;
            let state = |v: NodeId| (flip && v == id(1), flip && v == id(0));
            assert_eq!(index.pop_victim(|_| false, state), id(1));
            index.insert(id(1));
            assert!(index.heap.len() <= 2 * index.len() + 64);
        }
    }
}
