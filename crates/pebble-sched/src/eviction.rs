//! The eviction queue shared by the greedy executors ([`crate::greedy`] and
//! [`crate::edges`]).
//!
//! [`EvictionIndex`] owns the set of red nodes, each red node's current
//! [`EvictionKey`] and a max-heap of keys, so choosing a victim costs a few
//! heap operations instead of a scan over every red node. Keys are refreshed
//! lazily and superseded heap entries stay in place: an entry is *stale*,
//! and skipped when popped, once its node is no longer red or its key
//! differs from the node's current key.
//!
//! # The touch invariant
//!
//! The laziness rests on one invariant: every input of a key — the
//! `next_use` and `free` fields of a [`Candidate`] — changes only when the
//! executor *touches* the node: loads it, aggregates from or into it, or
//! computes it. A node's next use is, by definition, a position where it
//! gets touched, so an untouched node's next use cannot fall behind the
//! clock. Two rules follow:
//!
//! * before an eviction, the nodes touched since they were last keyed are
//!   re-keyed (executors report touches through [`EvictionIndex::touch`]);
//! * at the start of each position, the nodes touched at the previous one
//!   whose key read that position as their next use are re-keyed too. The
//!   node executors ask for the first use *at or after* the current
//!   position, so a node already aggregated from at position `t` still
//!   reports `t` while the rest of `t` is scheduled; only at `t + 1` does
//!   its true next use show. Full scans of the red set behaved exactly so,
//!   and the index reproduces it rather than fixing it, which keeps every
//!   schedule move-for-move identical.
//!
//! Pinned nodes — the endpoints of the move being scheduled, or every input
//! of the node being computed in RBP — are never the victim. They are not
//! re-keyed while pinned, and a pinned entry that reaches the top of the
//! heap is dropped; the node is re-keyed at the first eviction where it is
//! not pinned.
//!
//! Re-keying skips the heap push when the key did not change, and the heap
//! is compacted once it holds more than twice as many entries as there are
//! red nodes (plus eight), so it stays `O(r)` long. Each touch causes at most two
//! re-keys and one push. Each pop discards a stale entry (at most one per
//! push), drops a pinned entry (at most one per re-key), or returns the
//! victim. A whole schedule therefore costs `O((n + m) log r)`.

use crate::policy::{Candidate, EvictionKey, FurthestInFuture};
use pebble_dag::NodeId;
use std::collections::BinaryHeap;

const RED: u8 = 1;
const DIRTY: u8 = 2;

/// The red nodes of a greedy executor, ordered by eviction key.
pub(crate) struct EvictionIndex {
    /// `RED` and `DIRTY` bits per node.
    flags: Vec<u8>,
    /// Current key per red node; [`EvictionKey::UNKEYED`] while the node
    /// has no current heap entry, and always for nodes that are not red.
    key: Vec<EvictionKey>,
    /// Number of red nodes.
    len: usize,
    /// Keys pushed so far, stale entries included.
    heap: BinaryHeap<EvictionKey>,
    /// Nodes touched since they were last keyed (each flagged `DIRTY`).
    dirty: Vec<NodeId>,
    /// Nodes keyed at the current position with that position as next use.
    expiring: Vec<NodeId>,
    /// The executor's current position.
    position: usize,
    /// Key refreshes plus heap pops: the index's work, independent of clocks.
    work: u64,
}

impl EvictionIndex {
    /// An empty index over nodes `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        EvictionIndex {
            flags: vec![0; n],
            key: vec![EvictionKey::UNKEYED; n],
            len: 0,
            heap: BinaryHeap::new(),
            dirty: Vec::new(),
            expiring: Vec::new(),
            position: 0,
            work: 0,
        }
    }

    /// Whether `v` holds a red pebble.
    pub(crate) fn contains(&self, v: NodeId) -> bool {
        self.flags[v.index()] & RED != 0
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
        self.flags[v.index()] |= RED;
        self.len += 1;
        self.touch(v);
    }

    /// Record that `v` lost its red pebble.
    pub(crate) fn remove(&mut self, v: NodeId) {
        debug_assert!(self.contains(v));
        self.flags[v.index()] &= !RED;
        self.key[v.index()] = EvictionKey::UNKEYED;
        self.len -= 1;
    }

    /// Record that the executor touched `v`, which may change its key.
    pub(crate) fn touch(&mut self, v: NodeId) {
        let flags = &mut self.flags[v.index()];
        if *flags & DIRTY == 0 {
            *flags |= DIRTY;
            self.dirty.push(v);
        }
    }

    /// Enter `position`; keys that read the previous position as their next
    /// use are re-keyed before the next eviction.
    pub(crate) fn begin_position(&mut self, position: usize) {
        self.position = position;
        while let Some(v) = self.expiring.pop() {
            self.touch(v);
        }
    }

    /// Remove and return the red node with the largest Belady key that is
    /// not `pinned`. `candidate` describes a red node at the current
    /// position; it is called only for nodes touched since they were last
    /// keyed.
    ///
    /// Panics if every red node is pinned, which the executors' capacity
    /// checks rule out.
    pub(crate) fn pop_victim(
        &mut self,
        pinned: impl Fn(NodeId) -> bool,
        mut candidate: impl FnMut(NodeId) -> Candidate,
    ) -> NodeId {
        // Re-key the dirty nodes. Pinned ones cannot be the victim, so they
        // stay dirty until an eviction where they are not pinned.
        let mut kept = 0;
        for i in 0..self.dirty.len() {
            let v = self.dirty[i];
            if self.contains(v) && pinned(v) {
                self.dirty[kept] = v;
                kept += 1;
                continue;
            }
            self.flags[v.index()] &= !DIRTY;
            if !self.contains(v) {
                continue;
            }
            let c = candidate(v);
            self.work += 1;
            if c.next_use == self.position {
                self.expiring.push(v);
            }
            let key = FurthestInFuture.key(&c);
            if key != self.key[v.index()] {
                self.key[v.index()] = key;
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
                self.key[v.index()] = EvictionKey::UNKEYED;
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
        self.key[key.node().index()] == key
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

    fn id(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// Pop a Belady victim, node `v` having next use `next_use[v]`.
    fn pop(
        index: &mut EvictionIndex,
        next_use: &[usize],
        pinned: impl Fn(NodeId) -> bool,
    ) -> NodeId {
        index.pop_victim(pinned, |v| Candidate {
            node: v,
            next_use: next_use[v.index()],
            free: false,
        })
    }

    #[test]
    fn pops_the_largest_unpinned_key() {
        let mut index = EvictionIndex::new(8);
        for i in [3, 6, 1, 5] {
            index.insert(id(i));
        }
        let next_use = [0, 1, 2, 3, 4, 5, 6, 7];
        let pinned = |v: NodeId| v == id(6);
        assert_eq!(pop(&mut index, &next_use, pinned), id(5));
        assert_eq!(pop(&mut index, &next_use, pinned), id(3));
        assert_eq!(index.len(), 2);
        assert!(index.contains(id(6)) && index.contains(id(1)));
        assert!(!index.contains(id(5)));
    }

    #[test]
    fn untouched_nodes_keep_their_key_and_touched_ones_are_rekeyed() {
        let mut index = EvictionIndex::new(3);
        let mut next_use = [10, 20, 30];
        for i in 0..3 {
            index.insert(id(i));
        }
        assert_eq!(pop(&mut index, &next_use, |_| false), id(2));
        // Node 0's next use moves past node 1's. Untouched, node 0 keeps its
        // old key (the executors touch every node whose inputs change) ...
        next_use[0] = 25;
        assert_eq!(pop(&mut index, &next_use, |_| false), id(1));
        // ... and once touched it is re-keyed.
        index.insert(id(1));
        index.touch(id(0));
        assert_eq!(pop(&mut index, &next_use, |_| false), id(0));
    }

    #[test]
    fn a_next_use_at_the_current_position_expires_with_it() {
        let mut index = EvictionIndex::new(3);
        let mut next_use = [4, 9, 50];
        index.begin_position(4);
        for i in 0..3 {
            index.insert(id(i));
        }
        assert_eq!(pop(&mut index, &next_use, |_| false), id(2));
        // Node 0 read position 4 as its next use, so entering position 5
        // re-keys it without a touch; node 1 keeps its key.
        next_use[0] = 12;
        index.begin_position(5);
        assert_eq!(pop(&mut index, &next_use, |_| false), id(0));
    }

    #[test]
    fn compaction_bounds_the_heap_by_the_red_set() {
        let mut index = EvictionIndex::new(2);
        index.insert(id(0));
        index.insert(id(1));
        for round in 0..1000 {
            // Both keys change every round, leaving a stale entry each.
            index.touch(id(0));
            index.touch(id(1));
            assert_eq!(pop(&mut index, &[round, round + 1], |_| false), id(1));
            index.insert(id(1));
            assert!(index.heap.len() <= 2 * index.len() + 64);
        }
    }
}
