//! Belady's eviction rule, the one rule of the greedy schedulers.
//!
//! Every red pebble the scheduler may evict is a [`Candidate`], ranked by
//! its [`EvictionKey`] ([`FurthestInFuture::key`]); the candidate with the
//! largest key is evicted. The candidate carries the next position in the
//! compute order at which the value is consumed again (Belady's
//! clairvoyant signal) and whether the eviction is free or costs a save.
//! The greedy executors keep every node's use positions in their eviction
//! index (`crate::eviction`), which answers the next-use question and
//! builds the key itself.
//!
//! Every key ends in the same tie-break: among equal next uses a free
//! eviction wins, then the lowest node id. Keys of distinct nodes therefore
//! never tie, so the victim is unique and schedules replay bit-for-bit.
//!
//! The key is a pure function of the candidate, which is what lets the
//! executors keep keys in a heap instead of rescanning every red node (see
//! `crate::eviction`): each candidate field changes only when the executor
//! touches the node — loads it, aggregates from or into it, or computes it.

use pebble_dag::NodeId;

/// One evictable red pebble.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// The node holding the red pebble.
    pub node: NodeId,
    /// Position in the compute order of the next consumer of this value, or
    /// [`pebble_dag::liveness::NEVER`] if no consumer remains.
    pub next_use: usize,
    /// `true` if evicting this pebble costs no I/O (the value is dead or a
    /// slow-memory copy already exists); `false` if a save must be paid
    /// first.
    pub free: bool,
}

/// The eviction priority of one candidate: the scheduler evicts the largest.
///
/// Keys order lexicographically by `(rank, free, lowest node id)`, packed
/// into one `u64` so that comparing two keys is one integer comparison:
///
/// * bits 32–63: the rank, the next use's position with
///   [`pebble_dag::liveness::NEVER`] mapped to `u32::MAX`;
/// * bit 31: whether the eviction is free;
/// * bits 0–30: the node id subtracted from `2³¹ − 1`, so a lower id gives
///   a larger key.
///
/// Keys are therefore defined for node ids below 2³¹. The node is part of
/// the key, so two distinct nodes never share one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EvictionKey(u64);

impl EvictionKey {
    /// The rank of a value with no remaining use.
    pub(crate) const NEVER: u32 = u32::MAX;

    /// The largest node count whose ids all fit a key.
    pub(crate) const MAX_NODES: usize = NODE as usize;

    /// A value no key of a real next use has: its rank `u32::MAX − 1` is
    /// neither [`EvictionKey::NEVER`] nor a position, which the greedy
    /// executors keep below 2³¹. Marks a red node without a current heap
    /// entry.
    pub(crate) const UNKEYED: EvictionKey = EvictionKey(((u32::MAX - 1) as u64) << 32);

    /// The key of `node`: a larger `rank` is evicted first, then a `free`
    /// eviction, then the lower node id.
    pub(crate) fn new(rank: u32, free: bool, node: NodeId) -> Self {
        debug_assert!(node.0 <= NODE, "node {} has no key", node.0);
        EvictionKey((u64::from(rank) << 32) | (u64::from(free) << 31) | u64::from(NODE - node.0))
    }

    /// The node this key belongs to.
    pub(crate) fn node(self) -> NodeId {
        NodeId(NODE - (self.0 as u32 & NODE))
    }
}

/// The node-id bits of an [`EvictionKey`], and its largest node id.
const NODE: u32 = (1 << 31) - 1;

/// Belady's rule: evict the value whose next use lies furthest in the future.
/// Free evictions win among equals, node id breaks remaining ties.
///
/// The greedy executors and certifiers take it as their `policy` argument;
/// it is the only eviction rule, so the argument selects nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct FurthestInFuture;

impl FurthestInFuture {
    /// The eviction priority of `candidate`; the largest key is evicted.
    /// Next uses at or beyond `u32::MAX` rank as [`NEVER`]; `c.node` must
    /// be below 2³¹.
    ///
    /// [`NEVER`]: pebble_dag::liveness::NEVER
    pub fn key(&self, c: &Candidate) -> EvictionKey {
        let rank = u32::try_from(c.next_use).unwrap_or(EvictionKey::NEVER);
        EvictionKey::new(rank, c.free, c.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dag::liveness::NEVER;

    fn cand(node: usize, next_use: usize, free: bool) -> Candidate {
        Candidate {
            node: NodeId::from_index(node),
            next_use,
            free,
        }
    }

    /// Index of the candidate Belady evicts.
    fn victim(cs: &[Candidate]) -> usize {
        (0..cs.len())
            .max_by_key(|&i| FurthestInFuture.key(&cs[i]))
            .expect("non-empty")
    }

    #[test]
    fn belady_picks_furthest_next_use() {
        let cs = [cand(0, 5, false), cand(1, 9, false)];
        assert_eq!(victim(&cs), 1);
        // Dead values (NEVER) beat everything.
        let cs = [cand(0, NEVER, true), cand(1, 9, false)];
        assert_eq!(victim(&cs), 0);
    }

    #[test]
    fn belady_prefers_free_on_ties_and_low_ids_last() {
        let cs = [cand(3, 7, false), cand(1, 7, true)];
        assert_eq!(victim(&cs), 1);
        let cs = [cand(3, 7, true), cand(1, 7, true)];
        assert_eq!(victim(&cs), 1, "smallest node id wins ties");
        // Several dead values tie on NEVER: free first, then the lowest id.
        let cs = [
            cand(2, NEVER, true),
            cand(0, NEVER, false),
            cand(5, NEVER, true),
        ];
        assert_eq!(victim(&cs), 0);
    }

    #[test]
    fn keys_carry_their_node_and_never_collide_with_unkeyed() {
        for node in [0usize, 1, 7, (1 << 31) - 1] {
            for (rank, free) in [(0, false), (EvictionKey::NEVER, true), (42, false)] {
                let key = EvictionKey::new(rank, free, NodeId::from_index(node));
                assert_eq!(key.node().index(), node);
                assert_ne!(key, EvictionKey::UNKEYED);
            }
        }
        // The packed order is the lexicographic (rank, free, lowest id) one.
        let k = |rank, free, node| EvictionKey::new(rank, free, NodeId::from_index(node));
        assert!(k(2, false, 9) > k(1, true, 0));
        assert!(k(1, true, 9) > k(1, false, 0));
        assert!(k(1, true, 0) > k(1, true, 9));
    }
}
