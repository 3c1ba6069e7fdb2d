//! Pluggable eviction policies for the greedy schedulers.
//!
//! A policy is a key function: for every red pebble the scheduler may evict
//! it builds a [`Candidate`] and asks the [`EvictionPolicy`] for an
//! [`EvictionKey`]; the candidate with the largest key is evicted. The
//! candidate carries the next position in the compute order at which the
//! value is consumed again (Belady's clairvoyant signal, precomputed by
//! [`pebble_dag::liveness::NextUse`]), the last step that touched it, the
//! number of remaining consumers, and whether the eviction is free or costs
//! a save.
//!
//! Every key ends in the same tie-break: among equal ranks a free eviction
//! wins, then the lowest node id. Keys of distinct nodes therefore never
//! tie, so the victim is unique and schedules replay bit-for-bit.
//!
//! Policies are pure functions of the candidate, which is what lets the
//! executors keep keys in a heap instead of rescanning every red node (see
//! `crate::eviction`): each candidate field changes only when the executor
//! touches the node — loads it, aggregates from or into it, or computes it.

use pebble_dag::NodeId;

/// One evictable red pebble, as presented to an [`EvictionPolicy`].
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// The node holding the red pebble.
    pub node: NodeId,
    /// Position in the compute order of the next consumer of this value, or
    /// [`pebble_dag::liveness::NEVER`] if no consumer remains.
    pub next_use: usize,
    /// Monotone step counter value of the last time this value was touched
    /// (loaded, computed into, or read by a compute).
    pub last_use: usize,
    /// Number of remaining consumers (uncomputed successors in RBP, unmarked
    /// out-edges in PRBP).
    pub remaining_consumers: usize,
    /// `true` if evicting this pebble costs no I/O (the value is dead or a
    /// slow-memory copy already exists); `false` if a save must be paid
    /// first.
    pub free: bool,
}

/// The eviction priority of one candidate: the scheduler evicts the largest.
///
/// Keys order lexicographically by `(rank, free, lowest node id)`, packed
/// into one integer so that comparing two keys is one integer comparison.
/// The node is part of the key, so two distinct nodes never share one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EvictionKey(u128);

impl EvictionKey {
    /// A value no [`EvictionKey::new`] call produces (bits 33–63 are always
    /// zero there); marks a red node without a current heap entry.
    pub(crate) const UNKEYED: EvictionKey = EvictionKey(u128::MAX);

    /// The key of `node`: a larger `rank` is evicted first, then a `free`
    /// eviction, then the lower node id.
    pub fn new(rank: u64, free: bool, node: NodeId) -> Self {
        EvictionKey(
            (u128::from(rank) << 64) | (u128::from(free) << 32) | u128::from(u32::MAX - node.0),
        )
    }

    /// The node this key belongs to.
    pub(crate) fn node(self) -> NodeId {
        NodeId(u32::MAX - self.0 as u32)
    }
}

/// How a greedy scheduler chooses which red pebble to evict.
///
/// # Contract
///
/// [`EvictionPolicy::key`] must be a pure function of the candidate, and the
/// key must belong to `candidate.node` (build it with [`EvictionKey::new`]).
/// The scheduler keeps computed keys and re-asks only after a candidate
/// field changed, so a key that depended on anything else would go stale.
/// Pinned values — the inputs and target of the move being scheduled — are
/// never evicted, whatever their key. A policy never affects the *validity*
/// of the schedule, only its cost: whatever it picks, the scheduler pays
/// the required save and emits simulator-checked moves.
pub trait EvictionPolicy {
    /// Short stable identifier used in experiment and benchmark output.
    fn name(&self) -> &'static str;

    /// The eviction priority of `candidate`; the largest key is evicted.
    fn key(&self, candidate: &Candidate) -> EvictionKey;
}

/// Belady's rule: evict the value whose next use lies furthest in the future.
/// Free evictions win among equals, node id breaks remaining ties.
#[derive(Debug, Clone, Copy, Default)]
pub struct FurthestInFuture;

impl EvictionPolicy for FurthestInFuture {
    fn name(&self) -> &'static str {
        "belady"
    }

    fn key(&self, c: &Candidate) -> EvictionKey {
        EvictionKey::new(c.next_use as u64, c.free, c.node)
    }
}

/// Least-recently-used: evict the value untouched for the longest time. The
/// classic online policy, here as the reference point Belady is compared
/// against.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lru;

impl EvictionPolicy for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn key(&self, c: &Candidate) -> EvictionKey {
        EvictionKey::new(u64::MAX - c.last_use as u64, c.free, c.node)
    }
}

/// Evict the value with the fewest remaining consumers (dead values first),
/// preferring free evictions among equals.
#[derive(Debug, Clone, Copy, Default)]
pub struct FewestRemainingConsumers;

impl EvictionPolicy for FewestRemainingConsumers {
    fn name(&self) -> &'static str {
        "fewest-consumers"
    }

    fn key(&self, c: &Candidate) -> EvictionKey {
        EvictionKey::new(u64::MAX - c.remaining_consumers as u64, c.free, c.node)
    }
}

/// The shipped policies, in stable output order.
pub fn all_policies() -> Vec<Box<dyn EvictionPolicy>> {
    vec![
        Box::new(FurthestInFuture),
        Box::new(Lru),
        Box::new(FewestRemainingConsumers),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dag::liveness::NEVER;

    fn cand(node: usize, next_use: usize, last_use: usize, rem: usize, free: bool) -> Candidate {
        Candidate {
            node: NodeId::from_index(node),
            next_use,
            last_use,
            remaining_consumers: rem,
            free,
        }
    }

    /// Index of the candidate `policy` evicts.
    fn victim(policy: &dyn EvictionPolicy, cs: &[Candidate]) -> usize {
        (0..cs.len())
            .max_by_key(|&i| policy.key(&cs[i]))
            .expect("non-empty")
    }

    #[test]
    fn belady_picks_furthest_next_use() {
        let cs = [cand(0, 5, 0, 1, false), cand(1, 9, 0, 1, false)];
        assert_eq!(victim(&FurthestInFuture, &cs), 1);
        // Dead values (NEVER) beat everything.
        let cs = [cand(0, NEVER, 0, 0, true), cand(1, 9, 0, 1, false)];
        assert_eq!(victim(&FurthestInFuture, &cs), 0);
    }

    #[test]
    fn belady_prefers_free_on_ties_and_low_ids_last() {
        let cs = [cand(3, 7, 0, 1, false), cand(1, 7, 0, 1, true)];
        assert_eq!(victim(&FurthestInFuture, &cs), 1);
        let cs = [cand(3, 7, 0, 1, true), cand(1, 7, 0, 1, true)];
        assert_eq!(
            victim(&FurthestInFuture, &cs),
            1,
            "smallest node id wins ties"
        );
        // Several dead values tie on NEVER: free first, then the lowest id.
        let cs = [
            cand(2, NEVER, 0, 0, true),
            cand(0, NEVER, 0, 0, false),
            cand(5, NEVER, 0, 0, true),
        ];
        assert_eq!(victim(&FurthestInFuture, &cs), 0);
    }

    #[test]
    fn lru_picks_oldest() {
        let cs = [cand(0, 5, 10, 1, false), cand(1, 5, 3, 1, false)];
        assert_eq!(victim(&Lru, &cs), 1);
    }

    #[test]
    fn fewest_consumers_picks_dead_first() {
        let cs = [cand(0, 5, 0, 2, false), cand(1, 5, 0, 0, true)];
        assert_eq!(victim(&FewestRemainingConsumers, &cs), 1);
    }

    #[test]
    fn keys_carry_their_node_and_never_collide_with_unkeyed() {
        for node in [0usize, 1, 7, u32::MAX as usize - 1] {
            for (rank, free) in [(0, false), (u64::MAX, true), (42, false)] {
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

    #[test]
    fn policy_names_are_stable() {
        let names: Vec<_> = all_policies().iter().map(|p| p.name()).collect();
        assert_eq!(names, ["belady", "lru", "fewest-consumers"]);
    }
}
