//! The transposition table over `Arc`-interned packed states.
//!
//! A search state is a fixed number of `u64` words: bit planes over the
//! nodes (and, for PRBP, the edges) of the DAG. Equal configurations encode
//! to identical words, so a single hash-map lookup on the word slice detects
//! duplicates in O(words). Keys are interned as `Arc<[u64]>`: one heap
//! allocation per *distinct* state, shared between the table index and the
//! slot storage. [`Transposition`] is slot-indexed exactly like the legacy
//! solvers, so `distinct` counts and tie-breaking stay bit-for-bit
//! reproducible.

use std::collections::HashMap;
use std::sync::Arc;

/// One entry of the transposition table: the interned state, its
/// best known distance from the start, and the parent pointer for trace
/// reconstruction.
pub(crate) struct Slot<M> {
    pub key: Arc<[u64]>,
    pub g: usize,
    pub parent: Option<(u32, M)>,
}

/// The transposition table: interned packed states with O(1)
/// duplicate detection.
pub(crate) struct Transposition<M> {
    index: HashMap<Arc<[u64]>, u32>,
    slots: Vec<Slot<M>>,
}

impl<M> Transposition<M> {
    /// Create a table containing only the start state (distance 0).
    pub fn new(start: &[u64]) -> Self {
        let key: Arc<[u64]> = Arc::from(start);
        let mut index = HashMap::new();
        index.insert(Arc::clone(&key), 0u32);
        Transposition {
            index,
            slots: vec![Slot {
                key,
                g: 0,
                parent: None,
            }],
        }
    }

    /// Number of distinct states interned so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Look up `words`, interning a fresh slot (with `g = usize::MAX`) if the
    /// state has not been seen. Returns the slot id.
    pub fn intern(&mut self, words: &[u64]) -> u32 {
        if let Some(&i) = self.index.get(words) {
            return i;
        }
        let i = self.slots.len() as u32;
        let key: Arc<[u64]> = Arc::from(words);
        self.index.insert(Arc::clone(&key), i);
        self.slots.push(Slot {
            key,
            g: usize::MAX,
            parent: None,
        });
        i
    }

    pub fn slot(&self, i: u32) -> &Slot<M> {
        &self.slots[i as usize]
    }

    pub fn slot_mut(&mut self, i: u32) -> &mut Slot<M> {
        &mut self.slots[i as usize]
    }
}

impl<M: Copy> Transposition<M> {
    /// Walk the parent chain from `idx` back to the start, returning the
    /// moves in forward order.
    pub fn reconstruct_moves(&self, mut idx: u32) -> Vec<M> {
        let mut moves = Vec::new();
        while let Some((prev, mv)) = self.slots[idx as usize].parent {
            moves.push(mv);
            idx = prev;
        }
        moves.reverse();
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_detects_duplicates() {
        let start = [0u64, 0];
        let mut tt: Transposition<u8> = Transposition::new(&start);
        assert_eq!(tt.len(), 1);
        assert_eq!(tt.intern(&[0, 0]), 0);
        let a = tt.intern(&[1, 0]);
        assert_eq!(a, 1);
        assert_eq!(tt.intern(&[1, 0]), 1);
        assert_eq!(tt.len(), 2);
        assert_eq!(tt.slot(a).g, usize::MAX);
    }

    #[test]
    fn reconstruct_walks_parent_chain() {
        let mut tt: Transposition<char> = Transposition::new(&[0]);
        let a = tt.intern(&[1]);
        tt.slot_mut(a).parent = Some((0, 'x'));
        let b = tt.intern(&[2]);
        tt.slot_mut(b).parent = Some((a, 'y'));
        assert_eq!(tt.reconstruct_moves(b), vec!['x', 'y']);
    }
}
