//! Seeded input generation. Everything a workload sends the program is
//! built here from the workload seed before any timing starts, and the
//! program only ever sees the resulting DAG text.

use pebble_dag::{Dag, DagBuilder, NodeId};

/// SplitMix64: a small, fast, seedable generator. The benchmark's draws
/// depend only on the seed, never on the program's own RNG crates.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// A fresh isomorphic copy of `dag`: nodes renumbered by a random
/// permutation and edges inserted in a random order. Labels are dropped.
pub fn relabel(dag: &Dag, rng: &mut Rng) -> Dag {
    let n = dag.node_count();
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    let mut edges: Vec<(NodeId, NodeId)> = dag
        .edges()
        .map(|e| {
            let (u, v) = dag.edge_endpoints(e);
            (
                NodeId::from_index(perm[u.index()]),
                NodeId::from_index(perm[v.index()]),
            )
        })
        .collect();
    rng.shuffle(&mut edges);
    let mut b = DagBuilder::new();
    b.add_nodes(n);
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    b.build().expect("a relabelled DAG is still a DAG")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dag::canon::canonical_key;
    use pebble_dag::generators::fft;
    use pebble_io::Format;

    #[test]
    fn the_seed_alone_fixes_the_draws() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| r.below(3) < 3));
    }

    #[test]
    fn relabelling_keeps_the_shape_and_changes_the_text() {
        let dag = fft(16).dag;
        let copy = relabel(&dag, &mut Rng::new(3));
        assert_eq!(copy.node_count(), dag.node_count());
        assert_eq!(copy.edge_count(), dag.edge_count());
        assert_eq!(canonical_key(&copy), canonical_key(&dag));
        assert_ne!(
            pebble_io::write(&copy, Format::EdgeList),
            pebble_io::write(&dag, Format::EdgeList)
        );
    }
}
