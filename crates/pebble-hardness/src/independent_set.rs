//! Brute-force independent-set and clique oracles (Definition 4.9,
//! Lemma 4.10 and Lemma A.1).
//!
//! The reductions of the paper start from the `maxinset-vertex` problem: does
//! some *maximum* independent set of `G₀` contain a given vertex `v₀`?
//! Lemma A.1 shows this is equivalent (via graph complementation) to the
//! analogous `maxclique-vertex` problem. The instances used in experiments
//! are tiny, so exact branch-and-bound enumeration is entirely adequate.

use crate::undirected::UGraph;

/// Size of a maximum independent set of `g` (branch-and-bound enumeration).
pub fn max_independent_set_size(g: &UGraph) -> usize {
    best_extension(g, 0, &mut Vec::new())
}

/// One maximum independent set of `g` (ties broken towards smaller vertex
/// indices by the enumeration order).
pub fn max_independent_set(g: &UGraph) -> Vec<usize> {
    let mut best = Vec::new();
    collect_best(g, 0, &mut Vec::new(), &mut best);
    best
}

fn best_extension(g: &UGraph, from: usize, current: &mut Vec<usize>) -> usize {
    let n = g.vertex_count();
    if from == n {
        return current.len();
    }
    // Upper bound prune: even taking every remaining vertex cannot beat an
    // already-complete branch of the same size.
    let mut best = current.len();
    for v in from..n {
        if current.iter().all(|&u| !g.has_edge(u, v)) {
            current.push(v);
            best = best.max(best_extension(g, v + 1, current));
            current.pop();
        }
    }
    best.max(best_extension_skip(g, from, current))
}

fn best_extension_skip(g: &UGraph, _from: usize, current: &mut [usize]) -> usize {
    // Taking no further vertex.
    let _ = g;
    current.len()
}

fn collect_best(g: &UGraph, from: usize, current: &mut Vec<usize>, best: &mut Vec<usize>) {
    if current.len() > best.len() {
        *best = current.clone();
    }
    let n = g.vertex_count();
    for v in from..n {
        if current.iter().all(|&u| !g.has_edge(u, v)) {
            current.push(v);
            collect_best(g, v + 1, current, best);
            current.pop();
        }
    }
}

/// The `maxinset-vertex` problem (Definition 4.9): is there a *maximum*
/// independent set of `g` containing vertex `v0`?
pub fn maxinset_vertex(g: &UGraph, v0: usize) -> bool {
    assert!(v0 < g.vertex_count());
    let optimum = max_independent_set_size(g);
    // Force v0 into the set: drop v0's neighbours and v0 itself, find the
    // best independent set among the remaining vertices, and add 1.
    let mut current = vec![v0];
    let mut best = vec![v0];
    collect_best_containing(g, 0, v0, &mut current, &mut best);
    best.len() == optimum
}

fn collect_best_containing(
    g: &UGraph,
    from: usize,
    v0: usize,
    current: &mut Vec<usize>,
    best: &mut Vec<usize>,
) {
    if current.len() > best.len() {
        *best = current.clone();
    }
    for v in from..g.vertex_count() {
        if v == v0 {
            continue;
        }
        if current.iter().all(|&u| !g.has_edge(u, v)) {
            current.push(v);
            collect_best_containing(g, v + 1, v0, current, best);
            current.pop();
        }
    }
}

/// The `maxclique-vertex` problem (Lemma A.1): is there a maximum clique of
/// `g` containing `v0`? Decided via the complement-graph equivalence.
pub fn maxclique_vertex(g: &UGraph, v0: usize) -> bool {
    maxinset_vertex(&g.complement(), v0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_set_of_cycle_5() {
        let c5 = UGraph::cycle(5);
        assert_eq!(max_independent_set_size(&c5), 2);
        let set = max_independent_set(&c5);
        assert_eq!(set.len(), 2);
        assert!(!c5.has_edge(set[0], set[1]));
    }

    #[test]
    fn independent_set_of_complete_graph_is_single_vertex() {
        let k4 = UGraph::complete(4);
        assert_eq!(max_independent_set_size(&k4), 1);
        // Every vertex lies in some maximum independent set (a singleton).
        for v in 0..4 {
            assert!(maxinset_vertex(&k4, v));
        }
    }

    #[test]
    fn independent_set_of_empty_graph_is_everything() {
        let g = UGraph::new(6);
        // No edges, but our UGraph requires none anyway for this test.
        assert_eq!(max_independent_set_size(&g), 6);
        assert_eq!(max_independent_set(&g), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn maxinset_vertex_distinguishes_vertices() {
        // A star K_{1,3}: the maximum independent set is the 3 leaves; the
        // centre is in no maximum independent set.
        let star = UGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(max_independent_set_size(&star), 3);
        assert!(!maxinset_vertex(&star, 0));
        assert!(maxinset_vertex(&star, 1));
        assert!(maxinset_vertex(&star, 2));
        assert!(maxinset_vertex(&star, 3));
    }

    #[test]
    fn maxclique_vertex_matches_complement_reduction() {
        // In the complement of the star, vertex 0 is isolated from the
        // triangle {1,2,3}; the maximum clique is the triangle.
        let star = UGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let comp = star.complement();
        assert!(!maxclique_vertex(&comp, 0));
        assert!(maxclique_vertex(&comp, 1));
        // Consistency of the two oracles under complementation (Lemma A.1).
        for v in 0..4 {
            assert_eq!(maxinset_vertex(&star, v), maxclique_vertex(&comp, v));
        }
    }

    #[test]
    fn path_graph_parity_example() {
        // Path on 4 vertices 0-1-2-3: maximum independent sets are {0,2},
        // {0,3}, {1,3}: every vertex is in some maximum independent set.
        let p4 = UGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(max_independent_set_size(&p4), 2);
        for v in 0..4 {
            assert!(maxinset_vertex(&p4, v), "vertex {v}");
        }
        // Path on 5 vertices: the unique maximum independent set is {0,2,4}.
        let p5 = UGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(max_independent_set_size(&p5), 3);
        assert!(maxinset_vertex(&p5, 0));
        assert!(!maxinset_vertex(&p5, 1));
        assert!(maxinset_vertex(&p5, 2));
        assert!(!maxinset_vertex(&p5, 3));
        assert!(maxinset_vertex(&p5, 4));
    }
}
