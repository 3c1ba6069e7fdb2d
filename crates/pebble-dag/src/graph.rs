//! Immutable computational DAGs in CSR (compressed sparse row) form.
//!
//! A [`Dag`] is built once via [`DagBuilder`] and never mutated afterwards.
//! Both the out-adjacency and the in-adjacency are stored as CSR arrays so
//! that pebbling simulators can walk predecessors and successors without any
//! per-node allocation. Edges carry stable [`EdgeId`]s (assigned in insertion
//! order) because the partial-computing game marks *edges*, not nodes.

use crate::bitset::BitSet;
use crate::ids::{EdgeId, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors reported by [`DagBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// An edge references a node id that was never added.
    UnknownNode(NodeId),
    /// A self-loop `(v, v)` was added.
    SelfLoop(NodeId),
    /// The same directed edge was added twice.
    DuplicateEdge(NodeId, NodeId),
    /// The edge set contains a directed cycle.
    Cycle,
    /// The graph contains a node with neither incoming nor outgoing edges.
    IsolatedNode(NodeId),
    /// The graph has no nodes at all.
    Empty,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::UnknownNode(v) => write!(f, "edge references unknown node {v:?}"),
            DagError::SelfLoop(v) => write!(f, "self-loop on node {v:?}"),
            DagError::DuplicateEdge(u, v) => write!(f, "duplicate edge ({u:?}, {v:?})"),
            DagError::Cycle => write!(f, "edge set contains a directed cycle"),
            DagError::IsolatedNode(v) => write!(f, "node {v:?} is isolated (no edges)"),
            DagError::Empty => write!(f, "graph has no nodes"),
        }
    }
}

impl std::error::Error for DagError {}

/// Incremental builder for [`Dag`].
///
/// Nodes are created with [`DagBuilder::add_node`] (optionally labelled) and
/// edges with [`DagBuilder::add_edge`]. [`DagBuilder::build`] validates the
/// result: no self-loops, no duplicate edges, no cycles, no isolated nodes
/// (the paper assumes DAGs without isolated nodes).
#[derive(Debug, Default, Clone)]
pub struct DagBuilder {
    nodes: usize,
    /// One label per node, or none while every label is empty.
    labels: Vec<String>,
    edges: Vec<(NodeId, NodeId)>,
}

impl DagBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node with an empty label; returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.add_labeled_node(String::new())
    }

    /// Add a node carrying a human-readable label; returns its id.
    pub fn add_labeled_node(&mut self, label: impl Into<String>) -> NodeId {
        let label = label.into();
        if !label.is_empty() || !self.labels.is_empty() {
            self.labels.resize(self.nodes, String::new());
            self.labels.push(label);
        }
        let id = NodeId::from_index(self.nodes);
        self.nodes += 1;
        id
    }

    /// Add `count` unlabelled nodes, returning their ids in order.
    pub fn add_nodes(&mut self, count: usize) -> Vec<NodeId> {
        (0..count).map(|_| self.add_node()).collect()
    }

    /// Add a directed edge `(u, v)`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.edges.push((u, v));
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Validate and freeze into a [`Dag`].
    ///
    /// The first bad edge in insertion order is reported: an unknown
    /// endpoint or a self-loop on the edge itself, else a duplicate of an
    /// earlier edge. Duplicates are found on the out-CSR, whose runs list
    /// each source's edges in insertion order, with one stamp per target:
    /// O(n + m) and no hashing.
    pub fn build(self) -> Result<Dag, DagError> {
        let n = self.nodes;
        if n == 0 {
            return Err(DagError::Empty);
        }
        let bad = self
            .edges
            .iter()
            .position(|&(u, v)| u.index() >= n || v.index() >= n || u == v);
        let valid = &self.edges[..bad.unwrap_or(self.edges.len())];

        // CSR offsets and (neighbour, edge id) entries, so the PRBP engine
        // can translate between node pairs and edge ids without a hash
        // lookup.
        let (out_off, out_adj) = csr(n, valid, |(u, v)| (u, v));
        let mut stamp = vec![u32::MAX; n];
        let mut duplicate: Option<EdgeId> = None;
        for u in 0..n {
            for &(v, e) in &out_adj[out_off[u]..out_off[u + 1]] {
                if stamp[v.index()] == u as u32 {
                    duplicate = Some(duplicate.map_or(e, |d| d.min(e)));
                    break;
                }
                stamp[v.index()] = u as u32;
            }
        }
        drop(stamp);
        if let Some(e) = duplicate {
            let (u, v) = self.edges[e.index()];
            return Err(DagError::DuplicateEdge(u, v));
        }
        if let Some(i) = bad {
            let (u, v) = self.edges[i];
            return Err(if u.index() >= n {
                DagError::UnknownNode(u)
            } else if v.index() >= n {
                DagError::UnknownNode(v)
            } else {
                DagError::SelfLoop(u)
            });
        }

        let (in_off, in_adj) = csr(n, &self.edges, |(u, v)| (v, u));
        for i in 0..n {
            if out_off[i] == out_off[i + 1] && in_off[i] == in_off[i + 1] {
                return Err(DagError::IsolatedNode(NodeId::from_index(i)));
            }
        }
        let dag = Dag {
            nodes: n,
            labels: self.labels,
            out_off,
            out_adj,
            in_off,
            in_adj,
            edge_endpoints: self.edges,
        };

        // Cycle check via Kahn's algorithm.
        if dag.topological_order_internal().is_none() {
            return Err(DagError::Cycle);
        }
        Ok(dag)
    }
}

/// One CSR over `edges`, keyed by `ends(edge).0` with entries
/// `(ends(edge).1, edge id)`, each run in edge-id order.
fn csr(
    n: usize,
    edges: &[(NodeId, NodeId)],
    ends: impl Fn((NodeId, NodeId)) -> (NodeId, NodeId),
) -> (Vec<usize>, Vec<(NodeId, EdgeId)>) {
    let mut off = vec![0usize; n + 1];
    for &edge in edges {
        off[ends(edge).0.index() + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    // Fill with `off[key]` as the cursor, which leaves it at the run's end:
    // the old `off[key + 1]`. One shift restores the offsets.
    let mut adj = vec![(NodeId(0), EdgeId(0)); edges.len()];
    for (ei, &edge) in edges.iter().enumerate() {
        let (key, other) = ends(edge);
        adj[off[key.index()]] = (other, EdgeId::from_index(ei));
        off[key.index()] += 1;
    }
    off.copy_within(0..n, 1);
    off[0] = 0;
    (off, adj)
}

/// An immutable computational DAG.
///
/// Nodes are `NodeId(0) .. NodeId(n-1)`; edges are `EdgeId(0) .. EdgeId(m-1)`
/// in insertion order. Source nodes (in-degree 0) are the inputs of the
/// computation; sink nodes (out-degree 0) are its outputs.
#[derive(Clone, Serialize, Deserialize)]
pub struct Dag {
    nodes: usize,
    /// One label per node, or none when every label is empty.
    labels: Vec<String>,
    out_off: Vec<usize>,
    out_adj: Vec<(NodeId, EdgeId)>,
    in_off: Vec<usize>,
    in_adj: Vec<(NodeId, EdgeId)>,
    edge_endpoints: Vec<(NodeId, NodeId)>,
}

impl Dag {
    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of edges `m`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_endpoints.len()
    }

    /// Iterate over all node ids in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::from_index)
    }

    /// Iterate over all edge ids in increasing order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edge_count()).map(EdgeId::from_index)
    }

    /// The `(source, target)` endpoints of an edge.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edge_endpoints[e.index()]
    }

    /// The label attached to a node (may be empty).
    pub fn label(&self, v: NodeId) -> &str {
        self.labels.get(v.index()).map_or("", String::as_str)
    }

    /// Out-neighbours of `v` together with the connecting edge ids.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.out_adj[self.out_off[v.index()]..self.out_off[v.index() + 1]]
    }

    /// In-neighbours of `v` together with the connecting edge ids.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.in_adj[self.in_off[v.index()]..self.in_off[v.index() + 1]]
    }

    /// Out-neighbours of `v`.
    pub fn successors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(v).iter().map(|&(w, _)| w)
    }

    /// In-neighbours of `v`.
    pub fn predecessors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(v).iter().map(|&(u, _)| u)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_off[v.index() + 1] - self.out_off[v.index()]
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_off[v.index() + 1] - self.in_off[v.index()]
    }

    /// Returns `true` if `v` has no incoming edges (an input of the computation).
    #[inline]
    pub fn is_source(&self, v: NodeId) -> bool {
        self.in_degree(v) == 0
    }

    /// Returns `true` if `v` has no outgoing edges (an output of the computation).
    #[inline]
    pub fn is_sink(&self, v: NodeId) -> bool {
        self.out_degree(v) == 0
    }

    /// All source nodes in increasing id order.
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.is_source(v)).collect()
    }

    /// All sink nodes in increasing id order.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes().filter(|&v| self.is_sink(v)).collect()
    }

    /// Maximum in-degree Δ_in over all nodes.
    pub fn max_in_degree(&self) -> usize {
        self.nodes().map(|v| self.in_degree(v)).max().unwrap_or(0)
    }

    /// Maximum out-degree Δ_out over all nodes.
    pub fn max_out_degree(&self) -> usize {
        self.nodes().map(|v| self.out_degree(v)).max().unwrap_or(0)
    }

    /// The *trivial cost* `t`: number of sources plus number of sinks. Every
    /// valid pebbling (in RBP or PRBP) loads each source and saves each sink
    /// at least once, so `OPT ≥ t`.
    pub fn trivial_cost(&self) -> usize {
        self.nodes()
            .filter(|&v| self.is_source(v) || self.is_sink(v))
            .count()
    }

    /// Look up the edge id for the pair `(u, v)`, if the edge exists.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.out_edges(u)
            .iter()
            .find(|&&(w, _)| w == v)
            .map(|&(_, e)| e)
    }

    /// Returns `true` if the directed edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// A fresh, empty node set sized for this graph.
    pub fn node_set(&self) -> BitSet {
        BitSet::new(self.node_count())
    }

    /// A fresh, empty edge set sized for this graph.
    pub fn edge_set(&self) -> BitSet {
        BitSet::new(self.edge_count())
    }

    pub(crate) fn topological_order_internal(&self) -> Option<Vec<NodeId>> {
        let n = self.node_count();
        let mut in_deg: Vec<u32> = self
            .in_off
            .windows(2)
            .map(|w| (w[1] - w[0]) as u32)
            .collect();
        // The queue is never popped: a head index walks it, so once the walk
        // ends it holds every node reached, in order.
        let mut queue: Vec<NodeId> = Vec::with_capacity(n);
        queue.extend((0..n).filter(|&i| in_deg[i] == 0).map(NodeId::from_index));
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for &(w, _) in self.out_edges(v) {
                in_deg[w.index()] -= 1;
                if in_deg[w.index()] == 0 {
                    queue.push(w);
                }
            }
        }
        (queue.len() == n).then_some(queue)
    }
}

impl fmt::Debug for Dag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Dag {{ nodes: {}, edges: {}, sources: {}, sinks: {} }}",
            self.node_count(),
            self.edge_count(),
            self.sources().len(),
            self.sinks().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        // a -> b -> d, a -> c -> d
        let mut b = DagBuilder::new();
        let a = b.add_labeled_node("a");
        let bb = b.add_labeled_node("b");
        let c = b.add_labeled_node("c");
        let d = b.add_labeled_node("d");
        b.add_edge(a, bb);
        b.add_edge(a, c);
        b.add_edge(bb, d);
        b.add_edge(c, d);
        b.build().unwrap()
    }

    #[test]
    fn diamond_structure() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.sources(), vec![NodeId(0)]);
        assert_eq!(g.sinks(), vec![NodeId(3)]);
        assert_eq!(g.max_in_degree(), 2);
        assert_eq!(g.max_out_degree(), 2);
        assert_eq!(g.trivial_cost(), 2);
        assert_eq!(g.label(NodeId(1)), "b");
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(!g.has_edge(NodeId(1), NodeId(0)));
    }

    #[test]
    fn edge_endpoints_match_adjacency() {
        let g = diamond();
        for e in g.edges() {
            let (u, v) = g.edge_endpoints(e);
            assert!(g.out_edges(u).iter().any(|&(w, ee)| w == v && ee == e));
            assert!(g.in_edges(v).iter().any(|&(w, ee)| w == u && ee == e));
        }
    }

    #[test]
    fn rejects_cycle() {
        let mut b = DagBuilder::new();
        let x = b.add_node();
        let y = b.add_node();
        b.add_edge(x, y);
        b.add_edge(y, x);
        assert_eq!(b.build().unwrap_err(), DagError::Cycle);
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = DagBuilder::new();
        let x = b.add_node();
        let y = b.add_node();
        b.add_edge(x, y);
        b.add_edge(x, x);
        assert_eq!(b.build().unwrap_err(), DagError::SelfLoop(x));
    }

    #[test]
    fn rejects_duplicate_edge() {
        let mut b = DagBuilder::new();
        let x = b.add_node();
        let y = b.add_node();
        b.add_edge(x, y);
        b.add_edge(x, y);
        assert_eq!(b.build().unwrap_err(), DagError::DuplicateEdge(x, y));
    }

    #[test]
    fn rejects_isolated_node() {
        let mut b = DagBuilder::new();
        let x = b.add_node();
        let y = b.add_node();
        let _z = b.add_node();
        b.add_edge(x, y);
        assert_eq!(b.build().unwrap_err(), DagError::IsolatedNode(NodeId(2)));
    }

    #[test]
    fn rejects_unknown_node() {
        let mut b = DagBuilder::new();
        let x = b.add_node();
        b.add_edge(x, NodeId(5));
        assert_eq!(b.build().unwrap_err(), DagError::UnknownNode(NodeId(5)));
    }

    #[test]
    fn rejects_empty_graph() {
        assert_eq!(DagBuilder::new().build().unwrap_err(), DagError::Empty);
    }

    #[test]
    fn labels_are_kept_only_when_some_label_is_set() {
        let mut b = DagBuilder::new();
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1]);
        b.add_edge(n[1], n[2]);
        let plain = b.clone().build().unwrap();
        assert!(plain.labels.is_empty());
        assert_eq!(plain.label(n[2]), "");
        let x = b.add_labeled_node("x");
        let y = b.add_node();
        b.add_edge(n[2], x);
        b.add_edge(x, y);
        let g = b.build().unwrap();
        assert_eq!(g.labels.len(), 5);
        let labels: Vec<&str> = g.nodes().map(|v| g.label(v)).collect();
        assert_eq!(labels, ["", "", "", "x", ""]);
    }

    /// `DagBuilder::build` as it was before the CSR duplicate check: a
    /// `HashSet` of edges, checked in insertion order.
    mod reference {
        use super::super::*;
        use std::collections::HashSet;

        pub fn build(n: usize, edges: Vec<(NodeId, NodeId)>) -> Result<Dag, DagError> {
            if n == 0 {
                return Err(DagError::Empty);
            }
            let mut seen = HashSet::with_capacity(edges.len());
            for &(u, v) in &edges {
                if u.index() >= n {
                    return Err(DagError::UnknownNode(u));
                }
                if v.index() >= n {
                    return Err(DagError::UnknownNode(v));
                }
                if u == v {
                    return Err(DagError::SelfLoop(u));
                }
                if !seen.insert((u, v)) {
                    return Err(DagError::DuplicateEdge(u, v));
                }
            }
            let mut out_deg = vec![0u32; n];
            let mut in_deg = vec![0u32; n];
            for &(u, v) in &edges {
                out_deg[u.index()] += 1;
                in_deg[v.index()] += 1;
            }
            for i in 0..n {
                if out_deg[i] == 0 && in_deg[i] == 0 {
                    return Err(DagError::IsolatedNode(NodeId::from_index(i)));
                }
            }
            let m = edges.len();
            let mut out_off = vec![0usize; n + 1];
            let mut in_off = vec![0usize; n + 1];
            for &(u, v) in &edges {
                out_off[u.index() + 1] += 1;
                in_off[v.index() + 1] += 1;
            }
            for i in 0..n {
                out_off[i + 1] += out_off[i];
                in_off[i + 1] += in_off[i];
            }
            let mut out_adj = vec![(NodeId(0), EdgeId(0)); m];
            let mut in_adj = vec![(NodeId(0), EdgeId(0)); m];
            let mut out_cursor = out_off.clone();
            let mut in_cursor = in_off.clone();
            let mut edge_endpoints = Vec::with_capacity(m);
            for (ei, &(u, v)) in edges.iter().enumerate() {
                let e = EdgeId::from_index(ei);
                out_adj[out_cursor[u.index()]] = (v, e);
                out_cursor[u.index()] += 1;
                in_adj[in_cursor[v.index()]] = (u, e);
                in_cursor[v.index()] += 1;
                edge_endpoints.push((u, v));
            }
            let dag = Dag {
                nodes: n,
                labels: Vec::new(),
                out_off,
                out_adj,
                in_off,
                in_adj,
                edge_endpoints,
            };
            if dag.topological_order_internal().is_none() {
                return Err(DagError::Cycle);
            }
            Ok(dag)
        }
    }

    /// Build `edges` on `n` nodes both ways; the results must be equal.
    fn assert_builds_like_the_reference(n: usize, edges: &[(u32, u32)]) -> Result<(), DagError> {
        let edges: Vec<(NodeId, NodeId)> =
            edges.iter().map(|&(u, v)| (NodeId(u), NodeId(v))).collect();
        let mut b = DagBuilder::new();
        b.add_nodes(n);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        match (b.build(), reference::build(n, edges.clone())) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.node_count(), want.node_count());
                assert_eq!(got.out_off, want.out_off, "{edges:?}");
                assert_eq!(got.out_adj, want.out_adj, "{edges:?}");
                assert_eq!(got.in_off, want.in_off, "{edges:?}");
                assert_eq!(got.in_adj, want.in_adj, "{edges:?}");
                assert_eq!(got.edge_endpoints, want.edge_endpoints, "{edges:?}");
                Ok(())
            }
            (Err(got), Err(want)) => {
                assert_eq!(got, want, "n = {n}, {edges:?}");
                Err(got)
            }
            (got, want) => panic!("n = {n}, {edges:?}: build {got:?}, reference {want:?}"),
        }
    }

    #[test]
    fn build_matches_the_hashing_reference_on_random_edge_lists() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(22);
        let mut outcomes = std::collections::BTreeMap::<String, usize>::new();
        for _ in 0..20_000 {
            let n = rng.gen_range(0..9u32);
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for _ in 0..rng.gen_range(0..3 * n as usize + 2) {
                let edge = match rng.gen_range(0..16u32) {
                    0 if !edges.is_empty() => edges[rng.gen_range(0..edges.len())],
                    1 => {
                        let v = rng.gen_range(0..n + 2);
                        (v, v)
                    }
                    2 => (rng.gen_range(0..n + 3), rng.gen_range(0..n + 3)),
                    3 | 4 if n >= 2 => {
                        let u = rng.gen_range(1..n);
                        (u, rng.gen_range(0..u))
                    }
                    _ if n >= 2 => {
                        let u = rng.gen_range(0..n - 1);
                        (u, rng.gen_range(u + 1..n))
                    }
                    _ => (0, 1),
                };
                edges.push(edge);
            }
            let kind = match assert_builds_like_the_reference(n as usize, &edges) {
                Ok(()) => "Ok".to_string(),
                Err(e) => format!("{e:?}").split('(').next().unwrap().to_string(),
            };
            *outcomes.entry(kind).or_default() += 1;
        }
        for kind in [
            "Ok",
            "UnknownNode",
            "SelfLoop",
            "DuplicateEdge",
            "Cycle",
            "IsolatedNode",
            "Empty",
        ] {
            assert!(
                outcomes.get(kind).copied().unwrap_or(0) >= 100,
                "{outcomes:?}"
            );
        }
    }

    #[test]
    fn build_reports_the_first_bad_edge_in_every_order() {
        // A valid chain 0 -> 1 -> ... -> 5 with one unknown-node edge, one
        // self-loop and one duplicate (of an edge from source 0, 3 or 4, so
        // stamps of several runs matter) planted in every relative order.
        let chain: Vec<(u32, u32)> = (0..5).map(|i| (i, i + 1)).collect();
        let faults = [(2, 9), (3, 3), (0, 1), (4, 5), (3, 4)];
        for (a, b, c) in [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 4)] {
            for order in [
                [a, b, c],
                [a, c, b],
                [b, a, c],
                [b, c, a],
                [c, a, b],
                [c, b, a],
            ] {
                for gap in 0..=2 {
                    let mut edges = chain.clone();
                    for (k, &f) in order.iter().enumerate() {
                        edges.insert((k * gap).min(edges.len()), faults[f]);
                    }
                    let _ = assert_builds_like_the_reference(6, &edges);
                    edges.reverse();
                    let _ = assert_builds_like_the_reference(6, &edges);
                }
            }
        }
    }

    /// A large edge list whose only fault is its last edge.
    #[cfg(not(debug_assertions))]
    #[test]
    fn build_matches_the_reference_on_fft_16384_with_a_last_fault() {
        let f = crate::generators::fft(16384).dag;
        let edges: Vec<(u32, u32)> = f
            .edges()
            .map(|e| {
                let (u, v) = f.edge_endpoints(e);
                (u.0, v.0)
            })
            .collect();
        let n = f.node_count();
        assert!(assert_builds_like_the_reference(n, &edges).is_ok());
        let (u, v) = edges[0];
        for last in [(u, v), (v, u), (u, u), (u, n as u32)] {
            let mut faulty = edges.clone();
            faulty.push(last);
            assert!(assert_builds_like_the_reference(n, &faulty).is_err());
        }
    }

    #[test]
    fn serde_roundtrip() {
        let g = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let back: Dag = serde_json::from_str(&json).unwrap();
        assert_eq!(back.node_count(), g.node_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.sources(), g.sources());
        assert_eq!(back.sinks(), g.sinks());
    }
}
