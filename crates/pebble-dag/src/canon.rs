//! Iso-invariant canonical hashing of DAGs — the substrate of the
//! content-addressed schedule cache.
//!
//! Two DAGs that differ only by a relabeling of node ids (and any reordering
//! of the edge list) describe the *same computation*, so a certified schedule
//! for one is a certified schedule for the other, modulo renaming. This
//! module computes:
//!
//! * a [`CanonKey`] — a 256-bit hash that is **invariant under node
//!   relabeling and edge-order permutation** (node labels are ignored: the
//!   pebble games only see structure), built by iterated
//!   Weisfeiler–Leman-style color refinement over the CSR representation;
//! * a canonical node ordering ([`CanonicalForm::perm`]) that maps node ids
//!   into a labeling-independent numbering, so a schedule stored under the
//!   canonical numbering can be replayed on any isomorphic relabeling.
//!
//! ## Canonical numbering
//!
//! The numbering starts from an ordered partition: the nodes sorted by
//! level (longest path from a source), then by stable WL color, so the
//! cells come in that order and every edge of the canonical copy
//! ([`CanonicalForm::relabel`]) runs from a lower to a higher id, as in a
//! generator's numbering; the greedy schedulers, whose orders follow ids,
//! get a topological numbering to work from. It is refined to an
//! *equitable* partition — every node of a cell has as many predecessors
//! and as many successors in each cell as every other — with a FIFO queue
//! of splitter cells. A splitter counts, for every node it touches, the
//! node's predecessors and successors inside it; each touched cell splits
//! into its untouched members followed by the touched ones in ascending
//! count order. The fragments of a queued cell are all queued; of any other
//! cell, all but the first largest (Hopcroft's rule; Hopcroft 1971, McKay &
//! Piperno 2014). Then, until the partition is discrete, the first cell
//! that is not a singleton gives up its last member as a new singleton
//! cell, which is queued and refined against. Cell boundaries and their
//! order never depend on the input's numbering; only the choice of the
//! individualized member does, and on the kernels this crate generates
//! (FFT, matmul, attention, trees) every such choice lies in one orbit of
//! the DAG's symmetries, so every relabeling gets the same canonical edge
//! list ([`CanonicalForm::edges`]).
//!
//! The refinement and its individualizations stop after a work budget
//! linear in `n + m` steps, and above 100,000 nodes the numbering is the
//! (level, color) order alone. Ties left then break by original id, and
//! [`CanonicalForm::discrete`] is `false`.
//!
//! ## Soundness contract
//!
//! The key is a *hash*: distinct isomorphism classes collide with negligible
//! probability (256 bits of output; WL-indistinguishable non-isomorphic
//! graphs are the only systematic source, and they are vanishingly rare
//! among computational DAGs). The canonical permutation is *best effort*:
//! ties are left only past the work budget, but even a discrete partition
//! can depend on the numbering when an individualized member's cell is not
//! one orbit, so two relabelings of one DAG may get different canonical
//! edge lists. **Every consumer must therefore re-validate a schedule
//! obtained through canonical translation** (the schedule cache replays
//! each hit through the game simulator before serving it); a wrong
//! permutation then costs a cache miss, never a wrong answer. Equal
//! canonical edge lists, on the other hand, prove an isomorphism.

use crate::ids::NodeId;
use crate::Dag;
use std::collections::VecDeque;
use std::fmt;

/// A 256-bit iso-invariant DAG fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CanonKey(pub [u64; 4]);

impl CanonKey {
    /// Lowercase fixed-width (64 character) hex rendering, suitable as a
    /// file name in a content-addressed store.
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for w in self.0 {
            s.push_str(&format!("{w:016x}"));
        }
        s
    }

    /// Parse the [`CanonKey::hex`] rendering back.
    pub fn from_hex(s: &str) -> Option<CanonKey> {
        if s.len() != 64 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let mut words = [0u64; 4];
        for (i, w) in words.iter_mut().enumerate() {
            *w = u64::from_str_radix(&s[16 * i..16 * (i + 1)], 16).ok()?;
        }
        Some(CanonKey(words))
    }
}

impl fmt::Display for CanonKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// The canonical form of a DAG: its key plus a canonical node numbering.
#[derive(Debug, Clone)]
pub struct CanonicalForm {
    /// The iso-invariant fingerprint (computed from the stable WL colors
    /// alone, so it never depends on the numbering below).
    pub key: CanonKey,
    /// `perm[v.index()]` is the canonical position of node `v`.
    pub perm: Vec<usize>,
    /// `true` when refinement left no tie: every node's position was fixed
    /// without the tie-break by original id.
    pub discrete: bool,
}

impl CanonicalForm {
    /// The inverse numbering: `inverse()[canonical] = original node`.
    pub fn inverse(&self) -> Vec<NodeId> {
        let mut inv = vec![NodeId::from_index(0); self.perm.len()];
        for (orig, &canon) in self.perm.iter().enumerate() {
            inv[canon] = NodeId::from_index(orig);
        }
        inv
    }

    /// Map an original node id to its canonical position.
    pub fn to_canonical(&self, v: NodeId) -> usize {
        self.perm[v.index()]
    }

    /// The edges of `dag` (the DAG this form was computed from) in
    /// canonical numbering, sorted. Two DAGs whose canonical edge lists are
    /// equal are isomorphic, through their canonical numberings.
    pub fn edges(&self, dag: &Dag) -> Vec<(NodeId, NodeId)> {
        let canon = |v: NodeId| NodeId::from_index(self.perm[v.index()]);
        let mut edges: Vec<(NodeId, NodeId)> = dag
            .edges()
            .map(|e| {
                let (u, v) = dag.edge_endpoints(e);
                (canon(u), canon(v))
            })
            .collect();
        edges.sort_unstable();
        edges
    }

    /// The canonical copy of `dag`: node `v` becomes node `perm[v]`, edges
    /// inserted in sorted order, labels dropped. Every edge runs from a
    /// lower to a higher id (the numbering is by level first).
    pub fn relabel(&self, dag: &Dag) -> Dag {
        let mut b = crate::DagBuilder::new();
        b.add_nodes(dag.node_count());
        for (u, v) in self.edges(dag) {
            b.add_edge(u, v);
        }
        b.build()
            .expect("a relabelled DAG keeps its edges, so it is still a DAG")
    }
}

/// Refinement rounds before the color partition is declared stable. Capping
/// keeps million-node graphs cheap; an early cap is still iso-invariant
/// (both relabelings stop at the identical round).
const MAX_ROUNDS: usize = 24;

/// Work budget of the canonical numbering, per node and per edge: the
/// partition refinement and its individualizations stop once they have
/// spent `REFINE_WORK × (n + m)` steps, and the remaining ties break by
/// original id. Canonicalization runs on the serving hot path, so its cost
/// stays linear in the input whatever the symmetry.
const REFINE_WORK: usize = 64;

/// Node count above which the canonical numbering skips the refinement:
/// serving paths canonicalize per request, and ordering by level and
/// stable WL color with the id tie-break plus simulator re-validation is
/// the right latency/robustness trade at that scale.
const INDIVIDUALIZATION_LIMIT: usize = 100_000;

/// splitmix64 finalizer: the bit mixer behind every hash in this module.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Order-dependent combine; multiset hashes sort their inputs first.
fn combine(acc: u64, value: u64) -> u64 {
    mix(acc ^ mix(value))
}

const PRED_TAG: u64 = 0x9D8A_75D1_0000_0001;
const SUCC_TAG: u64 = 0x9D8A_75D1_0000_0002;
const SELF_TAG: u64 = 0x9D8A_75D1_0000_0003;

/// One WL round: every node hashes its own color with the sorted multisets
/// of its predecessor and successor colors. Including the old color makes
/// the partition (w.h.p.) monotonically refining, so "distinct count stopped
/// growing" is a sound fixpoint test.
fn refine_round(dag: &Dag, colors: &[u64], scratch: &mut Vec<u64>, out: &mut [u64]) {
    for v in dag.nodes() {
        let mut h = combine(SELF_TAG, colors[v.index()]);
        scratch.clear();
        scratch.extend(dag.in_edges(v).iter().map(|&(u, _)| colors[u.index()]));
        scratch.sort_unstable();
        for &c in scratch.iter() {
            h = combine(h, c ^ PRED_TAG);
        }
        scratch.clear();
        scratch.extend(dag.out_edges(v).iter().map(|&(w, _)| colors[w.index()]));
        scratch.sort_unstable();
        for &c in scratch.iter() {
            h = combine(h, c ^ SUCC_TAG);
        }
        out[v.index()] = h;
    }
}

fn distinct_count(colors: &[u64]) -> usize {
    let mut sorted = colors.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// Refine to (capped) fixpoint, in place.
fn refine_to_fixpoint(dag: &Dag, colors: &mut Vec<u64>) {
    let n = dag.node_count();
    let mut scratch = Vec::new();
    let mut next = vec![0u64; n];
    let mut distinct = distinct_count(colors);
    for _ in 0..MAX_ROUNDS.min(n) {
        refine_round(dag, colors, &mut scratch, &mut next);
        std::mem::swap(colors, &mut next);
        let d = distinct_count(colors);
        if d <= distinct || d == n {
            break;
        }
        distinct = d;
    }
}

fn initial_colors(dag: &Dag) -> Vec<u64> {
    dag.nodes()
        .map(|v| {
            combine(
                combine(SELF_TAG, dag.in_degree(v) as u64),
                dag.out_degree(v) as u64,
            )
        })
        .collect()
}

/// Fold the stable coloring into the 256-bit key: node count, edge count,
/// the sorted color multiset and the sorted directed edge color pairs. Every
/// ingredient is labeling-independent.
fn key_from_colors(dag: &Dag, colors: &[u64]) -> CanonKey {
    let mut node_colors = colors.to_vec();
    node_colors.sort_unstable();
    let mut edge_pairs: Vec<u64> = dag
        .edges()
        .map(|e| {
            let (u, v) = dag.edge_endpoints(e);
            combine(colors[u.index()], colors[v.index()])
        })
        .collect();
    edge_pairs.sort_unstable();
    let mut words = [0u64; 4];
    for (i, w) in words.iter_mut().enumerate() {
        let mut h = mix(0xC0FF_EE00 + i as u64);
        h = combine(h, dag.node_count() as u64);
        h = combine(h, dag.edge_count() as u64);
        for &c in &node_colors {
            h = combine(h, c);
        }
        h = combine(h, PRED_TAG);
        for &p in &edge_pairs {
            h = combine(h, p);
        }
        *w = h;
    }
    CanonKey(words)
}

/// The iso-invariant fingerprint alone (cheaper than [`canonical_form`]: no
/// individualization passes).
pub fn canonical_key(dag: &Dag) -> CanonKey {
    let mut colors = initial_colors(dag);
    refine_to_fixpoint(dag, &mut colors);
    key_from_colors(dag, &colors)
}

/// Compute the full canonical form: the key plus a canonical node numbering
/// obtained by equitable partition refinement from the nodes ordered by
/// level and stable WL color, individualizing until the partition is
/// discrete or the work budget runs out (ties left then break by original
/// id — see the module soundness contract).
pub fn canonical_form(dag: &Dag) -> CanonicalForm {
    let n = dag.node_count();
    let mut colors = initial_colors(dag);
    refine_to_fixpoint(dag, &mut colors);
    let key = key_from_colors(dag, &colors);

    let levels = crate::topo::levels(dag);
    let class = |v: u32| (levels[v as usize], colors[v as usize]);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_unstable_by_key(|&v| (class(v), v));
    let mut part = Partition::new(order, class);
    if n <= INDIVIDUALIZATION_LIMIT {
        let budget = REFINE_WORK * (n + dag.edge_count());
        let mut work = 0;
        let mut open = 0;
        while part.refine(dag, &mut work, budget) && part.individualize(&mut open) {
            work += 1;
        }
    }
    let discrete = part.cells == n;
    let mut perm = vec![0usize; n];
    let mut start = 0;
    while start < n {
        let end = part.end[start] as usize;
        let cell = &mut part.elems[start..end];
        cell.sort_unstable(); // the tie-break by original id
        for (i, &v) in cell.iter().enumerate() {
            perm[v as usize] = start + i;
        }
        start = end;
    }
    CanonicalForm {
        key,
        perm,
        discrete,
    }
}

/// An ordered partition of the nodes under refinement. `elems` lists the
/// nodes cell by cell; a cell is the position range `start..end[start]` and
/// is named by its start. Only the cell boundaries and their order are
/// labeling-independent; the order of nodes inside a cell is not.
struct Partition {
    elems: Vec<u32>,
    /// Position of each node in `elems`.
    pos: Vec<u32>,
    /// Start of each node's cell.
    cell: Vec<u32>,
    /// End of the cell starting at each position (read at cell starts only).
    end: Vec<u32>,
    /// Whether the cell starting at each position is waiting in `queue`.
    queued: Vec<bool>,
    /// Splitter cells, first in first out.
    queue: VecDeque<u32>,
    cells: usize,
    /// Per node: predecessors and successors inside the current splitter.
    preds: Vec<u32>,
    succs: Vec<u32>,
    /// Per cell start: members the current splitter touched.
    hits: Vec<u32>,
    touched: Vec<u32>,
    touched_cells: Vec<u32>,
    fragments: Vec<u32>,
}

impl Partition {
    /// The partition of `order` into runs of equal `class`, every cell
    /// queued as a splitter.
    fn new<K: PartialEq>(order: Vec<u32>, class: impl Fn(u32) -> K) -> Partition {
        let n = order.len();
        let mut part = Partition {
            pos: vec![0; n],
            cell: vec![0; n],
            end: vec![0; n],
            queued: vec![false; n],
            queue: VecDeque::new(),
            cells: 0,
            preds: vec![0; n],
            succs: vec![0; n],
            hits: vec![0; n],
            touched: Vec::new(),
            touched_cells: Vec::new(),
            fragments: Vec::new(),
            elems: order,
        };
        let mut start = 0;
        for i in 0..n {
            let v = part.elems[i];
            part.pos[v as usize] = i as u32;
            if class(v) != class(part.elems[start]) {
                part.close(start, i);
                start = i;
            }
            part.cell[v as usize] = start as u32;
        }
        part.close(start, n);
        part
    }

    /// Record the cell `start..end` during construction and queue it.
    fn close(&mut self, start: usize, end: usize) {
        self.end[start] = end as u32;
        self.queued[start] = true;
        self.queue.push_back(start as u32);
        self.cells += 1;
    }

    /// The refinement key of node `v` against the current splitter.
    fn count_key(&self, v: u32) -> u64 {
        (u64::from(self.preds[v as usize]) << 32) | u64::from(self.succs[v as usize])
    }

    /// Refine to an equitable partition: every node of a cell has as many
    /// predecessors and as many successors in each cell as every other.
    /// Returns `false`, leaving the queue as it is, once `work` passes
    /// `budget`.
    fn refine(&mut self, dag: &Dag, work: &mut usize, budget: usize) -> bool {
        while let Some(splitter) = self.queue.pop_front() {
            if *work > budget {
                return false;
            }
            let splitter = splitter as usize;
            self.queued[splitter] = false;
            for p in splitter..self.end[splitter] as usize {
                let v = NodeId(self.elems[p]);
                for &(w, _) in dag.out_edges(v) {
                    self.touch(w.0);
                    self.preds[w.index()] += 1;
                }
                for &(u, _) in dag.in_edges(v) {
                    self.touch(u.0);
                    self.succs[u.index()] += 1;
                }
                *work += 1 + dag.out_degree(v) + dag.in_degree(v);
            }
            // Move each touched node to the tail of its cell.
            for i in 0..self.touched.len() {
                let v = self.touched[i];
                let c = self.cell[v as usize] as usize;
                if self.hits[c] == 0 {
                    self.touched_cells.push(c as u32);
                }
                self.hits[c] += 1;
                let to = self.end[c] - self.hits[c];
                let from = self.pos[v as usize];
                let other = self.elems[to as usize];
                self.elems.swap(from as usize, to as usize);
                self.pos[other as usize] = from;
                self.pos[v as usize] = to;
            }
            self.touched_cells.sort_unstable();
            for i in 0..self.touched_cells.len() {
                let c = self.touched_cells[i] as usize;
                *work += self.hits[c] as usize;
                self.split(c);
                self.hits[c] = 0;
            }
            for &v in &self.touched {
                self.preds[v as usize] = 0;
                self.succs[v as usize] = 0;
            }
            self.touched.clear();
            self.touched_cells.clear();
        }
        true
    }

    fn touch(&mut self, v: u32) {
        if self.preds[v as usize] == 0 && self.succs[v as usize] == 0 {
            self.touched.push(v);
        }
    }

    /// Split cell `c`, whose touched members sit at its tail, into its
    /// untouched members followed by the touched ones in ascending key
    /// order, and queue the new fragments: all of them when `c` is already
    /// queued, otherwise all but the first largest (Hopcroft's rule).
    fn split(&mut self, c: usize) {
        let end = self.end[c] as usize;
        let tail = end - self.hits[c] as usize;
        let mut elems = std::mem::take(&mut self.elems);
        elems[tail..end].sort_unstable_by_key(|&v| self.count_key(v));
        self.fragments.clear();
        if tail > c {
            self.fragments.push(c as u32);
        }
        for p in tail..end {
            self.pos[elems[p] as usize] = p as u32;
            if p == tail || self.count_key(elems[p]) != self.count_key(elems[p - 1]) {
                self.fragments.push(p as u32);
            }
        }
        if self.fragments.len() > 1 {
            let mut largest = (0, 0);
            for i in 0..self.fragments.len() {
                let start = self.fragments[i] as usize;
                let stop = self.fragments.get(i + 1).map_or(end, |&s| s as usize);
                self.end[start] = stop as u32;
                if i > 0 {
                    for &v in &elems[start..stop] {
                        self.cell[v as usize] = start as u32;
                    }
                }
                if stop - start > largest.1 {
                    largest = (i, stop - start);
                }
            }
            self.cells += self.fragments.len() - 1;
            let skip = if self.queued[c] { 0 } else { largest.0 };
            for i in 0..self.fragments.len() {
                let start = self.fragments[i];
                if i != skip && !self.queued[start as usize] {
                    self.queued[start as usize] = true;
                    self.queue.push_back(start);
                }
            }
        }
        self.elems = elems;
    }

    /// Split the last member off the first cell that is not a singleton and
    /// queue it. `open` is a cell start with only singletons before it.
    /// Returns `false` when the partition is already discrete.
    fn individualize(&mut self, open: &mut usize) -> bool {
        let n = self.elems.len();
        while *open < n && self.end[*open] as usize == *open + 1 {
            *open += 1;
        }
        if *open >= n {
            return false;
        }
        let end = self.end[*open];
        let last = end - 1;
        self.end[*open] = last;
        self.end[last as usize] = end;
        self.cell[self.elems[last as usize] as usize] = last;
        self.cells += 1;
        self.queued[last as usize] = true;
        self.queue.push_back(last);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::DagBuilder;

    fn chain(len: usize) -> Dag {
        let mut b = DagBuilder::new();
        let n = b.add_nodes(len);
        for w in n.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        b.build().unwrap()
    }

    /// Relabel `dag` through `perm` (node `v` becomes `perm[v]`), reversing
    /// the edge insertion order for good measure.
    fn relabel(dag: &Dag, perm: &[usize]) -> Dag {
        let mut b = DagBuilder::new();
        b.add_nodes(dag.node_count());
        let mut edges: Vec<(usize, usize)> = dag
            .edges()
            .map(|e| {
                let (u, v) = dag.edge_endpoints(e);
                (perm[u.index()], perm[v.index()])
            })
            .collect();
        edges.reverse();
        for (u, v) in edges {
            b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
        }
        b.build().unwrap()
    }

    #[test]
    fn key_is_invariant_under_relabeling() {
        let dag = generators::fft(16).dag;
        let n = dag.node_count();
        // A fixed non-trivial permutation: reverse.
        let perm: Vec<usize> = (0..n).rev().collect();
        let relabeled = relabel(&dag, &perm);
        assert_eq!(canonical_key(&dag), canonical_key(&relabeled));
    }

    #[test]
    fn different_structures_get_different_keys() {
        let a = canonical_key(&chain(5));
        let b = canonical_key(&chain(6));
        let c = canonical_key(&generators::fft(8).dag);
        let d = canonical_key(&generators::binary_tree(3));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(c, d);
    }

    #[test]
    fn labels_are_ignored() {
        let mut b1 = DagBuilder::new();
        let x = b1.add_labeled_node("x");
        let y = b1.add_labeled_node("y");
        b1.add_edge(x, y);
        let mut b2 = DagBuilder::new();
        let p = b2.add_labeled_node("completely");
        let q = b2.add_labeled_node("different");
        b2.add_edge(p, q);
        assert_eq!(
            canonical_key(&b1.build().unwrap()),
            canonical_key(&b2.build().unwrap())
        );
    }

    #[test]
    fn perm_is_a_permutation_and_inverse_inverts() {
        let dag = generators::fft(16).dag;
        let form = canonical_form(&dag);
        let mut seen = vec![false; dag.node_count()];
        for &p in &form.perm {
            assert!(!seen[p], "duplicate canonical position {p}");
            seen[p] = true;
        }
        let inv = form.inverse();
        for v in dag.nodes() {
            assert_eq!(inv[form.to_canonical(v)], v);
        }
    }

    #[test]
    fn canonical_translation_is_an_isomorphism_on_an_asymmetric_dag() {
        // A DAG whose WL classes are all singletons: translation through the
        // canonical numbering must map edges to edges exactly.
        let dag = generators::random_layered(generators::RandomLayeredConfig {
            layers: 5,
            width: 6,
            max_in_degree: 3,
            seed: 7,
        });
        let n = dag.node_count();
        let perm: Vec<usize> = (0..n).map(|i| (i * 17 + 3) % n).collect();
        // (i*17+3) mod n is a bijection only when gcd(17, n) = 1; the
        // generator's node count is not a multiple of 17 here.
        assert_eq!(
            distinct_count(&perm.iter().map(|&p| p as u64).collect::<Vec<_>>()),
            n
        );
        let relabeled = relabel(&dag, &perm);
        let f1 = canonical_form(&dag);
        let f2 = canonical_form(&relabeled);
        assert_eq!(f1.key, f2.key);
        let inv2 = f2.inverse();
        // v (in dag) -> canonical -> node of `relabeled`.
        let translate = |v: NodeId| inv2[f1.to_canonical(v)];
        for e in dag.edges() {
            let (u, v) = dag.edge_endpoints(e);
            assert!(
                relabeled.has_edge(translate(u), translate(v)),
                "edge ({u:?}, {v:?}) not preserved"
            );
        }
    }

    #[test]
    fn hex_roundtrip() {
        let key = canonical_key(&chain(4));
        let hex = key.hex();
        assert_eq!(hex.len(), 64);
        assert_eq!(CanonKey::from_hex(&hex), Some(key));
        assert_eq!(CanonKey::from_hex("zz"), None);
        assert_eq!(key.to_string(), hex);
    }
}
