//! Structure detection and DAG decomposition.
//!
//! The paper's near-optimal strategies (blocked FFT, tiled matmul, streaming
//! attention) all exploit the same fact: large computational DAGs decompose
//! into components that can be scheduled (almost) independently, paying I/O
//! only for the values that cross component boundaries. This module detects
//! and extracts that structure *generically*, from the graph alone:
//!
//! * [`Strategy::Wcc`] — weakly connected components: fully independent
//!   sub-DAGs with no boundary at all.
//! * [`Strategy::LevelBands`] — cut the level structure into bands of
//!   consecutive levels and split each band into its weakly connected
//!   pieces. On the FFT butterfly, bands of `h` levels shatter into
//!   independent `2^h`-wide sub-butterflies — exactly the paper's blocked
//!   strategy. Bands grow on one union-find, in time linear in the DAG.
//! * [`Strategy::SinkCones`] — when every internal (non-source, non-sink)
//!   node has out-degree 1, every non-source node belongs to the *cone* of a
//!   unique sink; cones are pairwise edge-disjoint and interact only through
//!   shared sources. Merging cones that share many sources yields the tiles
//!   of the paper's tiled matmul / streaming attention strategies.
//! * [`Strategy::Whole`] — the trivial single-component decomposition.
//!
//! Every decomposition is a *partition* of (a subset of) the nodes into
//! [`Component`]s listed in a topological order of the component quotient,
//! with explicit boundary sets (`inputs` / `outputs`): every edge crossing
//! between parts goes from an earlier component to a later one. Global
//! sources that serve several components (the shared matrices of a tiling)
//! may stay unassigned; they need no schedule of their own — each consumer
//! loads them on demand.
//!
//! [`extract_component`] materialises a component plus its boundary inputs
//! as a standalone [`Dag`] for scheduling, and [`is_series_parallel`]
//! recognises two-terminal series-parallel DAGs.

use crate::bitset::BitSet;
use crate::graph::{Dag, DagBuilder};
use crate::ids::NodeId;
use crate::topo;
use std::collections::HashMap;
use std::time::Instant;

/// One part of a [`Decomposition`]: a set of member nodes plus its boundary.
#[derive(Debug, Clone)]
pub struct Component {
    /// Member nodes, ascending.
    pub nodes: Vec<NodeId>,
    /// Boundary inputs: non-member nodes with an edge into a member,
    /// ascending. When the component is scheduled on its own these become
    /// sources of the extracted sub-DAG.
    pub inputs: Vec<NodeId>,
    /// Boundary outputs: member nodes with an edge leaving the component,
    /// ascending. Their values must survive (be saved) past the component's
    /// schedule.
    pub outputs: Vec<NodeId>,
}

/// How to split the DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// One component containing every node.
    Whole,
    /// Weakly connected components.
    Wcc,
    /// Bands of consecutive levels, split into pieces connected either
    /// directly or through a shared boundary input (so every value crossing
    /// the cut is loaded by exactly one piece); bands grow level by level
    /// while every piece (including its boundary inputs) stays within
    /// `max_nodes`. The bands grow on one union-find, in time linear in the
    /// DAG.
    LevelBands {
        /// Size cap per component (members + boundary inputs).
        max_nodes: usize,
    },
    /// Sink cones merged into tiles by shared-input affinity. Only
    /// applicable when every internal node has out-degree 1.
    SinkCones {
        /// Size cap per tile (members + boundary inputs).
        max_nodes: usize,
        /// Cap on sinks per tile: every unsaved sink of a tile is a live
        /// accumulator during its schedule, so this bounds the working set
        /// a cache of size `r` must hold (callers typically pass `~3r/4`).
        max_sinks: usize,
    },
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Strategy::Whole => write!(f, "whole"),
            Strategy::Wcc => write!(f, "wcc"),
            Strategy::LevelBands { max_nodes } => write!(f, "bands:{max_nodes}"),
            Strategy::SinkCones {
                max_nodes,
                max_sinks,
            } => write!(f, "cones:{max_nodes}:{max_sinks}"),
        }
    }
}

/// A decomposition of the DAG into independently schedulable components.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// The strategy that produced this decomposition.
    pub strategy: Strategy,
    /// The components, in a topological order of the component quotient:
    /// every edge between two components goes from the earlier to the later
    /// one, so the components can be scheduled in listed order. Nodes in no
    /// component are global sources shared between several components
    /// (e.g. the matrices of a tiling).
    pub components: Vec<Component>,
}

impl Decomposition {
    /// Total number of member nodes across all components.
    pub fn assigned_nodes(&self) -> usize {
        self.components.iter().map(|c| c.nodes.len()).sum()
    }

    /// Size of the largest component (members + boundary inputs).
    pub fn max_component_size(&self) -> usize {
        self.components
            .iter()
            .map(|c| c.nodes.len() + c.inputs.len())
            .max()
            .unwrap_or(0)
    }
}

/// Decompose `dag` with `strategy`. Returns `None` when the strategy does
/// not apply ([`Strategy::SinkCones`] on a DAG with an internal node of
/// out-degree ≥ 2), or when `deadline` passes while level bands or sink
/// cones are built: both check it between bands or merge rounds.
pub fn decompose(
    dag: &Dag,
    strategy: Strategy,
    deadline: Option<Instant>,
) -> Option<Decomposition> {
    match strategy {
        Strategy::Whole => Some(whole(dag)),
        Strategy::Wcc => Some(wcc(dag)),
        Strategy::LevelBands { max_nodes } => level_bands(dag, max_nodes, deadline),
        Strategy::SinkCones {
            max_nodes,
            max_sinks,
        } => sink_cones(dag, max_nodes, max_sinks, deadline),
    }
}

/// Returns `true` if `dag` is a two-terminal series-parallel DAG: a single
/// source, a single sink, and reducible to one edge by exhaustively applying
/// *series* reductions (bypass a vertex with exactly one in- and one
/// out-neighbour) and *parallel* reductions (merge parallel edges). The
/// reduction system is confluent, so one exhaustive pass decides membership.
pub fn is_series_parallel(dag: &Dag) -> bool {
    if dag.sources().len() != 1 || dag.sinks().len() != 1 {
        return false;
    }
    // Parallel edges produced by series reductions merge immediately (set
    // adjacency), so a vertex is series-reducible exactly when it has one
    // distinct in-neighbour and one distinct out-neighbour.
    let n = dag.node_count();
    let mut out: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); n];
    let mut inn: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); n];
    for e in dag.edges() {
        let (u, v) = dag.edge_endpoints(e);
        out[u.index()].insert(v.index());
        inn[v.index()].insert(u.index());
    }
    let mut alive = n;
    let mut queue: Vec<usize> = (0..n)
        .filter(|&v| inn[v].len() == 1 && out[v].len() == 1)
        .collect();
    let mut queued = vec![false; n];
    for &v in &queue {
        queued[v] = true;
    }
    let mut removed = vec![false; n];
    while let Some(v) = queue.pop() {
        queued[v] = false;
        if removed[v] || inn[v].len() != 1 || out[v].len() != 1 {
            continue;
        }
        let u = *inn[v].iter().next().expect("one in-neighbour");
        let w = *out[v].iter().next().expect("one out-neighbour");
        // u -> v -> w becomes u -> w; a pre-existing u -> w edge absorbs it
        // (parallel reduction).
        removed[v] = true;
        alive -= 1;
        out[u].remove(&v);
        inn[w].remove(&v);
        out[u].insert(w);
        inn[w].insert(u);
        for x in [u, w] {
            if !removed[x] && inn[x].len() == 1 && out[x].len() == 1 && !queued[x] {
                queued[x] = true;
                queue.push(x);
            }
        }
    }
    if alive != 2 {
        return false;
    }
    let survivors: Vec<usize> = (0..n).filter(|&v| !removed[v]).collect();
    let (s, t) = (survivors[0], survivors[1]);
    // Exactly the edge s -> t (or t -> s) must remain.
    (out[s].len() == 1 && out[s].contains(&t) && inn[s].is_empty() && out[t].is_empty())
        || (out[t].len() == 1 && out[t].contains(&s) && inn[t].is_empty() && out[s].is_empty())
}

/// Assemble a `Decomposition` from a member partition by computing each
/// part's boundary. `parts` must be disjoint, each sorted ascending, and
/// listed in quotient-topological order.
fn assemble(dag: &Dag, strategy: Strategy, parts: Vec<Vec<NodeId>>) -> Decomposition {
    let n = dag.node_count();
    let mut owner: Vec<u32> = vec![u32::MAX; n];
    for (i, part) in parts.iter().enumerate() {
        for &v in part {
            owner[v.index()] = i as u32;
        }
    }
    let mut components = Vec::with_capacity(parts.len());
    for nodes in parts {
        let idx = owner[nodes[0].index()];
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        let mut seen_inputs = BitSet::new(n);
        for &v in &nodes {
            for u in dag.predecessors(v) {
                if owner[u.index()] != idx && !seen_inputs.contains(u.index()) {
                    seen_inputs.insert(u.index());
                    inputs.push(u);
                }
            }
            if dag.successors(v).any(|w| owner[w.index()] != idx) {
                outputs.push(v);
            }
        }
        inputs.sort();
        components.push(Component {
            nodes,
            inputs,
            outputs,
        });
    }
    Decomposition {
        strategy,
        components,
    }
}

fn whole(dag: &Dag) -> Decomposition {
    let all: Vec<NodeId> = dag.nodes().collect();
    assemble(dag, Strategy::Whole, vec![all])
}

/// Weakly connected components via union-find, listed by smallest member id.
fn wcc(dag: &Dag) -> Decomposition {
    let mut uf = UnionFind::new(dag.node_count());
    for e in dag.edges() {
        let (u, v) = dag.edge_endpoints(e);
        uf.union(u.index(), v.index());
    }
    let parts = uf.pieces(dag.nodes());
    assemble(dag, Strategy::Wcc, parts)
}

/// Band the level structure: grow each band level by level while every
/// piece of the band (counting the band's boundary inputs) stays within
/// `max_nodes`; a band always contains at least one level. Sources join the
/// band of their earliest consumer, so every component's extracted sub-DAG
/// has at least one edge per member.
///
/// A piece is a group of band nodes connected directly or through a shared
/// boundary input: two band nodes consuming the same earlier-band value
/// belong together, so every crossing value is loaded by exactly one piece.
/// (On the FFT this is what re-aligns each band's blocks with the stage
/// crossing the cut — the structure the paper's blocked strategy exploits.)
///
/// Bands grow on one union-find over node ids. Within a band every touched
/// node is either a member or a boundary input, so a set's size is exactly
/// its piece's capped size. An extension that breaks the cap cannot be
/// undone, so the band is cleared and its levels added again: every level
/// is added at most three times, and banding takes linear time.
fn level_bands(dag: &Dag, max_nodes: usize, deadline: Option<Instant>) -> Option<Decomposition> {
    let levels = topo::levels(dag);
    let depth = levels.iter().copied().max().unwrap_or(0);
    // Nodes by level, sources moved to their earliest consumer's level, so
    // level 0 stays empty.
    let mut by_level: Vec<Vec<NodeId>> = vec![Vec::new(); depth + 1];
    for v in dag.nodes() {
        let level = if dag.is_source(v) {
            dag.successors(v)
                .map(|w| levels[w.index()])
                .min()
                .expect("no isolated nodes")
        } else {
            levels[v.index()]
        };
        by_level[level].push(v);
    }

    let mut uf = UnionFind::new(dag.node_count());
    let mut parts = Vec::new();
    let mut start = 1;
    while start <= depth {
        if deadline.is_some_and(|at| Instant::now() >= at) {
            return None;
        }
        // The band is levels `start..=end`; `largest` is its largest piece.
        let mut end = start;
        let mut largest = add_level(dag, &mut uf, &by_level[start]);
        while end < depth {
            let grown = largest.max(add_level(dag, &mut uf, &by_level[end + 1]));
            if grown > max_nodes {
                uf.clear();
                for level in &by_level[start..=end] {
                    add_level(dag, &mut uf, level);
                }
                break;
            }
            largest = grown;
            end += 1;
        }
        let mut band = by_level[start..=end].concat();
        band.sort_unstable();
        parts.extend(uf.pieces(band));
        uf.clear();
        start = end + 1;
    }
    Some(assemble(dag, Strategy::LevelBands { max_nodes }, parts))
}

/// Join every node of `level` with its predecessors; returns the size of
/// the largest set this touched.
fn add_level(dag: &Dag, uf: &mut UnionFind, level: &[NodeId]) -> usize {
    let mut largest = 0;
    for &v in level {
        for u in dag.predecessors(v) {
            largest = largest.max(uf.union(v.index(), u.index()));
        }
    }
    largest
}

/// Sink-cone tiling. Applicable only when every non-source, non-sink node
/// has out-degree exactly 1: then every non-source node lies on a unique
/// out-path to a sink (its cone), cones are vertex-disjoint, and all
/// interaction happens through shared sources. Cones are merged into tiles
/// in pairwise rounds, each cone/tile joining the partner with the largest
/// shared-input set (ties: smaller merged input set, then smaller id), while
/// members + distinct inputs stay within `max_nodes` and the tile keeps at
/// most `max_sinks` sinks (live accumulators during its schedule).
fn sink_cones(
    dag: &Dag,
    max_nodes: usize,
    max_sinks: usize,
    deadline: Option<Instant>,
) -> Option<Decomposition> {
    for v in dag.nodes() {
        if !dag.is_source(v) && !dag.is_sink(v) && dag.out_degree(v) != 1 {
            return None;
        }
    }
    let n = dag.node_count();
    // Cone id per node: follow the unique out-edge to the sink (memoised).
    let mut cone: Vec<u32> = vec![u32::MAX; n];
    let sinks = dag.sinks();
    let sink_index: HashMap<NodeId, u32> = sinks
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u32))
        .collect();
    for v in dag.nodes() {
        if dag.is_source(v) {
            continue;
        }
        let mut path = Vec::new();
        let mut cur = v;
        while cone[cur.index()] == u32::MAX {
            if let Some(&si) = sink_index.get(&cur) {
                cone[cur.index()] = si;
                break;
            }
            path.push(cur);
            cur = dag
                .successors(cur)
                .next()
                .expect("internal nodes have out-degree 1");
        }
        let id = cone[cur.index()];
        for p in path {
            cone[p.index()] = id;
        }
    }

    // Tiles start as single cones, with their distinct source inputs.
    struct Tile {
        cones: Vec<u32>,
        nodes: usize,
        inputs: Vec<u32>, // sorted source ids
    }
    let mut tiles: Vec<Tile> = sinks
        .iter()
        .enumerate()
        .map(|(i, _)| Tile {
            cones: vec![i as u32],
            nodes: 0,
            inputs: Vec::new(),
        })
        .collect();
    for v in dag.nodes() {
        if dag.is_source(v) {
            continue;
        }
        let t = &mut tiles[cone[v.index()] as usize];
        t.nodes += 1;
        for u in dag.predecessors(v) {
            if dag.is_source(u) {
                t.inputs.push(u.index() as u32);
            }
        }
    }
    for t in &mut tiles {
        t.inputs.sort_unstable();
        t.inputs.dedup();
    }

    // Pairwise merge rounds. Alternating row/column merges emerge naturally
    // on product-structured input sets (matmul, attention): after the first
    // (tie-broken) round, the orthogonal direction shares strictly more
    // inputs, so tiles stay near-square.
    loop {
        if deadline.is_some_and(|at| Instant::now() >= at) {
            return None;
        }
        let k = tiles.len();
        if k <= 1 {
            break;
        }
        // Inverted index: input -> tiles using it.
        let mut users: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, t) in tiles.iter().enumerate() {
            for &inp in &t.inputs {
                users.entry(inp).or_default().push(i);
            }
        }
        let mut merged_into: Vec<Option<usize>> = vec![None; k];
        let mut taken = vec![false; k];
        let mut shared = vec![0usize; k];
        let mut touched: Vec<usize> = Vec::new();
        let mut any = false;
        for i in 0..k {
            if taken[i] {
                continue;
            }
            for &inp in &tiles[i].inputs {
                for &j in &users[&inp] {
                    if j != i && !taken[j] {
                        if shared[j] == 0 {
                            touched.push(j);
                        }
                        shared[j] += 1;
                    }
                }
            }
            // Best partner: most shared inputs, then smallest merged input
            // set, then smallest index.
            let mut best: Option<(usize, usize, usize)> = None; // (j, shared, union)
            touched.sort_unstable();
            for &j in &touched {
                let sh = shared[j];
                let union = tiles[i].inputs.len() + tiles[j].inputs.len() - sh;
                let total = tiles[i].nodes + tiles[j].nodes + union;
                if total > max_nodes || tiles[i].cones.len() + tiles[j].cones.len() > max_sinks {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((_, bs, bu)) => sh > bs || (sh == bs && union < bu),
                };
                if better {
                    best = Some((j, sh, union));
                }
            }
            for &j in &touched {
                shared[j] = 0;
            }
            touched.clear();
            if let Some((j, _, _)) = best {
                taken[i] = true;
                taken[j] = true;
                merged_into[j] = Some(i);
                any = true;
            }
        }
        if !any {
            break;
        }
        let mut next: Vec<Tile> = Vec::new();
        let mut moved: Vec<Option<usize>> = vec![None; k];
        for i in 0..k {
            if merged_into[i].is_some() {
                continue;
            }
            moved[i] = Some(next.len());
            next.push(Tile {
                cones: std::mem::take(&mut tiles[i].cones),
                nodes: tiles[i].nodes,
                inputs: std::mem::take(&mut tiles[i].inputs),
            });
        }
        for j in 0..k {
            if let Some(i) = merged_into[j] {
                let slot = moved[i].expect("merge target survives");
                let t = &mut next[slot];
                t.cones.extend(tiles[j].cones.iter().copied());
                t.nodes += tiles[j].nodes;
                let mut inputs = std::mem::take(&mut t.inputs);
                inputs.extend(tiles[j].inputs.iter().copied());
                inputs.sort_unstable();
                inputs.dedup();
                t.inputs = inputs;
            }
        }
        tiles = next;
    }

    // Materialise member lists.
    let mut tile_of_cone: Vec<u32> = vec![0; sinks.len()];
    for (ti, t) in tiles.iter().enumerate() {
        for &c in &t.cones {
            tile_of_cone[c as usize] = ti as u32;
        }
    }
    let mut parts: Vec<Vec<NodeId>> = vec![Vec::new(); tiles.len()];
    for v in dag.nodes() {
        if !dag.is_source(v) {
            parts[tile_of_cone[cone[v.index()] as usize] as usize].push(v);
        }
    }
    parts.retain(|p| !p.is_empty());
    let strategy = Strategy::SinkCones {
        max_nodes,
        max_sinks,
    };
    Some(assemble(dag, strategy, parts))
}

/// A component materialised as a standalone [`Dag`]: the members plus their
/// boundary inputs (which become sources), with every in-edge of every
/// member preserved.
#[derive(Debug, Clone)]
pub struct ExtractedComponent {
    /// The extracted sub-DAG; local node ids are dense.
    pub dag: Dag,
    /// Global id of each local node, ascending (local order preserves global
    /// order). Boundary inputs are sources of the sub-DAG.
    pub to_global: Vec<NodeId>,
}

/// Extract `component` (members + boundary inputs) from `dag`.
///
/// The sub-DAG contains every in-edge of every member — internal edges and
/// cross edges from boundary inputs alike — so a valid pebbling of the
/// sub-DAG marks exactly the member in-edges of the original DAG. Edges are
/// inserted grouped by target member in ascending order (deterministic).
pub fn extract_component(dag: &Dag, component: &Component) -> ExtractedComponent {
    let mut to_global: Vec<NodeId> = component
        .inputs
        .iter()
        .chain(component.nodes.iter())
        .copied()
        .collect();
    to_global.sort();
    let mut b = DagBuilder::new();
    for &g in &to_global {
        b.add_labeled_node(dag.label(g));
    }
    for &v in &component.nodes {
        let lv = local(&to_global, v);
        for &(u, _) in dag.in_edges(v) {
            b.add_edge(local(&to_global, u), lv);
        }
    }
    let sub = b.build().expect("component extraction preserves validity");
    ExtractedComponent {
        dag: sub,
        to_global,
    }
}

/// The member-induced *internal* sub-DAG of a component: members only,
/// edges with both endpoints inside, nodes left isolated by the restriction
/// dropped. Returns `None` when no internal edge survives. Used by the
/// composable lower bounds of `pebble-bounds`.
#[derive(Debug, Clone)]
pub struct InternalSubDag {
    /// The internal sub-DAG.
    pub dag: Dag,
    /// Global id of each local node, ascending.
    pub to_global: Vec<NodeId>,
    /// Members kept that have no internal in-edge but at least one global
    /// in-edge ("fake sources": really computed from values outside the
    /// component).
    pub fake_sources: usize,
    /// Members kept that have no internal out-edge but at least one global
    /// out-edge ("fake sinks": their value crosses the boundary and the
    /// surrounding schedule need not save it).
    pub fake_sinks: usize,
}

/// Build the internal sub-DAG of `members` (sorted ascending).
pub fn extract_internal(dag: &Dag, members: &[NodeId]) -> Option<InternalSubDag> {
    let mut in_set = dag.node_set();
    for &v in members {
        in_set.insert(v.index());
    }
    let keep: Vec<NodeId> = members
        .iter()
        .copied()
        .filter(|&v| {
            dag.predecessors(v).any(|u| in_set.contains(u.index()))
                || dag.successors(v).any(|w| in_set.contains(w.index()))
        })
        .collect();
    if keep.is_empty() {
        return None;
    }
    let mut b = DagBuilder::new();
    for &g in &keep {
        b.add_labeled_node(dag.label(g));
    }
    let mut fake_sources = 0;
    let mut fake_sinks = 0;
    for (lv, &v) in keep.iter().enumerate() {
        let mut internal_in = 0;
        for &(u, _) in dag.in_edges(v) {
            if in_set.contains(u.index()) {
                b.add_edge(local(&keep, u), NodeId::from_index(lv));
                internal_in += 1;
            }
        }
        if internal_in == 0 && dag.in_degree(v) > 0 {
            fake_sources += 1;
        }
        let internal_out = dag
            .successors(v)
            .filter(|w| in_set.contains(w.index()))
            .count();
        if internal_out == 0 && dag.out_degree(v) > 0 {
            fake_sinks += 1;
        }
    }
    let sub = b.build().expect("internal extraction preserves validity");
    Some(InternalSubDag {
        dag: sub,
        to_global: keep,
        fake_sources,
        fake_sinks,
    })
}

/// The local id of `v` in an extraction whose ascending `to_global` lists
/// it.
fn local(to_global: &[NodeId], v: NodeId) -> NodeId {
    NodeId::from_index(to_global.binary_search(&v).expect("extracted node"))
}

/// Union-find with path halving and union by size. Slots carry the epoch
/// they were last touched in, so [`UnionFind::clear`] resets every set in
/// O(1): a slot from an older epoch reads as a fresh singleton.
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    epoch: Vec<u32>,
    current: u32,
    /// Piece index per root while [`UnionFind::pieces`] runs, else `u32::MAX`.
    piece: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            epoch: vec![0; n],
            current: 0,
            piece: vec![u32::MAX; n],
        }
    }

    /// Make every slot a singleton again.
    fn clear(&mut self) {
        self.current = self.current.wrapping_add(1);
        if self.current == 0 {
            // After 2^32 clears an old stamp could read as current.
            self.epoch.fill(0);
            self.current = 1;
        }
    }

    fn find(&mut self, mut v: usize) -> usize {
        if self.epoch[v] != self.current {
            self.epoch[v] = self.current;
            self.parent[v] = v as u32;
            self.size[v] = 1;
            return v;
        }
        while self.parent[v] as usize != v {
            self.parent[v] = self.parent[self.parent[v] as usize];
            v = self.parent[v] as usize;
        }
        v
    }

    /// Join the sets of `a` and `b`; returns the size of the joined set.
    fn union(&mut self, a: usize, b: usize) -> usize {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra != rb {
            if self.size[ra] < self.size[rb] {
                std::mem::swap(&mut ra, &mut rb);
            }
            self.parent[rb] = ra as u32;
            self.size[ra] += self.size[rb];
        }
        self.size[ra] as usize
    }

    /// The sets of `members` (ascending), listed by smallest member, each
    /// ascending: visiting members in order opens every set at its smallest.
    fn pieces(&mut self, members: impl IntoIterator<Item = NodeId>) -> Vec<Vec<NodeId>> {
        let mut pieces: Vec<Vec<NodeId>> = Vec::new();
        let mut roots = Vec::new();
        for v in members {
            let root = self.find(v.index());
            match self.piece[root] {
                u32::MAX => {
                    self.piece[root] = pieces.len() as u32;
                    roots.push(root);
                    pieces.push(vec![v]);
                }
                p => pieces[p as usize].push(v),
            }
        }
        for root in roots {
            self.piece[root] = u32::MAX;
        }
        pieces
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{
        attention_full, attention_qk, fft, matmul, random_layered, RandomLayeredConfig,
    };

    fn chain(n: usize) -> Dag {
        let mut b = DagBuilder::new();
        let nodes = b.add_nodes(n);
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        b.build().unwrap()
    }

    fn diamond() -> Dag {
        let mut b = DagBuilder::new();
        let n = b.add_nodes(4);
        b.add_edge(n[0], n[1]);
        b.add_edge(n[0], n[2]);
        b.add_edge(n[1], n[3]);
        b.add_edge(n[2], n[3]);
        b.build().unwrap()
    }

    fn two_chains() -> Dag {
        let mut b = DagBuilder::new();
        let n = b.add_nodes(6);
        b.add_edge(n[0], n[1]);
        b.add_edge(n[1], n[2]);
        b.add_edge(n[3], n[4]);
        b.add_edge(n[4], n[5]);
        b.build().unwrap()
    }

    #[test]
    fn series_parallel_recognition() {
        assert!(is_series_parallel(&chain(4)));
        assert!(is_series_parallel(&diamond()));
        // Nested: diamond with one arm itself a diamond-in-series.
        let mut b = DagBuilder::new();
        let n = b.add_nodes(6);
        b.add_edge(n[0], n[1]);
        b.add_edge(n[1], n[5]);
        b.add_edge(n[0], n[2]);
        b.add_edge(n[2], n[3]);
        b.add_edge(n[2], n[4]);
        b.add_edge(n[3], n[5]);
        b.add_edge(n[4], n[5]);
        assert!(is_series_parallel(&b.build().unwrap()));
        // The FFT butterfly is the canonical non-SP DAG (the W shape).
        assert!(!is_series_parallel(&fft(4).dag));
        // Two sources: not two-terminal.
        let mut b = DagBuilder::new();
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[2]);
        b.add_edge(n[1], n[2]);
        assert!(!is_series_parallel(&b.build().unwrap()));
    }

    #[test]
    fn wcc_splits_disconnected_dags() {
        let d = wcc(&two_chains());
        assert_eq!(d.components.len(), 2);
        assert!(d
            .components
            .iter()
            .all(|c| c.inputs.is_empty() && c.outputs.is_empty()));
        assert_eq!(d.assigned_nodes(), 6);
    }

    #[test]
    fn level_bands_shatter_the_fft_into_blocks() {
        let f = fft(16).dag; // 5 levels of 16 nodes
        let d = decompose(&f, Strategy::LevelBands { max_nodes: 24 }, None).unwrap();
        // Bands of 2 compute levels split into 4-wide sub-butterflies.
        assert!(d.components.len() > 1);
        assert!(d.max_component_size() <= 24);
        assert_eq!(d.assigned_nodes(), f.node_count());
        // Boundary sets are consistent.
        for c in &d.components {
            for &inp in &c.inputs {
                assert!(c.nodes.binary_search(&inp).is_err());
            }
            for &out in &c.outputs {
                assert!(c.nodes.binary_search(&out).is_ok());
            }
        }
    }

    #[test]
    fn a_passed_deadline_stops_bands_and_cones() {
        let past = Some(Instant::now());
        let f = fft(16384).dag;
        let bands = Strategy::LevelBands { max_nodes: 1024 };
        assert!(decompose(&f, bands, past).is_none());
        let cones = Strategy::SinkCones {
            max_nodes: 60,
            max_sinks: 4,
        };
        assert!(decompose(&matmul(4, 4, 4).dag, cones, past).is_none());
        // The cheap strategies take no deadline.
        assert!(decompose(&f, Strategy::Wcc, past).is_some());
    }

    #[test]
    fn sink_cones_tile_matmul() {
        let mm = matmul(4, 4, 4).dag;
        let d = decompose(
            &mm,
            Strategy::SinkCones {
                max_nodes: 60,
                max_sinks: 4,
            },
            None,
        )
        .unwrap();
        // Every non-source node is assigned; sources stay shared.
        assert_eq!(d.assigned_nodes(), mm.node_count() - mm.sources().len());
        assert!(d.components.len() > 1);
        assert!(d.max_component_size() <= 60);
        // Tiles only interact through shared sources: no member outputs.
        for c in &d.components {
            assert!(c.outputs.is_empty());
            assert!(c.inputs.iter().all(|&u| mm.is_source(u)));
        }
        // Merging shares inputs: a merged tile has fewer inputs than the sum
        // of its cones' inputs would be.
        let merged = d.components.iter().find(|c| c.nodes.len() > 5).unwrap();
        let sinks_in = merged.nodes.iter().filter(|&&v| mm.is_sink(v)).count();
        assert!(merged.inputs.len() < sinks_in * 8);
    }

    #[test]
    fn sink_cones_reject_shared_internal_nodes() {
        // FFT internal nodes have out-degree 2.
        assert!(decompose(
            &fft(8).dag,
            Strategy::SinkCones {
                max_nodes: 100,
                max_sinks: 16,
            },
            None
        )
        .is_none());
    }

    #[test]
    fn sink_cap_bounds_live_accumulators() {
        let mm = matmul(4, 4, 4).dag;
        for max_sinks in [1usize, 2, 4, 8] {
            let d = decompose(
                &mm,
                Strategy::SinkCones {
                    max_nodes: 10_000,
                    max_sinks,
                },
                None,
            )
            .unwrap();
            for c in &d.components {
                let sinks = c.nodes.iter().filter(|&&v| mm.is_sink(v)).count();
                assert!(sinks <= max_sinks, "{sinks} > {max_sinks}");
            }
        }
    }

    #[test]
    fn extraction_roundtrips_structure() {
        let f = fft(16).dag;
        let d = decompose(&f, Strategy::LevelBands { max_nodes: 24 }, None).unwrap();
        let mut member_edges = 0;
        for c in &d.components {
            let ex = extract_component(&f, c);
            assert_eq!(ex.dag.node_count(), c.nodes.len() + c.inputs.len());
            // Every member in-edge is preserved.
            let in_edges: usize = c.nodes.iter().map(|&v| f.in_degree(v)).sum();
            assert_eq!(ex.dag.edge_count(), in_edges);
            member_edges += in_edges;
            // Boundary inputs are sub-sources.
            for inp in &c.inputs {
                let i = ex.to_global.binary_search(inp).unwrap();
                assert!(ex.dag.is_source(NodeId::from_index(i)));
            }
            // Local order preserves global order.
            assert!(ex.to_global.windows(2).all(|w| w[0] < w[1]));
        }
        // Sources have no in-edges, so member in-edges cover every edge.
        assert_eq!(member_edges, f.edge_count());
    }

    #[test]
    fn internal_extraction_counts_fakes() {
        let f = fft(16).dag;
        let d = decompose(&f, Strategy::LevelBands { max_nodes: 24 }, None).unwrap();
        // A non-first band's pieces are computed from boundary values: every
        // kept node with no internal in-edge is a fake source.
        let later = d
            .components
            .iter()
            .find(|c| !c.inputs.is_empty())
            .expect("fft bands have boundaries");
        let internal = extract_internal(&f, &later.nodes).unwrap();
        assert!(internal.fake_sources > 0);
        assert!(internal.dag.node_count() <= later.nodes.len());
    }

    #[test]
    fn whole_is_total() {
        let f = fft(8).dag;
        let d = decompose(&f, Strategy::Whole, None).unwrap();
        assert_eq!(d.components.len(), 1);
        assert_eq!(d.assigned_nodes(), f.node_count());
        assert!(d.components[0].inputs.is_empty() && d.components[0].outputs.is_empty());
    }

    /// What stitching relies on, derived from the member lists alone: the
    /// components are disjoint, every edge between two parts runs from an
    /// earlier component (or an unassigned node) to a later one, and every
    /// unassigned node is a source.
    #[test]
    fn partitions_are_disjoint_ordered_and_leave_only_sources_unassigned() {
        let dags = [
            fft(16).dag,
            fft(64).dag,
            matmul(4, 4, 4).dag,
            attention_qk(6, 3).dag,
            attention_full(6, 2).dag,
            random_layered(RandomLayeredConfig {
                layers: 12,
                width: 10,
                max_in_degree: 3,
                seed: 7,
            }),
        ];
        let mut checked_cones = 0;
        for dag in &dags {
            for r in [4usize, 16] {
                let (small, large, max_sinks) = (4 * r, 16 * r, (3 * r / 4).max(1));
                let strategies = [
                    Strategy::Whole,
                    Strategy::Wcc,
                    Strategy::LevelBands { max_nodes: small },
                    Strategy::LevelBands { max_nodes: large },
                    Strategy::SinkCones {
                        max_nodes: small,
                        max_sinks,
                    },
                    Strategy::SinkCones {
                        max_nodes: large,
                        max_sinks,
                    },
                ];
                for strategy in strategies {
                    let Some(d) = decompose(dag, strategy, None) else {
                        continue;
                    };
                    if matches!(strategy, Strategy::SinkCones { .. }) {
                        checked_cones += 1;
                    }
                    let mut owner: Vec<Option<usize>> = vec![None; dag.node_count()];
                    for (i, c) in d.components.iter().enumerate() {
                        for &v in &c.nodes {
                            assert!(owner[v.index()].is_none(), "{strategy}: {v:?} twice");
                            owner[v.index()] = Some(i);
                        }
                    }
                    for e in dag.edges() {
                        let (u, v) = dag.edge_endpoints(e);
                        let (ou, ov) = (owner[u.index()], owner[v.index()]);
                        // Within one part, or forward: `None` (unassigned)
                        // orders before every component.
                        assert!(ou <= ov, "{strategy}: {u:?} -> {v:?}");
                    }
                    for v in dag.nodes() {
                        if owner[v.index()].is_none() {
                            assert!(dag.is_source(v), "{strategy}: {v:?} unassigned");
                        }
                    }
                }
            }
        }
        assert!(checked_cones > 0, "sink cones applied nowhere");
    }

    /// Banding as it was before bands grew on one union-find: every
    /// tentative extension re-derives the band's pieces with fresh maps.
    /// The reference `level_bands` and `wcc` must match.
    mod reference {
        use super::*;
        use std::collections::HashMap;

        fn find(parent: &mut [usize], mut v: usize) -> usize {
            while parent[v] != v {
                parent[v] = parent[parent[v]];
                v = parent[v];
            }
            v
        }

        fn union(parent: &mut [usize], a: usize, b: usize) {
            let (ra, rb) = (find(parent, a), find(parent, b));
            parent[rb] = ra;
        }

        /// Groups of `0..names.len()` by root, each sorted, listed by first.
        fn groups(parent: &mut [usize], names: &[NodeId]) -> Vec<Vec<NodeId>> {
            let mut by_root: HashMap<usize, Vec<NodeId>> = HashMap::new();
            for (i, &v) in names.iter().enumerate() {
                by_root.entry(find(parent, i)).or_default().push(v);
            }
            let mut groups: Vec<Vec<NodeId>> = by_root.into_values().collect();
            for g in &mut groups {
                g.sort();
            }
            groups.sort_by_key(|g| g[0]);
            groups
        }

        pub fn wcc(dag: &Dag) -> Decomposition {
            let mut parent: Vec<usize> = (0..dag.node_count()).collect();
            for e in dag.edges() {
                let (u, v) = dag.edge_endpoints(e);
                union(&mut parent, u.index(), v.index());
            }
            let all: Vec<NodeId> = dag.nodes().collect();
            assemble(dag, Strategy::Wcc, groups(&mut parent, &all))
        }

        /// The pieces of one band and their sizes (members plus distinct
        /// boundary inputs).
        fn band_pieces(dag: &Dag, band: &[NodeId]) -> (Vec<Vec<NodeId>>, Vec<usize>) {
            let local: HashMap<NodeId, usize> =
                band.iter().enumerate().map(|(i, &v)| (v, i)).collect();
            let mut input_slot: HashMap<NodeId, usize> = HashMap::new();
            let mut slots = band.len();
            for &v in band {
                for u in dag.predecessors(v) {
                    if !local.contains_key(&u) && !input_slot.contains_key(&u) {
                        input_slot.insert(u, slots);
                        slots += 1;
                    }
                }
            }
            let mut parent: Vec<usize> = (0..slots).collect();
            for (i, &v) in band.iter().enumerate() {
                for u in dag.predecessors(v) {
                    let us = local.get(&u).copied().unwrap_or_else(|| input_slot[&u]);
                    union(&mut parent, i, us);
                }
            }
            let pieces = groups(&mut parent, band);
            let mut size: HashMap<usize, usize> = HashMap::new();
            for slot in 0..slots {
                *size.entry(find(&mut parent, slot)).or_default() += 1;
            }
            let sizes = pieces
                .iter()
                .map(|p| size[&find(&mut parent, local[&p[0]])])
                .collect();
            (pieces, sizes)
        }

        fn band(by_level: &[Vec<NodeId>], start: usize, end: usize) -> Vec<NodeId> {
            let from = if start == 1 { 0 } else { start };
            let mut band: Vec<NodeId> = by_level[from..=end].concat();
            band.sort();
            band
        }

        pub fn level_bands(dag: &Dag, max_nodes: usize) -> Decomposition {
            let levels = topo::levels(dag);
            let depth = levels.iter().copied().max().unwrap_or(0);
            let mut by_level: Vec<Vec<NodeId>> = vec![Vec::new(); depth + 1];
            for v in dag.nodes() {
                let level = if dag.is_source(v) {
                    dag.successors(v).map(|w| levels[w.index()]).min().unwrap()
                } else {
                    levels[v.index()]
                };
                by_level[level].push(v);
            }
            let max_piece_size = |start, end| {
                let (_, sizes) = band_pieces(dag, &band(&by_level, start, end));
                sizes.into_iter().max().unwrap_or(0)
            };
            let mut parts = Vec::new();
            let mut start = 1usize.min(depth);
            while start <= depth {
                let mut end = start;
                while end < depth && max_piece_size(start, end + 1) <= max_nodes {
                    end += 1;
                }
                parts.extend(band_pieces(dag, &band(&by_level, start, end)).0);
                start = end + 1;
            }
            assemble(dag, Strategy::LevelBands { max_nodes }, parts)
        }
    }

    fn components(d: &Decomposition) -> Vec<(&[NodeId], &[NodeId], &[NodeId])> {
        d.components
            .iter()
            .map(|c| (&c.nodes[..], &c.inputs[..], &c.outputs[..]))
            .collect()
    }

    /// Banding on one union-find yields exactly the reference bands: the
    /// same components in the same order, with the same boundaries, at every
    /// cap from "every level alone" (0, 1) to "one band" (`usize::MAX`).
    #[test]
    fn level_bands_and_wcc_match_the_reference() {
        let mut dags = vec![
            two_chains(),
            diamond(),
            chain(5),
            fft(16).dag,
            fft(32).dag,
            fft(64).dag,
            fft(128).dag,
            fft(256).dag,
            matmul(4, 4, 4).dag,
            matmul(8, 8, 8).dag,
            attention_qk(6, 3).dag,
            attention_qk(8, 4).dag,
            attention_full(6, 2).dag,
            attention_full(16, 4).dag,
        ];
        // Optimised builds only: the reference re-derives every tentative band.
        #[cfg(not(debug_assertions))]
        dags.extend([
            fft(512).dag,
            fft(1024).dag,
            matmul(16, 16, 16).dag,
            attention_full(24, 8).dag,
        ]);
        dags.push(random_layered(RandomLayeredConfig {
            layers: 12,
            width: 10,
            max_in_degree: 3,
            seed: 7,
        }));
        for seed in 1..=20u64 {
            dags.push(random_layered(RandomLayeredConfig {
                layers: 2 + seed as usize % 9,
                width: 1 + (seed as usize * 7) % 13,
                max_in_degree: 1 + seed as usize % 4,
                seed,
            }));
        }
        let caps = [
            0,
            1,
            2,
            3,
            5,
            8,
            16,
            32,
            48,
            64,
            96,
            256,
            1024,
            4096,
            usize::MAX,
        ];
        for (i, dag) in dags.iter().enumerate() {
            let (got, want) = (wcc(dag), reference::wcc(dag));
            assert_eq!(components(&got), components(&want), "dag {i}: wcc");
            for max_nodes in caps {
                let got = level_bands(dag, max_nodes, None).unwrap();
                let want = reference::level_bands(dag, max_nodes);
                assert_eq!(
                    components(&got),
                    components(&want),
                    "dag {i}: bands:{max_nodes}"
                );
            }
        }
    }

    #[test]
    fn strategy_display_names() {
        assert_eq!(Strategy::Whole.to_string(), "whole");
        assert_eq!(Strategy::Wcc.to_string(), "wcc");
        assert_eq!(
            Strategy::LevelBands { max_nodes: 64 }.to_string(),
            "bands:64"
        );
        assert_eq!(
            Strategy::SinkCones {
                max_nodes: 640,
                max_sinks: 48
            }
            .to_string(),
            "cones:640:48"
        );
    }
}
