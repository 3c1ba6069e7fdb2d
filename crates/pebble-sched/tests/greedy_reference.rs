//! The greedy executors keep their red nodes in an indexed eviction queue
//! and re-key only the nodes whose key can have changed. These properties
//! check, move for move, that both executor loops — PRBP's edge loop, on
//! explicit edge sequences and on the by-target sequences of node orders,
//! and RBP's node loop — still emit exactly the traces of the original
//! loops, which collected every red node into a candidate list and scanned
//! it on every eviction with Belady's lexicographic key; the reference
//! copies of those loops live here, with the next-use table the RBP loop
//! reads ([`NextUse`]).

use pebble_dag::generators::{fft, matmul, random_layered, RandomLayeredConfig};
use pebble_dag::liveness::NEVER;
use pebble_dag::{topo, Dag, DagBuilder, EdgeId, NodeId};
use pebble_game::moves::{PrbpMove, RbpMove};
use pebble_game::prbp::{PebbleState, PrbpConfig};
use pebble_game::rbp::RbpConfig;
use pebble_game::trace::{PrbpTrace, RbpTrace};
use pebble_game::{PrbpBuilder, RbpBuilder};
use pebble_sched::edges::by_target_edges;
use pebble_sched::{
    cone_affinity_edges, greedy_prbp, greedy_prbp_edges, greedy_rbp, order, Candidate,
    FurthestInFuture,
};
use proptest::prelude::*;

/// Consumer positions of every node with respect to a fixed compute order.
///
/// For a node `u`, the *uses* of `u` are the positions (indices into the
/// compute order) of its out-neighbours. [`NextUse::next_use_at`] returns the
/// first use at or after a given time; because schedulers only ever query
/// non-decreasing times, each node keeps a cursor that only moves forward,
/// making a full schedule's worth of queries amortised linear.
#[derive(Debug, Clone)]
struct NextUse {
    /// CSR offsets into `uses`, one slice per node.
    offsets: Vec<usize>,
    /// Consumer positions, sorted increasingly within each node's slice.
    uses: Vec<usize>,
    /// Per-node cursor into its slice (monotone).
    cursor: Vec<usize>,
}

impl NextUse {
    /// Precompute consumer positions for `order`, which must contain every
    /// node of `dag` exactly once (typically a topological order; the
    /// computation itself does not require topological validity).
    fn new(dag: &Dag, order: &[NodeId]) -> Self {
        let n = dag.node_count();
        assert_eq!(order.len(), n, "order must cover every node exactly once");
        let mut position = vec![usize::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            debug_assert_eq!(position[v.index()], usize::MAX, "duplicate node in order");
            position[v.index()] = i;
        }

        let mut offsets = vec![0usize; n + 1];
        for v in dag.nodes() {
            offsets[v.index() + 1] = dag.out_degree(v);
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut uses = vec![0usize; offsets[n]];
        let mut cursor_tmp = offsets.clone();
        // Emitting consumers in increasing consumer position keeps each
        // node's slice sorted without a per-slice sort.
        for (i, &v) in order.iter().enumerate() {
            for &(u, _) in dag.in_edges(v) {
                uses[cursor_tmp[u.index()]] = i;
                cursor_tmp[u.index()] += 1;
            }
        }
        for v in 0..n {
            debug_assert!(uses[offsets[v]..offsets[v + 1]]
                .windows(2)
                .all(|w| w[0] <= w[1]));
        }
        NextUse {
            offsets,
            uses,
            cursor: vec![0; n],
        }
    }

    /// All consumer positions of `v`, sorted increasingly.
    fn uses(&self, v: NodeId) -> &[usize] {
        &self.uses[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// The first use of `v` at or after position `now`, or [`NEVER`] if `v`
    /// has no remaining consumer. Queries for a given node must come with
    /// non-decreasing `now` values (the cursor only moves forward); the
    /// schedulers' clock is monotone, so this holds naturally.
    fn next_use_at(&mut self, v: NodeId, now: usize) -> usize {
        let lo = self.offsets[v.index()];
        let hi = self.offsets[v.index() + 1];
        let mut c = lo + self.cursor[v.index()];
        while c < hi && self.uses[c] < now {
            c += 1;
        }
        self.cursor[v.index()] = c - lo;
        if c < hi {
            self.uses[c]
        } else {
            NEVER
        }
    }

    /// Reset all cursors, allowing the structure to be replayed from time 0.
    fn reset(&mut self) {
        self.cursor.iter_mut().for_each(|c| *c = 0);
    }
}

/// Index of the victim under Belady's original tuple key: the first
/// candidate with the largest key.
fn choose(candidates: &[Candidate]) -> usize {
    let key = |c: &Candidate| (c.next_use, c.free as usize, usize::MAX - c.node.index());
    let mut best = 0;
    for i in 1..candidates.len() {
        if key(&candidates[i]) > key(&candidates[best]) {
            best = i;
        }
    }
    best
}

/// Membership of the red nodes, in insertion order with swap-removal.
struct RedSet {
    members: Vec<NodeId>,
    pos: Vec<u32>,
}

const NOT_RED: u32 = u32::MAX;

impl RedSet {
    fn new(n: usize) -> Self {
        RedSet {
            members: Vec::new(),
            pos: vec![NOT_RED; n],
        }
    }

    fn insert(&mut self, v: NodeId) {
        if self.pos[v.index()] == NOT_RED {
            self.pos[v.index()] = self.members.len() as u32;
            self.members.push(v);
        }
    }

    fn remove(&mut self, v: NodeId) {
        let p = self.pos[v.index()];
        let last = *self.members.last().expect("non-empty");
        self.members.swap_remove(p as usize);
        self.pos[last.index()] = p;
        self.pos[v.index()] = NOT_RED;
    }

    fn contains(&self, v: NodeId) -> bool {
        self.pos[v.index()] != NOT_RED
    }

    fn len(&self) -> usize {
        self.members.len()
    }
}

/// The node-order RBP executor with a candidate scan per eviction.
fn rbp_scan(dag: &Dag, r: usize, order: &[NodeId]) -> Option<RbpTrace> {
    if r < dag.max_in_degree() + 1 || !topo::is_topological_order(dag, order) {
        return None;
    }
    let n = dag.node_count();
    let mut next_use = NextUse::new(dag, order);
    let mut pinned = vec![false; n];
    let mut red = RedSet::new(n);
    let mut remaining: Vec<u32> = dag.nodes().map(|v| dag.out_degree(v) as u32).collect();
    let mut builder = RbpBuilder::new(dag, RbpConfig::new(r));
    let mut candidates: Vec<Candidate> = Vec::with_capacity(r);

    for (t, &v) in order.iter().enumerate() {
        if dag.is_source(v) {
            continue;
        }
        let mut needed = 1;
        for &(u, _) in dag.in_edges(v) {
            pinned[u.index()] = true;
            if !red.contains(u) {
                needed += 1;
            }
        }
        while red.len() + needed > r {
            candidates.clear();
            for &w in &red.members {
                if pinned[w.index()] || w == v {
                    continue;
                }
                let rem = remaining[w.index()] as usize;
                let free = rem == 0 || builder.game().has_blue(w);
                candidates.push(Candidate {
                    node: w,
                    next_use: if rem == 0 {
                        NEVER
                    } else {
                        next_use.next_use_at(w, t)
                    },
                    free,
                });
            }
            let victim = candidates[choose(&candidates)].node;
            builder.evict(victim).expect("victim is evictable");
            red.remove(victim);
        }
        for &(u, _) in dag.in_edges(v) {
            if !red.contains(u) {
                builder.ensure_red(u).expect("u has a blue copy");
                red.insert(u);
            }
        }
        builder.push(RbpMove::Compute(v)).expect("inputs are red");
        red.insert(v);
        for &(u, _) in dag.in_edges(v) {
            pinned[u.index()] = false;
            remaining[u.index()] -= 1;
        }
        if dag.is_sink(v) {
            builder.push(RbpMove::Save(v)).expect("sink is red");
            builder.push(RbpMove::Delete(v)).expect("red delete");
            red.remove(v);
        }
    }
    Some(builder.finish().0)
}

/// The edge-order PRBP executor with a candidate scan per eviction. Only
/// valid edge sequences reach it (the tests build them), so the up-front
/// validation of the real executor is left out.
fn prbp_edges_scan(dag: &Dag, r: usize, edges: &[EdgeId]) -> PrbpTrace {
    let n = dag.node_count();
    let mut occurrences: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (t, &e) in edges.iter().enumerate() {
        let (u, v) = dag.edge_endpoints(e);
        occurrences[u.index()].push(t as u32);
        occurrences[v.index()].push(t as u32);
    }
    let mut cursor = vec![0u32; n];
    let mut red = RedSet::new(n);
    let mut builder = PrbpBuilder::new(dag, PrbpConfig::new(r));
    let mut candidates: Vec<Candidate> = Vec::with_capacity(r);

    for (t, &e) in edges.iter().enumerate() {
        let (u, v) = dag.edge_endpoints(e);
        let mut needed = 0;
        if !red.contains(u) {
            needed += 1;
        }
        if !red.contains(v) {
            needed += 1;
        }
        while red.len() + needed > r {
            candidates.clear();
            for &w in &red.members {
                if w == u || w == v {
                    continue;
                }
                let game = builder.game();
                // A sink that still aggregates inputs is live.
                let dead = game.unmarked_out_degree(w) == 0 && game.unmarked_in_degree(w) == 0;
                let dark = game.pebble_state(w) == PebbleState::DarkRed;
                let free = !dark || (dead && !dag.is_sink(w));
                let next_use = if dead {
                    NEVER
                } else {
                    let occ = &occurrences[w.index()];
                    let mut c = cursor[w.index()] as usize;
                    while c < occ.len() && occ[c] as usize <= t {
                        c += 1;
                    }
                    cursor[w.index()] = c as u32;
                    occ.get(c).map(|&p| p as usize).unwrap_or(NEVER)
                };
                candidates.push(Candidate {
                    node: w,
                    next_use,
                    free,
                });
            }
            let victim = candidates[choose(&candidates)].node;
            builder.evict(victim).expect("victim is evictable");
            red.remove(victim);
        }
        if !red.contains(u) {
            builder.ensure_red(u).expect("u has a blue copy");
            red.insert(u);
        }
        if !red.contains(v) {
            if builder.game().pebble_state(v) == PebbleState::Blue {
                builder.push(PrbpMove::Load(v)).expect("v has a blue copy");
            }
            red.insert(v);
        }
        builder
            .push(PrbpMove::PartialCompute { from: u, to: v })
            .expect("edge aggregation is legal");
        if builder.game().unmarked_out_degree(u) == 0 && !dag.is_sink(u) {
            builder.evict(u).expect("dead value evicts for free");
            red.remove(u);
        }
        if dag.is_sink(v) && builder.game().unmarked_in_degree(v) == 0 {
            builder.push(PrbpMove::Save(v)).expect("sink is dark red");
            builder.push(PrbpMove::Delete(v)).expect("light red delete");
            red.remove(v);
        }
    }
    builder.finish().0
}

/// Compare every executor against its reference on `dag`, for the natural
/// and DFS orders (plus the cone-affinity edge order where it applies) and
/// r ∈ {minimum, minimum + 1, 8, n}. `greedy_prbp` on a node order is
/// compared with the edge loop's reference on the order's by-target
/// sequence.
fn check_all(dag: &Dag) {
    let n = dag.node_count();
    let prbp_rs = [2, 3, 8, n];
    let rbp_min = dag.max_in_degree() + 1;
    let rbp_rs = [rbp_min, rbp_min + 1, 8, n.max(rbp_min)];
    let orders = [order::natural(dag), order::dfs_postorder(dag)];
    let mut edge_orders: Vec<Vec<EdgeId>> =
        orders.iter().map(|o| by_target_edges(dag, o)).collect();
    let belady = &mut FurthestInFuture;
    for (ord, edges) in orders.iter().zip(&edge_orders) {
        for r in prbp_rs {
            assert_eq!(
                greedy_prbp(dag, r, ord, belady),
                Some(prbp_edges_scan(dag, r, edges)),
                "greedy_prbp, r {r}"
            );
        }
        for r in rbp_rs {
            assert_eq!(
                greedy_rbp(dag, r, ord, belady),
                rbp_scan(dag, r, ord),
                "greedy_rbp, r {r}"
            );
        }
    }
    edge_orders.extend(cone_affinity_edges(dag));
    for edges in &edge_orders {
        for r in prbp_rs {
            assert_eq!(
                greedy_prbp_edges(dag, r, edges),
                Some(prbp_edges_scan(dag, r, edges)),
                "greedy_prbp_edges, r {r}"
            );
        }
    }
}

#[test]
fn fft_64_matches_the_candidate_scan() {
    check_all(&fft(64).dag);
}

#[test]
fn matmul_4_matches_the_candidate_scan() {
    check_all(&matmul(4, 4, 4).dag);
}

#[test]
fn ties_on_never_evict_the_lowest_id_first() {
    // Sources 0–3 feed node 4; sources 5 and 6 join 4 in sink 7. In RBP at
    // r = 5 the computation of 4 leaves the fully consumed sources red, and
    // making room for 5, 6 and 7 chooses among four dead values that all tie
    // on NEVER (and on being free), so the node id alone decides. PRBP
    // deletes each consumed source as soon as 4 has absorbed it.
    let mut b = DagBuilder::new();
    let v = b.add_nodes(8);
    for i in 0..4 {
        b.add_edge(v[i], v[4]);
    }
    for i in [4, 5, 6] {
        b.add_edge(v[i], v[7]);
    }
    let dag = b.build().unwrap();
    check_all(&dag);

    let ord = order::natural(&dag);
    let trace = greedy_prbp(&dag, 3, &ord, &mut FurthestInFuture).unwrap();
    let deleted: Vec<usize> = trace
        .moves
        .iter()
        .filter_map(|mv| match *mv {
            PrbpMove::Delete(w) => Some(w.index()),
            _ => None,
        })
        .collect();
    assert_eq!(&deleted[..3], &[0, 1, 2], "moves: {:?}", trace.moves);

    let trace = greedy_rbp(&dag, 5, &ord, &mut FurthestInFuture).unwrap();
    let deleted: Vec<usize> = trace
        .moves
        .iter()
        .filter_map(|mv| match *mv {
            RbpMove::Delete(w) => Some(w.index()),
            _ => None,
        })
        .collect();
    assert_eq!(&deleted[..3], &[0, 1, 2], "moves: {:?}", trace.moves);
}

/// a -> b -> d, a -> c -> d.
fn diamond() -> Dag {
    let mut b = DagBuilder::new();
    let n = b.add_nodes(4);
    b.add_edge(n[0], n[1]);
    b.add_edge(n[0], n[2]);
    b.add_edge(n[1], n[3]);
    b.add_edge(n[2], n[3]);
    b.build().unwrap()
}

#[test]
fn uses_are_consumer_positions() {
    let g = diamond();
    let order = topo::topological_order(&g); // 0, 1, 2, 3
    let nu = NextUse::new(&g, &order);
    assert_eq!(nu.uses(NodeId(0)), &[1, 2]);
    assert_eq!(nu.uses(NodeId(1)), &[3]);
    assert_eq!(nu.uses(NodeId(2)), &[3]);
    assert_eq!(nu.uses(NodeId(3)), &[] as &[usize]);
}

#[test]
fn next_use_advances_monotonically() {
    let g = diamond();
    let order = topo::topological_order(&g);
    let mut nu = NextUse::new(&g, &order);
    assert_eq!(nu.next_use_at(NodeId(0), 0), 1);
    assert_eq!(nu.next_use_at(NodeId(0), 1), 1);
    assert_eq!(nu.next_use_at(NodeId(0), 2), 2);
    assert_eq!(nu.next_use_at(NodeId(0), 3), NEVER);
    assert_eq!(nu.next_use_at(NodeId(3), 0), NEVER);
    nu.reset();
    assert_eq!(nu.next_use_at(NodeId(0), 0), 1);
}

#[test]
fn respects_custom_orders() {
    let g = diamond();
    // Reversed sibling order: 0, 2, 1, 3.
    let order = vec![NodeId(0), NodeId(2), NodeId(1), NodeId(3)];
    let mut nu = NextUse::new(&g, &order);
    assert_eq!(nu.uses(NodeId(0)), &[1, 2]);
    assert_eq!(nu.next_use_at(NodeId(2), 2), 3);
}

#[test]
#[should_panic]
fn rejects_wrong_length_order() {
    let g = diamond();
    NextUse::new(&g, &[NodeId(0)]);
}

fn dag_strategy() -> impl Strategy<Value = Dag> {
    (2usize..7, 1usize..8, 1usize..5, any::<u64>()).prop_map(|(layers, width, deg, seed)| {
        random_layered(RandomLayeredConfig {
            layers,
            width,
            max_in_degree: deg,
            seed,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_layered_dags_match_the_candidate_scan(dag in dag_strategy()) {
        check_all(&dag);
    }
}
