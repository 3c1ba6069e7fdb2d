//! The generic topological strategies keep their red nodes in an id-ordered
//! set and scan only those when evicting. These properties check, move for
//! move, that both strategies still emit exactly the traces of the original
//! loops, which scanned every node of the DAG for red pebbles; the
//! reference copies of those loops live here.

use prbp::dag::generators::{random_layered, RandomLayeredConfig};
use prbp::dag::{topo, Dag, NodeId};
use prbp::game::moves::{PrbpMove, RbpMove};
use prbp::game::strategies::topological;
use prbp::game::trace::{PrbpTrace, RbpTrace};
use proptest::prelude::*;

/// The RBP strategy with its eviction candidates drawn from a full node scan.
fn rbp_full_scan(dag: &Dag, r: usize) -> Option<RbpTrace> {
    if r < dag.max_in_degree() + 1 {
        return None;
    }
    let n = dag.node_count();
    let mut red = vec![false; n];
    let mut blue = vec![false; n];
    let mut computed = vec![false; n];
    let mut red_count = 0usize;
    for v in dag.nodes() {
        if dag.is_source(v) {
            blue[v.index()] = true;
        }
    }
    let mut trace = RbpTrace::new();
    for v in topo::topological_order(dag) {
        if dag.is_source(v) {
            continue;
        }
        let needed: Vec<NodeId> = dag.predecessors(v).collect();
        let missing = needed.iter().filter(|u| !red[u.index()]).count();
        let mut evict_candidates: Vec<NodeId> = dag
            .nodes()
            .filter(|&w| red[w.index()] && !needed.contains(&w) && w != v)
            .collect();
        evict_candidates.sort_by_key(|&w| {
            let dead = dag.successors(w).all(|s| computed[s.index()]);
            (!dead as u8, !blue[w.index()] as u8)
        });
        let mut ei = 0;
        while red_count + missing + 1 > r {
            let w = evict_candidates[ei];
            ei += 1;
            let dead = dag.successors(w).all(|s| computed[s.index()]);
            if !dead && !blue[w.index()] {
                trace.push(RbpMove::Save(w));
                blue[w.index()] = true;
            }
            trace.push(RbpMove::Delete(w));
            red[w.index()] = false;
            red_count -= 1;
        }
        for &u in &needed {
            if !red[u.index()] {
                trace.push(RbpMove::Load(u));
                red[u.index()] = true;
                red_count += 1;
            }
        }
        trace.push(RbpMove::Compute(v));
        red[v.index()] = true;
        red_count += 1;
        computed[v.index()] = true;
        if dag.is_sink(v) {
            trace.push(RbpMove::Save(v));
            blue[v.index()] = true;
            trace.push(RbpMove::Delete(v));
            red[v.index()] = false;
            red_count -= 1;
        }
    }
    Some(trace)
}

/// The PRBP strategy with a full node scan per eviction.
fn prbp_full_scan(dag: &Dag, r: usize) -> Option<PrbpTrace> {
    if r < 2 {
        return None;
    }
    const EMPTY: u8 = 0;
    const BLUE: u8 = 1;
    const LIGHT: u8 = 2;
    const DARK: u8 = 3;
    let n = dag.node_count();
    let mut state = vec![EMPTY; n];
    let mut marked_out = vec![0usize; n];
    for v in dag.nodes() {
        if dag.is_source(v) {
            state[v.index()] = BLUE;
        }
    }
    let mut red_count = 0usize;
    let mut trace = PrbpTrace::new();
    for v in topo::topological_order(dag) {
        if dag.is_source(v) {
            continue;
        }
        for &(u, _) in dag.in_edges(v) {
            loop {
                let required = usize::from(!matches!(state[u.index()], LIGHT | DARK))
                    + usize::from(!matches!(state[v.index()], LIGHT | DARK));
                if red_count + required <= r {
                    break;
                }
                let mut best: Option<(u8, NodeId)> = None;
                for w in dag.nodes() {
                    if w == u || w == v {
                        continue;
                    }
                    let priority = match state[w.index()] {
                        DARK if marked_out[w.index()] == dag.out_degree(w) && !dag.is_sink(w) => 0,
                        LIGHT => 1,
                        DARK => 2,
                        _ => continue,
                    };
                    if best.map_or(true, |(p, _)| priority < p) {
                        best = Some((priority, w));
                    }
                }
                let (priority, w) = best.expect("r >= 2 leaves an evictable pebble");
                if priority == 2 {
                    trace.push(PrbpMove::Save(w));
                }
                trace.push(PrbpMove::Delete(w));
                state[w.index()] = if priority == 0 { EMPTY } else { BLUE };
                red_count -= 1;
            }
            if !matches!(state[u.index()], LIGHT | DARK) {
                trace.push(PrbpMove::Load(u));
                state[u.index()] = LIGHT;
                red_count += 1;
            }
            if !matches!(state[v.index()], LIGHT | DARK) {
                red_count += 1;
            }
            trace.push(PrbpMove::PartialCompute { from: u, to: v });
            state[v.index()] = DARK;
            marked_out[u.index()] += 1;
        }
        if dag.is_sink(v) {
            trace.push(PrbpMove::Save(v));
            trace.push(PrbpMove::Delete(v));
            state[v.index()] = BLUE;
            red_count -= 1;
        }
    }
    Some(trace)
}

fn dag_strategy() -> impl Strategy<Value = (Dag, usize)> {
    (2usize..7, 2usize..8, 1usize..5, 0usize..3, any::<u64>()).prop_map(
        |(layers, width, deg, ri, seed)| {
            let dag = random_layered(RandomLayeredConfig {
                layers,
                width,
                max_in_degree: deg,
                seed,
            });
            (dag, [2, 3, 8][ri])
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rbp_topological_matches_the_full_scan((dag, r) in dag_strategy()) {
        prop_assert_eq!(topological::rbp_topological(&dag, r), rbp_full_scan(&dag, r));
    }

    #[test]
    fn prbp_topological_matches_the_full_scan((dag, r) in dag_strategy()) {
        prop_assert_eq!(topological::prbp_topological(&dag, r), prbp_full_scan(&dag, r));
    }
}
