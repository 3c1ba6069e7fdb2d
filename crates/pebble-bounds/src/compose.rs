//! Composable lower bounds: per-component load-count bounds with
//! boundary-credit corrections, admissible for any node partition.
//!
//! Take any partition of (a subset of) the nodes into components
//! `C_1, …, C_k`. Every I/O move of a valid schedule `S` touches exactly one
//! node, so `cost(S) = Σ_i c_i(S) + c_rest(S)` where `c_i` counts the I/Os
//! on nodes of `C_i` and `c_rest` the I/Os on unassigned nodes. The bound
//! rests on two facts:
//!
//! 1. **Per-component**: restricting `S` to the *internal* sub-DAG `G_i` of
//!    `C_i` (members only, internal edges only, isolated nodes dropped)
//!    yields a valid pebbling of `G_i` after at most `P_i + Q_i` repairs,
//!    where `P_i` counts *fake sources* (members computed from boundary
//!    values: no internal in-edge but a global one) and `Q_i` counts *fake
//!    sinks* (members whose value leaves the component: no internal
//!    out-edge but a global one). A fake source becomes a `G_i`-source and
//!    needs one inserted load the moment `S` computes it (once — the games
//!    are one-shot); a fake sink is a `G_i`-sink that `S` may discard
//!    unsaved, needing one inserted save. Every other restricted move stays
//!    legal move-for-move: states of members evolve identically except for
//!    dropped cross-edge computes, whose effects the two repairs cover, and
//!    partial-value saves/loads that the restriction drops (dropping only
//!    lowers the cost). Hence `c_i(S) ≥ LB(G_i) − P_i − Q_i` for *any*
//!    admissible lower bound `LB` of the standalone instance `G_i`.
//! 2. **Unassigned sources**: every source must be loaded at least once (its
//!    consumers need it red, and sources cannot be computed), so
//!    `c_rest(S) ≥ #(unassigned sources)`.
//!
//! Summing: `OPT ≥ Σ_i (LB(G_i) − P_i − Q_i) + #unassigned sources` — for
//! **every** partition, connected or not, convex or not.
//!
//! ## The bound is a count
//!
//! `LB` is the load-count bound of `pebble_game::exact`. At the initial
//! state of a DAG without isolated nodes it is `#sources + #sinks`. A
//! `G_i`-source is a member with an internal out-edge and no internal
//! in-edge: either a fake source or a global source. A `G_i`-sink is,
//! likewise, either a fake sink or a global sink. So
//!
//! `LC(G_i) − P_i − Q_i` = #(global sources in `C_i` with a successor in
//! `C_i`) + #(global sinks in `C_i` with a predecessor in `C_i`),
//!
//! which [`composed_prbp_bound`] counts in one O(n + m) pass, without
//! building any `G_i`. Every global source and sink is counted at most once,
//! in its own part or as an unassigned source, so the total **never exceeds
//! the whole DAG's load-count bound**. A composed bound rises above
//! load-count only where a caller raises an entry with stronger knowledge:
//! the exact optimum of a boundary-free component.
//!
//! The construction above relies on the one-shot rules; the `clear`
//! (re-computation) variant would make the `P_i` repair count unbounded, so
//! [`composed_prbp_bound`] returns `None` for such configurations.

use pebble_dag::{Dag, NodeId};
use pebble_game::prbp::PrbpConfig;

/// A composable lower bound, decomposed into its contributions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposedBound {
    /// Per-component contribution `LC(G_i) − P_i − Q_i`, in input order:
    /// the component's global sources with a successor in it plus its
    /// global sinks with a predecessor in it. Callers holding stronger
    /// per-component knowledge (an exact optimum of a boundary-free
    /// component) may raise individual entries before summing — see
    /// [`ComposedBound::total`].
    pub per_component: Vec<usize>,
    /// Number of source nodes assigned to no component; each contributes one
    /// mandatory load.
    pub unassigned_source_loads: usize,
}

impl ComposedBound {
    /// The composed bound: sum of the per-component contributions plus the
    /// unassigned-source loads.
    pub fn total(&self) -> usize {
        self.per_component.iter().sum::<usize>() + self.unassigned_source_loads
    }
}

/// Evaluate the composable PRBP bound for `partition` (disjoint member
/// lists; nodes outside every part are treated as unassigned) in O(n + m).
/// Returns `None` for configurations with re-computation enabled (see the
/// module docs).
pub fn composed_prbp_bound(
    dag: &Dag,
    config: PrbpConfig,
    partition: &[Vec<NodeId>],
) -> Option<ComposedBound> {
    if config.allow_clear {
        return None;
    }
    const UNASSIGNED: usize = usize::MAX;
    let mut part = vec![UNASSIGNED; dag.node_count()];
    for (i, members) in partition.iter().enumerate() {
        for &v in members {
            debug_assert_eq!(part[v.index()], UNASSIGNED, "parts are disjoint");
            part[v.index()] = i;
        }
    }
    let mut per_component = vec![0; partition.len()];
    let mut unassigned_source_loads = 0;
    for v in dag.nodes() {
        let p = part[v.index()];
        if p == UNASSIGNED {
            unassigned_source_loads += usize::from(dag.is_source(v));
            continue;
        }
        // No node is both a source and a sink: `Dag` has no isolated nodes.
        let inside = |u: NodeId| part[u.index()] == p;
        if (dag.is_source(v) && dag.successors(v).any(inside))
            || (dag.is_sink(v) && dag.predecessors(v).any(inside))
        {
            per_component[p] += 1;
        }
    }
    Some(ComposedBound {
        per_component,
        unassigned_source_loads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dag::decompose::{decompose, Strategy};
    use pebble_dag::generators::{
        attention_full, attention_qk, binary_tree, fft, fig1_full, kary_tree, matmul,
        random_layered, RandomLayeredConfig,
    };
    use pebble_dag::DagBuilder;
    use pebble_game::engine::{solve_prbp, EngineConfig};
    use pebble_game::exact::{self, LoadCountHeuristic};

    /// The extraction-based evaluation the count replaced: build each part's
    /// internal sub-DAG, bound it by load-count and subtract the fake-source
    /// and fake-sink credits.
    mod reference {
        use super::*;

        struct InternalSubDag {
            dag: Dag,
            fake_sources: usize,
            fake_sinks: usize,
        }

        fn extract_internal(dag: &Dag, members: &[NodeId]) -> Option<InternalSubDag> {
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
            let local = |v: NodeId| NodeId::from_index(keep.binary_search(&v).unwrap());
            let mut b = DagBuilder::new();
            b.add_nodes(keep.len());
            let mut fake_sources = 0;
            let mut fake_sinks = 0;
            for (lv, &v) in keep.iter().enumerate() {
                let mut internal_in = 0;
                for &(u, _) in dag.in_edges(v) {
                    if in_set.contains(u.index()) {
                        b.add_edge(local(u), NodeId::from_index(lv));
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
            Some(InternalSubDag {
                dag: b.build().expect("internal extraction preserves validity"),
                fake_sources,
                fake_sinks,
            })
        }

        pub fn composed_prbp_bound(
            dag: &Dag,
            config: PrbpConfig,
            partition: &[Vec<NodeId>],
        ) -> ComposedBound {
            let per_component = partition
                .iter()
                .map(|members| {
                    extract_internal(dag, members).map_or(0, |internal| {
                        exact::prbp_initial_bound(&internal.dag, config, &LoadCountHeuristic)
                            .saturating_sub(internal.fake_sources + internal.fake_sinks)
                    })
                })
                .collect();
            let mut assigned = dag.node_set();
            for part in partition {
                for &v in part {
                    assigned.insert(v.index());
                }
            }
            let unassigned_source_loads = dag
                .nodes()
                .filter(|&v| dag.is_source(v) && !assigned.contains(v.index()))
                .count();
            ComposedBound {
                per_component,
                unassigned_source_loads,
            }
        }
    }

    fn prbp_opt(dag: &Dag, config: PrbpConfig) -> usize {
        let engine = EngineConfig::default();
        let out = solve_prbp(dag, config, &engine, &LoadCountHeuristic, None);
        out.unwrap().cost
    }

    fn parts_of(dag: &Dag, strategy: Strategy) -> Vec<Vec<NodeId>> {
        decompose(dag, strategy, None)
            .unwrap()
            .components
            .into_iter()
            .map(|c| c.nodes)
            .collect()
    }

    /// Two disjoint 3-node trees.
    fn two_trees() -> Dag {
        let mut b = DagBuilder::new();
        let n = b.add_nodes(6);
        for (u, v) in [(0, 2), (1, 2), (3, 5), (4, 5)] {
            b.add_edge(n[u], n[v]);
        }
        b.build().unwrap()
    }

    #[test]
    fn disconnected_components_sum_exactly() {
        // Two disjoint trees: the composed bound is the sum of the per-tree
        // bounds, with zero credits.
        let dag = two_trees();
        let parts = parts_of(&dag, Strategy::Wcc);
        assert_eq!(parts.len(), 2);
        let config = PrbpConfig::new(2);
        let composed = composed_prbp_bound(&dag, config, &parts).unwrap();
        assert_eq!(composed.unassigned_source_loads, 0);
        assert_eq!(composed.per_component.len(), 2);
        let opt = prbp_opt(&dag, config);
        assert!(composed.total() <= opt, "{} > {}", composed.total(), opt);
        // Each half alone needs 3 I/Os (2 loads + 1 save), and the composed
        // bound sees both halves.
        assert_eq!(composed.total(), 6);
    }

    #[test]
    fn banded_partition_stays_admissible_on_fft() {
        let f = fft(4).dag; // 12 nodes: within exact-solver reach
        let parts = parts_of(&f, Strategy::LevelBands { max_nodes: 8 });
        assert!(parts.len() > 1);
        let config = PrbpConfig::new(3);
        let composed = composed_prbp_bound(&f, config, &parts).unwrap();
        let opt = prbp_opt(&f, config);
        assert!(composed.total() <= opt, "{} > {}", composed.total(), opt);
    }

    #[test]
    fn cone_partition_counts_unassigned_source_loads() {
        let mm = matmul(2, 1, 2).dag; // 12 nodes: within exact-solver reach
        let parts = parts_of(
            &mm,
            Strategy::SinkCones {
                max_nodes: 6,
                max_sinks: 1,
            },
        );
        let config = PrbpConfig::new(3);
        let composed = composed_prbp_bound(&mm, config, &parts).unwrap();
        // All 4 matrix entries are sources no tile owns.
        assert_eq!(composed.unassigned_source_loads, 4);
        let opt = prbp_opt(&mm, config);
        assert!(composed.total() <= opt);
    }

    #[test]
    fn clear_variant_is_refused() {
        let t = binary_tree(2);
        let parts = parts_of(&t, Strategy::Whole);
        assert!(composed_prbp_bound(&t, PrbpConfig::new(2).with_clear(), &parts).is_none());
    }

    /// The differential corpus. Rows larger than fft-64 are compiled only
    /// in release.
    fn corpus() -> Vec<Dag> {
        let mut dags = vec![
            two_trees(),
            fig1_full().dag,
            fft(4).dag,
            fft(16).dag,
            fft(64).dag,
            matmul(2, 2, 2).dag,
            matmul(4, 4, 4).dag,
            attention_qk(6, 3).dag,
            attention_full(6, 2).dag,
            binary_tree(5),
            kary_tree(3, 3).dag,
        ];
        for seed in 0..20 {
            dags.push(random_layered(RandomLayeredConfig {
                layers: 3 + (seed as usize) % 6,
                width: 2 + (seed as usize * 7) % 11,
                max_in_degree: 1 + (seed as usize) % 4,
                seed,
            }));
        }
        #[cfg(not(debug_assertions))]
        {
            dags.extend([
                fft(256).dag,
                fft(1024).dag,
                matmul(8, 8, 8).dag,
                matmul(16, 16, 16).dag,
                attention_qk(16, 8).dag,
                attention_full(24, 8).dag,
                kary_tree(4, 5).dag,
            ]);
            for seed in 20..60 {
                dags.push(random_layered(RandomLayeredConfig {
                    layers: 4 + (seed as usize) % 12,
                    width: 8 + (seed as usize * 13) % 40,
                    max_in_degree: 1 + (seed as usize) % 5,
                    seed,
                }));
            }
        }
        dags
    }

    /// Every decomposition `compose` can try, at caps from 0 to unbounded.
    fn decompositions(dag: &Dag) -> Vec<Vec<Vec<NodeId>>> {
        let caps = [0, 1, 2, 3, 5, 8, 16, 32, 48, 64, 96, 256, 1024, usize::MAX];
        let mut strategies = vec![Strategy::Whole, Strategy::Wcc];
        for max_nodes in caps {
            strategies.push(Strategy::LevelBands { max_nodes });
            for max_sinks in [1, 12] {
                strategies.push(Strategy::SinkCones {
                    max_nodes,
                    max_sinks,
                });
            }
        }
        strategies
            .into_iter()
            .filter_map(|s| decompose(dag, s, None))
            .map(|d| d.components.into_iter().map(|c| c.nodes).collect())
            .collect()
    }

    /// Random partitions into `1..=4` parts with some nodes unassigned, from
    /// a splitmix64 stream.
    fn random_partitions(dag: &Dag, seed: u64) -> Vec<Vec<Vec<NodeId>>> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        (0..8)
            .map(|_| {
                let count = 1 + (next() % 4) as usize;
                let mut parts = vec![Vec::new(); count];
                for v in dag.nodes() {
                    // Bucket 0 of `count + 1` stays unassigned.
                    let bucket = (next() % (count as u64 + 1)) as usize;
                    if bucket > 0 {
                        parts[bucket - 1].push(v);
                    }
                }
                parts
            })
            .collect()
    }

    #[test]
    fn the_count_matches_the_extraction_reference() {
        let config = PrbpConfig::new(16);
        // Partition shapes the count distinguishes; each must occur.
        let (mut outside_sources, mut unassigned_sources, mut outside_sinks) = (0, 0, 0);
        let mut checked = 0;
        for (i, dag) in corpus().iter().enumerate() {
            let load_count = exact::prbp_initial_bound(dag, config, &LoadCountHeuristic);
            let mut partitions = decompositions(dag);
            partitions.extend(random_partitions(dag, i as u64));
            for parts in &partitions {
                let mut owner = vec![None; dag.node_count()];
                for (k, members) in parts.iter().enumerate() {
                    for &v in members {
                        owner[v.index()] = Some(k);
                    }
                }
                let part_of = |v: NodeId| owner[v.index()];
                for v in dag.nodes() {
                    let p = part_of(v);
                    if dag.is_source(v) && p.is_none() {
                        unassigned_sources += 1;
                    } else if p.is_some() && dag.is_source(v) {
                        outside_sources += usize::from(dag.successors(v).all(|w| part_of(w) != p));
                    } else if p.is_some() && dag.is_sink(v) {
                        outside_sinks += usize::from(dag.predecessors(v).all(|u| part_of(u) != p));
                    }
                }
                let got = composed_prbp_bound(dag, config, parts).unwrap();
                let want = reference::composed_prbp_bound(dag, config, parts);
                assert_eq!(got, want, "dag {i}, parts {parts:?}");
                assert!(
                    got.total() <= load_count,
                    "dag {i}: {} > {load_count}",
                    got.total()
                );
                checked += 1;
            }
        }
        assert!(checked > 800, "{checked} partitions checked");
        assert!(outside_sources > 0 && unassigned_sources > 0 && outside_sinks > 0);
    }
}
