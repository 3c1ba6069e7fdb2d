//! Property coverage for the iso-invariant canonical hash: random node
//! relabelings and edge-order permutations of random layered DAGs hash
//! identically, structural edits change the key, and the canonical numbering
//! is always a topological permutation whose inverse inverts it.

use pebble_dag::canon::{canonical_form, canonical_key, CanonKey};
use pebble_dag::generators::{random_layered, RandomLayeredConfig};
use pebble_dag::{Dag, DagBuilder, NodeId};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Rebuild `dag` with node `v` renamed to `perm[v]` and the edge list
/// inserted in a seeded random order.
fn permuted(dag: &Dag, perm: &[usize], shuffle_seed: u64) -> Dag {
    let mut rng = ChaCha8Rng::seed_from_u64(shuffle_seed);
    let mut b = DagBuilder::new();
    b.add_nodes(dag.node_count());
    let mut edges: Vec<(usize, usize)> = dag
        .edges()
        .map(|e| {
            let (u, v) = dag.edge_endpoints(e);
            (perm[u.index()], perm[v.index()])
        })
        .collect();
    edges.shuffle(&mut rng);
    for (u, v) in edges {
        b.add_edge(NodeId::from_index(u), NodeId::from_index(v));
    }
    b.build().expect("relabeling a valid DAG stays valid")
}

fn random_perm(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut rng);
    perm
}

fn dag_strategy() -> impl Strategy<Value = Dag> {
    (2usize..6, 1usize..6, 1usize..4, any::<u64>()).prop_map(|(layers, width, deg, seed)| {
        random_layered(RandomLayeredConfig {
            layers,
            width,
            max_in_degree: deg,
            seed,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn key_is_invariant_under_relabeling_and_edge_shuffle(
        dag in dag_strategy(),
        perm_seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
    ) {
        let perm = random_perm(dag.node_count(), perm_seed);
        let relabeled = permuted(&dag, &perm, shuffle_seed);
        prop_assert_eq!(canonical_key(&dag), canonical_key(&relabeled));
        // The full form computes the same key through the same pipeline.
        prop_assert_eq!(canonical_form(&dag).key, canonical_form(&relabeled).key);
    }

    #[test]
    fn removing_an_edge_changes_the_key(
        dag in dag_strategy(),
        pick in any::<u64>(),
    ) {
        // Drop one non-load-bearing edge (skip if removal would isolate a
        // node — the builder rejects isolated nodes by design).
        let m = dag.edge_count();
        let victim = (pick % m as u64) as usize;
        let mut b = DagBuilder::new();
        b.add_nodes(dag.node_count());
        let mut kept = 0usize;
        for (i, e) in dag.edges().enumerate() {
            if i == victim {
                continue;
            }
            let (u, v) = dag.edge_endpoints(e);
            b.add_edge(u, v);
            kept += 1;
        }
        if kept > 0 {
            if let Ok(smaller) = b.build() {
                prop_assert_ne!(canonical_key(&dag), canonical_key(&smaller));
            }
        }
    }

    #[test]
    fn canonical_numbering_is_a_permutation(
        dag in dag_strategy(),
        perm_seed in any::<u64>(),
    ) {
        let form = canonical_form(&dag);
        let n = dag.node_count();
        let mut seen = vec![false; n];
        for &p in &form.perm {
            prop_assert!(p < n);
            prop_assert!(!seen[p]);
            seen[p] = true;
        }
        let inv = form.inverse();
        for v in dag.nodes() {
            prop_assert_eq!(inv[form.to_canonical(v)], v);
        }
        // Numbered by level first, so every edge runs forward.
        for (u, v) in form.edges(&dag) {
            prop_assert!(u < v, "edge {:?} -> {:?} runs backwards", u, v);
        }
        // The canonical numbering of a relabeled copy must agree with the
        // original's through the relabeling on WL-discriminated nodes; at
        // minimum both forms share the key (soundness beyond that is the
        // simulator's job — see the canon module docs).
        let perm = random_perm(n, perm_seed);
        let relabeled = permuted(&dag, &perm, perm_seed ^ 0xCAFE);
        prop_assert_eq!(form.key, canonical_form(&relabeled).key);
    }

    #[test]
    fn hex_roundtrips(dag in dag_strategy()) {
        let key = canonical_key(&dag);
        prop_assert_eq!(CanonKey::from_hex(&key.hex()), Some(key));
    }
}

#[test]
fn distinct_families_hash_apart() {
    use pebble_dag::generators;
    let keys = [
        canonical_key(&generators::fft(8).dag),
        canonical_key(&generators::fft(16).dag),
        canonical_key(&generators::binary_tree(3)),
        canonical_key(&generators::pyramid(4).dag),
        canonical_key(&generators::matvec(3).dag),
        canonical_key(&generators::fig1_full().dag),
    ];
    for i in 0..keys.len() {
        for j in i + 1..keys.len() {
            assert_ne!(keys[i], keys[j], "families {i} and {j} collided");
        }
    }
}

/// The kernels `serve` sees: FFT 32–256, matmuls up to 8³, attention
/// Q·Kᵀ, binary trees of depth 3–8 and k-ary trees.
fn kernels() -> Vec<(String, Dag)> {
    use pebble_dag::generators::{attention_qk, binary_tree, fft, kary_tree, matmul};
    let mut rows: Vec<(String, Dag)> = Vec::new();
    for m in [32, 64, 128, 256] {
        rows.push((format!("fft-{m}"), fft(m).dag));
    }
    for (m1, m2, m3) in [
        (2, 2, 2),
        (2, 3, 4),
        (3, 3, 3),
        (4, 4, 4),
        (2, 8, 2),
        (4, 2, 8),
        (5, 5, 5),
        (6, 6, 6),
        (8, 8, 8),
        (3, 6, 8),
        (8, 4, 4),
        (7, 7, 7),
    ] {
        rows.push((format!("matmul-{m1}x{m2}x{m3}"), matmul(m1, m2, m3).dag));
    }
    for (m, d) in [
        (4, 2),
        (4, 4),
        (6, 3),
        (8, 2),
        (8, 4),
        (8, 8),
        (12, 4),
        (16, 4),
    ] {
        rows.push((format!("attention-qk-{m}x{d}"), attention_qk(m, d).dag));
    }
    for depth in 3..=8 {
        rows.push((format!("binary-tree-{depth}"), binary_tree(depth)));
    }
    for (k, depth) in [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)] {
        rows.push((format!("{k}-ary-tree-{depth}"), kary_tree(k, depth).dag));
    }
    rows
}

#[test]
fn relabelled_kernels_get_one_canonical_edge_list() {
    for (i, (name, dag)) in kernels().into_iter().enumerate() {
        let form = canonical_form(&dag);
        assert!(form.discrete, "{name}: ties left");
        let edges = form.edges(&dag);
        for copy in 0..3u64 {
            let seed = 1000 * i as u64 + copy;
            let relabeled = permuted(&dag, &random_perm(dag.node_count(), seed), seed);
            let other = canonical_form(&relabeled);
            assert!(other.discrete, "{name}, copy {copy}: ties left");
            assert_eq!(other.key, form.key, "{name}, copy {copy}");
            assert!(other.edges(&relabeled) == edges, "{name}, copy {copy}");
        }
    }
}

#[test]
fn the_canonical_copy_is_its_own_canonical_form() {
    for (name, dag) in kernels() {
        let form = canonical_form(&dag);
        let copy = form.relabel(&dag);
        let again = canonical_form(&copy);
        assert_eq!(again.key, form.key, "{name}");
        assert!(again.edges(&copy) == form.edges(&dag), "{name}");
        // The copy's edges are its canonical edge list, in id order.
        let listed: Vec<(NodeId, NodeId)> = copy.edges().map(|e| copy.edge_endpoints(e)).collect();
        assert!(listed == form.edges(&dag), "{name}");
    }
}
