//! The Theorem 7.1 level-gadget towers with auxiliary levels.
//!
//! The inapproximability construction of \[3\] builds *towers* of consecutive
//! *levels*; a level of size `ℓ` is a chain `u₁ → … → u_ℓ`, and consecutive
//! levels `(u₁..u_ℓ) → (v₁..v_ℓ′)` are connected by the edges `(u_i, v_i)`
//! for `i ≤ min(ℓ, ℓ′)` plus `(u_i, v_ℓ′)` for `ℓ′ < i ≤ ℓ`. To carry the
//! construction over to PRBP, the paper inserts **auxiliary levels**:
//!
//! * at least one auxiliary level (of the size of the following original
//!   level) before every original level, so that precedence edges from other
//!   towers can target the auxiliary level;
//! * when a level shrinks from `ℓ` to `ℓ′ < ℓ`, `(ℓ − ℓ′ + 2)` auxiliary
//!   levels are inserted and every "extra" node `u_{ℓ′+1}, …, u_ℓ` gains an
//!   edge to the *last* node of each of those auxiliary levels, so partially
//!   computing those last nodes can never free up pebbles;
//! * one auxiliary level is appended on top of every tower.
//!
//! Adding auxiliary levels does not change the optimal RBP cost (verified on
//! small instances against the exact solver in the tests below).

use pebble_dag::{Dag, DagBuilder, NodeId};

/// A single (original or auxiliary) level of a tower.
#[derive(Debug, Clone)]
pub struct Level {
    /// The chain nodes of the level, in order.
    pub nodes: Vec<NodeId>,
    /// Whether this is one of the inserted auxiliary levels.
    pub auxiliary: bool,
}

/// A tower: a sequence of levels with the connection pattern described above.
#[derive(Debug, Clone)]
pub struct Tower {
    /// All levels bottom-up (auxiliary levels included, in position).
    pub levels: Vec<Level>,
}

impl Tower {
    /// Indices of the original (non-auxiliary) levels.
    pub fn original_level_indices(&self) -> Vec<usize> {
        self.levels
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.auxiliary)
            .map(|(i, _)| i)
            .collect()
    }

    /// The auxiliary level directly below original level `i` (if any): the
    /// target for cross-tower precedence edges.
    pub fn entry_level_for(&self, original_index: usize) -> Option<&Level> {
        let idx = *self.original_level_indices().get(original_index)?;
        (idx > 0 && self.levels[idx - 1].auxiliary).then(|| &self.levels[idx - 1])
    }
}

/// A built tower DAG.
#[derive(Debug, Clone)]
pub struct TowerDag {
    /// The DAG (a single tower).
    pub dag: Dag,
    /// The tower structure.
    pub tower: Tower,
}

/// Connect two consecutive levels with the construction's edge pattern.
fn connect_levels(b: &mut DagBuilder, lower: &[NodeId], upper: &[NodeId]) {
    let l = lower.len();
    let lp = upper.len();
    for i in 0..l.min(lp) {
        b.add_edge(lower[i], upper[i]);
    }
    if l > lp {
        for &low in &lower[lp..l] {
            b.add_edge(low, upper[lp - 1]);
        }
    }
}

/// Build a single tower from the original level sizes. With
/// `with_aux_levels = false` the original construction of \[3\] is produced;
/// with `true` the Theorem 7.1 auxiliary levels are inserted.
pub fn build_tower(original_sizes: &[usize], with_aux_levels: bool) -> TowerDag {
    assert!(!original_sizes.is_empty());
    assert!(original_sizes.iter().all(|&s| s >= 1));
    let mut b = DagBuilder::new();
    let mut levels: Vec<Level> = Vec::new();
    let mut counter = 0usize;
    let make_level = |b: &mut DagBuilder, size: usize, auxiliary: bool, counter: &mut usize| {
        let nodes: Vec<NodeId> = (0..size)
            .map(|i| {
                b.add_labeled_node(format!(
                    "{}{}_{}",
                    if auxiliary { "a" } else { "L" },
                    *counter,
                    i
                ))
            })
            .collect();
        for w in nodes.windows(2) {
            b.add_edge(w[0], w[1]);
        }
        *counter += 1;
        Level { nodes, auxiliary }
    };

    for (idx, &size) in original_sizes.iter().enumerate() {
        if with_aux_levels && idx > 0 {
            let prev_size = original_sizes[idx - 1];
            // Number of auxiliary levels before this original level.
            let aux_count = if prev_size > size {
                prev_size - size + 2
            } else {
                1
            };
            for a in 0..aux_count {
                let aux = make_level(&mut b, size, true, &mut counter);
                let prev_nodes = levels.last().expect("previous level exists").nodes.clone();
                connect_levels(&mut b, &prev_nodes, &aux.nodes);
                // Shrinking levels: every extra node of the previous original
                // level also feeds the last node of each auxiliary level, so
                // the extra nodes stay "locked" until the auxiliary levels are
                // reached (the ≥ ℓ pebble argument of Appendix A.5).
                if prev_size > size && a > 0 {
                    let original_prev = levels
                        .iter()
                        .rev()
                        .find(|l| !l.auxiliary)
                        .expect("an original level exists");
                    let last_aux_node = *aux.nodes.last().expect("non-empty level");
                    for &extra in &original_prev.nodes[size..] {
                        b.add_edge(extra, last_aux_node);
                    }
                }
                levels.push(aux);
            }
        }
        let level = make_level(&mut b, size, false, &mut counter);
        if let Some(prev) = levels.last() {
            let prev_nodes = prev.nodes.clone();
            connect_levels(&mut b, &prev_nodes, &level.nodes);
        }
        levels.push(level);
    }
    if with_aux_levels {
        // One auxiliary level on top of the tower.
        let top_size = *original_sizes.last().expect("non-empty");
        let aux = make_level(&mut b, top_size, true, &mut counter);
        let prev_nodes = levels.last().expect("previous level").nodes.clone();
        connect_levels(&mut b, &prev_nodes, &aux.nodes);
        levels.push(aux);
    }
    let dag = b.build().expect("tower is a valid DAG");
    TowerDag {
        dag,
        tower: Tower { levels },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_game::engine::{solve_rbp, EngineConfig};
    use pebble_game::exact::LoadCountHeuristic;
    use pebble_game::prbp::PrbpConfig;
    use pebble_game::rbp::RbpConfig;
    use pebble_game::strategies::topological;

    #[test]
    fn plain_tower_shape() {
        let t = build_tower(&[3, 3, 2], false);
        assert_eq!(t.tower.levels.len(), 3);
        // 8 nodes; chain edges 2+2+1, inter-level edges 3 + (2 + 1 extra).
        assert_eq!(t.dag.node_count(), 8);
        assert_eq!(t.dag.edge_count(), 5 + 3 + 3);
        assert!(t.tower.levels.iter().all(|l| !l.auxiliary));
    }

    #[test]
    fn aux_levels_are_inserted_per_the_rules() {
        let t = build_tower(&[3, 3, 2], true);
        let sizes: Vec<(usize, bool)> = t
            .tower
            .levels
            .iter()
            .map(|l| (l.nodes.len(), l.auxiliary))
            .collect();
        // Level sizes: original 3; 1 aux of size 3; original 3; (3-2+2)=3 aux
        // of size 2; original 2; 1 aux of size 2 on top.
        assert_eq!(
            sizes,
            vec![
                (3, false),
                (3, true),
                (3, false),
                (2, true),
                (2, true),
                (2, true),
                (2, false),
                (2, true),
            ]
        );
        // Entry level of original level 1 is the auxiliary level below it.
        let entry = t.tower.entry_level_for(1).expect("entry level exists");
        assert!(entry.auxiliary);
        assert_eq!(entry.nodes.len(), 3);
        assert_eq!(t.tower.original_level_indices(), vec![0, 2, 6]);
    }

    #[test]
    fn shrinking_levels_lock_extra_nodes() {
        // From size 3 to size 2: the extra node u3 of the original level must
        // feed the last node of the 2nd and 3rd auxiliary levels.
        let t = build_tower(&[3, 2], true);
        let original = &t.tower.levels[0];
        let extra = original.nodes[2];
        let extra_out = t.dag.out_degree(extra);
        // u3 feeds: its chain successor (none, it is the last), the last node
        // of the first aux level (the standard ℓ > ℓ′ edge), and the last
        // nodes of the later aux levels (the locking edges).
        assert!(extra_out >= 3, "extra node only has {extra_out} out-edges");
    }

    #[test]
    fn aux_levels_do_not_change_rbp_optimum_on_small_towers() {
        // Theorem 7.1: the auxiliary levels leave the RBP behaviour unchanged.
        let plain = build_tower(&[2, 2], false);
        let adjusted = build_tower(&[2, 2], true);
        let r = 3;
        let engine = EngineConfig::default();
        let opt = |dag| {
            let out = solve_rbp(
                dag,
                RbpConfig::new(r),
                &engine,
                &LoadCountHeuristic,
                None,
                None,
            );
            out.unwrap().cost
        };
        assert_eq!(opt(&plain.dag), opt(&adjusted.dag));
    }

    #[test]
    fn towers_are_pebblable_by_the_generic_strategies() {
        let t = build_tower(&[4, 3, 3, 2], true);
        let r = t.dag.max_in_degree() + 1;
        let rbp = topological::rbp_topological(&t.dag, r).unwrap();
        assert!(rbp.validate(&t.dag, RbpConfig::new(r)).is_ok());
        let prbp = topological::prbp_topological(&t.dag, 2).unwrap();
        assert!(prbp.validate(&t.dag, PrbpConfig::new(2)).is_ok());
    }
}
