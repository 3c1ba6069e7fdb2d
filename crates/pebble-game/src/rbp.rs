//! Simulator for the original (one-shot) red-blue pebble game, with the
//! optional model variants of Section 8.1 / Appendix B.

use crate::moves::RbpMove;
use pebble_dag::{BitSet, Dag, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Configuration of an RBP game.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RbpConfig {
    /// Fast-memory capacity `r` (maximum number of red pebbles on the DAG).
    pub r: usize,
    /// Allow the sliding compute move (Appendix B.2).
    pub allow_sliding: bool,
    /// Drop the one-shot restriction, allowing nodes to be recomputed
    /// (Appendix B.1).
    pub allow_recompute: bool,
    /// Forbid the delete move; red pebbles can only disappear by being
    /// replaced when saving (Appendix B.4).
    pub no_delete: bool,
}

impl RbpConfig {
    /// The standard one-shot RBP with cache size `r`.
    pub fn new(r: usize) -> Self {
        RbpConfig {
            r,
            allow_sliding: false,
            allow_recompute: false,
            no_delete: false,
        }
    }

    /// Enable the sliding-pebble variant.
    pub fn with_sliding(mut self) -> Self {
        self.allow_sliding = true;
        self
    }

    /// Enable re-computation (drop the one-shot restriction).
    pub fn with_recompute(mut self) -> Self {
        self.allow_recompute = true;
        self
    }

    /// Enable the no-deletion variant.
    pub fn with_no_delete(mut self) -> Self {
        self.no_delete = true;
        self
    }
}

/// Reasons a move can be rejected by the RBP simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RbpError {
    /// Load requires a blue pebble on the node.
    LoadWithoutBlue(NodeId),
    /// Save requires a red pebble on the node.
    SaveWithoutRed(NodeId),
    /// Compute applied to a source node.
    ComputeSource(NodeId),
    /// Compute requires red pebbles on every in-neighbour.
    ComputeMissingInput(NodeId, NodeId),
    /// One-shot violation: the node was already computed.
    AlreadyComputed(NodeId),
    /// Delete requires a red pebble on the node.
    DeleteWithoutRed(NodeId),
    /// Delete is forbidden in the no-deletion variant.
    DeleteForbidden(NodeId),
    /// Sliding moves are not enabled in this configuration.
    SlidingNotAllowed(NodeId),
    /// The `from` node of a slide must be an in-neighbour of the target.
    SlideFromNotPredecessor {
        /// The node being computed by the slide.
        node: NodeId,
        /// The claimed in-neighbour the pebble would slide from.
        from: NodeId,
    },
    /// The move would exceed the fast-memory capacity `r`.
    CapacityExceeded {
        /// The configured fast-memory capacity that would be exceeded.
        r: usize,
    },
}

impl fmt::Display for RbpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RbpError::LoadWithoutBlue(v) => write!(f, "load {v}: node has no blue pebble"),
            RbpError::SaveWithoutRed(v) => write!(f, "save {v}: node has no red pebble"),
            RbpError::ComputeSource(v) => write!(f, "compute {v}: node is a source"),
            RbpError::ComputeMissingInput(v, u) => {
                write!(f, "compute {v}: in-neighbour {u} has no red pebble")
            }
            RbpError::AlreadyComputed(v) => write!(f, "compute {v}: already computed (one-shot)"),
            RbpError::DeleteWithoutRed(v) => write!(f, "delete {v}: node has no red pebble"),
            RbpError::DeleteForbidden(v) => write!(f, "delete {v}: deletion disabled"),
            RbpError::SlidingNotAllowed(v) => write!(f, "slide onto {v}: sliding not enabled"),
            RbpError::SlideFromNotPredecessor { node, from } => {
                write!(f, "slide {from}->{node}: {from} is not an in-neighbour")
            }
            RbpError::CapacityExceeded { r } => write!(f, "move exceeds capacity r={r}"),
        }
    }
}

impl std::error::Error for RbpError {}

/// A running RBP game: the DAG, the configuration and the current pebble
/// placement.
#[derive(Debug, Clone)]
pub struct RbpGame<'a> {
    dag: &'a Dag,
    config: RbpConfig,
    red: BitSet,
    /// `red.count()`, maintained per move.
    red_count: usize,
    blue: BitSet,
    computed: BitSet,
    io_cost: usize,
    compute_steps: usize,
}

impl<'a> RbpGame<'a> {
    /// Start a game in the initial state: blue pebbles on all sources, no red
    /// pebbles, nothing computed.
    pub fn new(dag: &'a Dag, config: RbpConfig) -> Self {
        let mut blue = dag.node_set();
        for v in dag.nodes() {
            if dag.is_source(v) {
                blue.insert(v.index());
            }
        }
        RbpGame {
            dag,
            config,
            red: dag.node_set(),
            red_count: 0,
            blue,
            computed: dag.node_set(),
            io_cost: 0,
            compute_steps: 0,
        }
    }

    /// The underlying DAG.
    pub fn dag(&self) -> &Dag {
        self.dag
    }

    /// The configuration of this game.
    pub fn config(&self) -> RbpConfig {
        self.config
    }

    /// Total I/O cost (loads + saves) so far.
    pub fn io_cost(&self) -> usize {
        self.io_cost
    }

    /// Number of compute steps (including slides) executed so far.
    pub fn compute_steps(&self) -> usize {
        self.compute_steps
    }

    /// Number of red pebbles currently on the DAG.
    pub fn red_count(&self) -> usize {
        self.red_count
    }

    /// Returns `true` if `v` currently holds a red pebble.
    pub fn has_red(&self, v: NodeId) -> bool {
        self.red.contains(v.index())
    }

    /// Returns `true` if `v` currently holds a blue pebble.
    pub fn has_blue(&self, v: NodeId) -> bool {
        self.blue.contains(v.index())
    }

    /// Returns `true` if `v` has been computed at least once.
    pub fn is_computed(&self, v: NodeId) -> bool {
        self.computed.contains(v.index())
    }

    /// The current red-pebble set.
    pub fn red_set(&self) -> &BitSet {
        &self.red
    }

    /// The current configuration in the canonical packed encoding
    /// `[red | blue | computed]` of [`crate::packed`] — identical to the
    /// encoding the exact solver uses, so equal configurations produce equal
    /// word sequences (usable as dedup keys by heuristic searches).
    pub fn packed_words(&self) -> Vec<u64> {
        let w = crate::packed::plane_words(self.dag.node_count());
        let mut words = vec![0u64; 3 * w];
        for i in 0..self.dag.node_count() {
            if self.red.contains(i) {
                crate::packed::set(&mut words[..w], i);
            }
            if self.blue.contains(i) {
                crate::packed::set(&mut words[w..2 * w], i);
            }
            if self.computed.contains(i) {
                crate::packed::set(&mut words[2 * w..], i);
            }
        }
        words
    }

    /// Returns `true` in the terminal state: every sink holds a blue pebble.
    pub fn is_terminal(&self) -> bool {
        self.dag
            .sinks()
            .into_iter()
            .all(|s| self.blue.contains(s.index()))
    }

    fn check_capacity_after_adding(&self, extra: usize) -> Result<(), RbpError> {
        if self.red_count + extra > self.config.r {
            Err(RbpError::CapacityExceeded { r: self.config.r })
        } else {
            Ok(())
        }
    }

    /// Apply one move, validating it against the transition rules. On error
    /// the state is left unchanged.
    pub fn apply(&mut self, mv: RbpMove) -> Result<(), RbpError> {
        match mv {
            RbpMove::Load(v) => {
                if !self.blue.contains(v.index()) {
                    return Err(RbpError::LoadWithoutBlue(v));
                }
                if !self.red.contains(v.index()) {
                    self.check_capacity_after_adding(1)?;
                    self.red.insert(v.index());
                    self.red_count += 1;
                }
                self.io_cost += 1;
                Ok(())
            }
            RbpMove::Save(v) => {
                if !self.red.contains(v.index()) {
                    return Err(RbpError::SaveWithoutRed(v));
                }
                self.blue.insert(v.index());
                self.io_cost += 1;
                Ok(())
            }
            RbpMove::Compute(v) => {
                self.check_compute_preconditions(v)?;
                if !self.red.contains(v.index()) {
                    self.check_capacity_after_adding(1)?;
                    self.red.insert(v.index());
                    self.red_count += 1;
                }
                self.computed.insert(v.index());
                self.compute_steps += 1;
                Ok(())
            }
            RbpMove::ComputeSlide { node, from } => {
                if !self.config.allow_sliding {
                    return Err(RbpError::SlidingNotAllowed(node));
                }
                if !self.dag.has_edge(from, node) {
                    return Err(RbpError::SlideFromNotPredecessor { node, from });
                }
                self.check_compute_preconditions(node)?;
                // `from` holds a red pebble (checked as an in-neighbour); move
                // it. With recomputation `node` may already be red: then the
                // slide only frees `from`.
                self.red.remove(from.index());
                self.red_count -= 1;
                if !self.red.contains(node.index()) {
                    self.red.insert(node.index());
                    self.red_count += 1;
                }
                self.computed.insert(node.index());
                self.compute_steps += 1;
                Ok(())
            }
            RbpMove::Delete(v) => {
                if self.config.no_delete {
                    return Err(RbpError::DeleteForbidden(v));
                }
                if !self.red.contains(v.index()) {
                    return Err(RbpError::DeleteWithoutRed(v));
                }
                self.red.remove(v.index());
                self.red_count -= 1;
                Ok(())
            }
        }
    }

    fn check_compute_preconditions(&self, v: NodeId) -> Result<(), RbpError> {
        if self.dag.is_source(v) {
            return Err(RbpError::ComputeSource(v));
        }
        if !self.config.allow_recompute && self.computed.contains(v.index()) {
            return Err(RbpError::AlreadyComputed(v));
        }
        for &(u, _) in self.dag.in_edges(v) {
            if !self.red.contains(u.index()) {
                return Err(RbpError::ComputeMissingInput(v, u));
            }
        }
        Ok(())
    }

    /// Apply a sequence of moves; returns the total I/O cost on success, or
    /// the index of the offending move and the error.
    pub fn run<I: IntoIterator<Item = RbpMove>>(
        &mut self,
        moves: I,
    ) -> Result<usize, (usize, RbpError)> {
        for (i, mv) in moves.into_iter().enumerate() {
            self.apply(mv).map_err(|e| (i, e))?;
        }
        Ok(self.io_cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dag::DagBuilder;

    /// a -> b -> c chain.
    fn chain3() -> Dag {
        let mut b = DagBuilder::new();
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1]);
        b.add_edge(n[1], n[2]);
        b.build().unwrap()
    }

    /// a, b -> c (c needs both).
    fn join() -> Dag {
        let mut b = DagBuilder::new();
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[2]);
        b.add_edge(n[1], n[2]);
        b.build().unwrap()
    }

    #[test]
    fn initial_state_has_blue_sources_only() {
        let g = chain3();
        let game = RbpGame::new(&g, RbpConfig::new(2));
        assert!(game.has_blue(NodeId(0)));
        assert!(!game.has_blue(NodeId(1)));
        assert!(!game.has_red(NodeId(0)));
        assert_eq!(game.red_count(), 0);
        assert_eq!(game.io_cost(), 0);
        assert!(!game.is_terminal());
    }

    #[test]
    fn full_pebbling_of_chain() {
        let g = chain3();
        let mut game = RbpGame::new(&g, RbpConfig::new(2));
        let cost = game
            .run([
                RbpMove::Load(NodeId(0)),
                RbpMove::Compute(NodeId(1)),
                RbpMove::Delete(NodeId(0)),
                RbpMove::Compute(NodeId(2)),
                RbpMove::Delete(NodeId(1)),
                RbpMove::Save(NodeId(2)),
            ])
            .unwrap();
        assert_eq!(cost, 2);
        assert!(game.is_terminal());
        assert_eq!(game.compute_steps(), 2);
    }

    #[test]
    fn compute_requires_all_inputs_red() {
        let g = join();
        let mut game = RbpGame::new(&g, RbpConfig::new(3));
        game.apply(RbpMove::Load(NodeId(0))).unwrap();
        assert_eq!(
            game.apply(RbpMove::Compute(NodeId(2))),
            Err(RbpError::ComputeMissingInput(NodeId(2), NodeId(1)))
        );
        game.apply(RbpMove::Load(NodeId(1))).unwrap();
        game.apply(RbpMove::Compute(NodeId(2))).unwrap();
        game.apply(RbpMove::Save(NodeId(2))).unwrap();
        assert!(game.is_terminal());
        assert_eq!(game.io_cost(), 3);
    }

    #[test]
    fn capacity_is_enforced() {
        let g = join();
        let mut game = RbpGame::new(&g, RbpConfig::new(2));
        game.apply(RbpMove::Load(NodeId(0))).unwrap();
        game.apply(RbpMove::Load(NodeId(1))).unwrap();
        // Computing node 2 would need a third red pebble.
        assert_eq!(
            game.apply(RbpMove::Compute(NodeId(2))),
            Err(RbpError::CapacityExceeded { r: 2 })
        );
    }

    #[test]
    fn one_shot_restriction() {
        let g = chain3();
        let mut game = RbpGame::new(&g, RbpConfig::new(3));
        game.apply(RbpMove::Load(NodeId(0))).unwrap();
        game.apply(RbpMove::Compute(NodeId(1))).unwrap();
        assert_eq!(
            game.apply(RbpMove::Compute(NodeId(1))),
            Err(RbpError::AlreadyComputed(NodeId(1)))
        );
        // With recompute allowed the same move is legal (after deleting the red
        // pebble it can be recreated for free).
        let mut game = RbpGame::new(&g, RbpConfig::new(3).with_recompute());
        game.apply(RbpMove::Load(NodeId(0))).unwrap();
        game.apply(RbpMove::Compute(NodeId(1))).unwrap();
        game.apply(RbpMove::Delete(NodeId(1))).unwrap();
        game.apply(RbpMove::Compute(NodeId(1))).unwrap();
        assert!(game.has_red(NodeId(1)));
    }

    #[test]
    fn cannot_compute_source_or_load_without_blue() {
        let g = chain3();
        let mut game = RbpGame::new(&g, RbpConfig::new(3));
        assert_eq!(
            game.apply(RbpMove::Compute(NodeId(0))),
            Err(RbpError::ComputeSource(NodeId(0)))
        );
        assert_eq!(
            game.apply(RbpMove::Load(NodeId(1))),
            Err(RbpError::LoadWithoutBlue(NodeId(1)))
        );
        assert_eq!(
            game.apply(RbpMove::Save(NodeId(0))),
            Err(RbpError::SaveWithoutRed(NodeId(0)))
        );
        assert_eq!(
            game.apply(RbpMove::Delete(NodeId(0))),
            Err(RbpError::DeleteWithoutRed(NodeId(0)))
        );
    }

    #[test]
    fn sliding_moves() {
        let g = chain3();
        // Without the flag a slide is rejected.
        let mut game = RbpGame::new(&g, RbpConfig::new(2));
        game.apply(RbpMove::Load(NodeId(0))).unwrap();
        assert_eq!(
            game.apply(RbpMove::ComputeSlide {
                node: NodeId(1),
                from: NodeId(0)
            }),
            Err(RbpError::SlidingNotAllowed(NodeId(1)))
        );
        // With the flag, the pebble moves and capacity stays at 1.
        let mut game = RbpGame::new(&g, RbpConfig::new(1).with_sliding());
        game.apply(RbpMove::Load(NodeId(0))).unwrap();
        game.apply(RbpMove::ComputeSlide {
            node: NodeId(1),
            from: NodeId(0),
        })
        .unwrap();
        assert!(!game.has_red(NodeId(0)));
        assert!(game.has_red(NodeId(1)));
        assert_eq!(game.red_count(), 1);
        game.apply(RbpMove::ComputeSlide {
            node: NodeId(2),
            from: NodeId(1),
        })
        .unwrap();
        game.apply(RbpMove::Save(NodeId(2))).unwrap();
        assert!(game.is_terminal());
        assert_eq!(game.io_cost(), 2);
    }

    #[test]
    fn red_count_follows_a_sliding_trace() {
        let g = chain3();
        let config = RbpConfig::new(2).with_sliding().with_recompute();
        let mut game = RbpGame::new(&g, config);
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        // The first slide recomputes `b` while it is red: only `a` is freed.
        for mv in [
            RbpMove::Load(a),
            RbpMove::Compute(b),
            RbpMove::ComputeSlide { node: b, from: a },
            RbpMove::ComputeSlide { node: c, from: b },
            RbpMove::Save(c),
            RbpMove::Load(c),
            RbpMove::Delete(c),
        ] {
            game.apply(mv).unwrap();
            assert_eq!(game.red_count(), game.red_set().count(), "after {mv:?}");
        }
        assert!(game.is_terminal());
        assert_eq!(game.red_count(), 0);
    }

    #[test]
    fn slide_from_must_be_predecessor() {
        let g = join();
        let mut game = RbpGame::new(&g, RbpConfig::new(3).with_sliding());
        game.apply(RbpMove::Load(NodeId(0))).unwrap();
        game.apply(RbpMove::Load(NodeId(1))).unwrap();
        assert_eq!(
            game.apply(RbpMove::ComputeSlide {
                node: NodeId(1),
                from: NodeId(0)
            }),
            Err(RbpError::SlideFromNotPredecessor {
                node: NodeId(1),
                from: NodeId(0)
            })
        );
    }

    #[test]
    fn no_delete_variant_rejects_delete() {
        let g = chain3();
        let mut game = RbpGame::new(&g, RbpConfig::new(3).with_no_delete());
        game.apply(RbpMove::Load(NodeId(0))).unwrap();
        assert_eq!(
            game.apply(RbpMove::Delete(NodeId(0))),
            Err(RbpError::DeleteForbidden(NodeId(0)))
        );
    }

    #[test]
    fn run_reports_offending_move_index() {
        let g = chain3();
        let mut game = RbpGame::new(&g, RbpConfig::new(2));
        let err = game
            .run([RbpMove::Load(NodeId(0)), RbpMove::Compute(NodeId(2))])
            .unwrap_err();
        assert_eq!(err.0, 1);
        assert_eq!(err.1, RbpError::ComputeMissingInput(NodeId(2), NodeId(1)));
    }

    #[test]
    fn packed_words_mirror_the_documented_plane_layout() {
        // The contract heuristic searches rely on: `[red | blue | computed]`
        // planes of `plane_words(n)` words each, every bit agreeing with the
        // game accessors — so equal configurations encode identically.
        let g = chain3();
        let mut game = RbpGame::new(&g, RbpConfig::new(2));
        game.run([
            RbpMove::Load(NodeId(0)),
            RbpMove::Compute(NodeId(1)),
            RbpMove::Delete(NodeId(0)),
        ])
        .unwrap();
        let words = game.packed_words();
        let w = crate::packed::plane_words(g.node_count());
        assert_eq!(words.len(), 3 * w);
        for v in g.nodes() {
            let i = v.index();
            assert_eq!(crate::packed::get(&words[..w], i), game.has_red(v));
            assert_eq!(crate::packed::get(&words[w..2 * w], i), game.has_blue(v));
            assert_eq!(crate::packed::get(&words[2 * w..], i), game.is_computed(v));
        }
        // Equal configurations produce equal words.
        let mut twin = RbpGame::new(&g, RbpConfig::new(2));
        twin.run([
            RbpMove::Load(NodeId(0)),
            RbpMove::Compute(NodeId(1)),
            RbpMove::Delete(NodeId(0)),
        ])
        .unwrap();
        assert_eq!(twin.packed_words(), words);
    }

    #[test]
    fn error_display_is_informative() {
        let e = RbpError::CapacityExceeded { r: 4 };
        assert!(e.to_string().contains("r=4"));
        let e = RbpError::ComputeMissingInput(NodeId(2), NodeId(1));
        assert!(e.to_string().contains("in-neighbour"));
    }
}
