//! Simulator for the partial-computing red-blue pebble game (PRBP, Section 3
//! of the paper), with the optional re-computation (`clear`) and no-deletion
//! variants of Appendix B.

use crate::moves::PrbpMove;
use pebble_dag::{BitSet, Dag, EdgeId, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// The pebble configuration of a single node in PRBP. These are exactly the
/// four states listed in Section 3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PebbleState {
    /// No pebble: the value is not stored anywhere.
    Empty,
    /// Blue pebble only: the value is only present in slow memory.
    Blue,
    /// Blue and light red: the current value is present in both memories.
    BlueAndLightRed,
    /// Dark red only: the value has been updated since the last I/O on this
    /// node and is only present in fast memory.
    DarkRed,
}

impl PebbleState {
    /// Returns `true` if the node holds a (light or dark) red pebble.
    pub fn has_red(self) -> bool {
        matches!(self, PebbleState::BlueAndLightRed | PebbleState::DarkRed)
    }

    /// Returns `true` if the node holds a blue pebble.
    pub fn has_blue(self) -> bool {
        matches!(self, PebbleState::Blue | PebbleState::BlueAndLightRed)
    }
}

/// Configuration of a PRBP game.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrbpConfig {
    /// Fast-memory capacity `r` (maximum number of light + dark red pebbles).
    pub r: usize,
    /// Allow the `clear` move (re-computation from scratch, Appendix B.1).
    pub allow_clear: bool,
    /// Forbid removing dark red pebbles by deletion; they can only be turned
    /// into light red pebbles by saving (Appendix B.4).
    pub no_delete: bool,
}

impl PrbpConfig {
    /// The standard one-shot PRBP with cache size `r`.
    pub fn new(r: usize) -> Self {
        PrbpConfig {
            r,
            allow_clear: false,
            no_delete: false,
        }
    }

    /// Enable the `clear` (re-computation) move.
    pub fn with_clear(mut self) -> Self {
        self.allow_clear = true;
        self
    }

    /// Enable the no-deletion variant.
    pub fn with_no_delete(mut self) -> Self {
        self.no_delete = true;
        self
    }
}

/// Reasons a move can be rejected by the PRBP simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrbpError {
    /// Load requires a blue pebble.
    LoadWithoutBlue(NodeId),
    /// Save requires a dark red pebble.
    SaveWithoutDarkRed(NodeId),
    /// The edge of a partial compute does not exist in the DAG.
    NoSuchEdge {
        /// Source endpoint of the offending edge.
        from: NodeId,
        /// Target endpoint of the offending edge.
        to: NodeId,
    },
    /// The edge was already marked (one-shot violation).
    EdgeAlreadyMarked {
        /// Source endpoint of the offending edge.
        from: NodeId,
        /// Target endpoint of the offending edge.
        to: NodeId,
    },
    /// The input node of a partial compute is not fully computed yet.
    InputNotFullyComputed {
        /// Source endpoint of the offending edge.
        from: NodeId,
        /// Target endpoint of the offending edge.
        to: NodeId,
    },
    /// The input node of a partial compute holds no red pebble.
    InputNotInFastMemory {
        /// Source endpoint of the offending edge.
        from: NodeId,
        /// Target endpoint of the offending edge.
        to: NodeId,
    },
    /// The target of a partial compute holds only a blue pebble (its partial
    /// value would be lost); it must be loaded first.
    TargetOnlyInSlowMemory {
        /// Source endpoint of the offending edge.
        from: NodeId,
        /// Target endpoint of the offending edge.
        to: NodeId,
    },
    /// Delete requires a red pebble.
    DeleteWithoutRed(NodeId),
    /// A dark red pebble can only be deleted once its value is no longer
    /// needed: all out-edges marked and the node is not an unsaved sink.
    DeleteDarkStillNeeded(NodeId),
    /// Deleting dark red pebbles is forbidden in the no-deletion variant.
    DeleteForbidden(NodeId),
    /// Clear is not enabled in this configuration.
    ClearNotAllowed(NodeId),
    /// Clear applied to a source or sink node.
    ClearOnSourceOrSink(NodeId),
    /// The move would exceed the fast-memory capacity `r`.
    CapacityExceeded {
        /// The configured fast-memory capacity that would be exceeded.
        r: usize,
    },
}

impl fmt::Display for PrbpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrbpError::LoadWithoutBlue(v) => write!(f, "load {v}: node has no blue pebble"),
            PrbpError::SaveWithoutDarkRed(v) => write!(f, "save {v}: node has no dark red pebble"),
            PrbpError::NoSuchEdge { from, to } => write!(f, "pc ({from},{to}): no such edge"),
            PrbpError::EdgeAlreadyMarked { from, to } => {
                write!(f, "pc ({from},{to}): edge already marked")
            }
            PrbpError::InputNotFullyComputed { from, to } => {
                write!(f, "pc ({from},{to}): {from} is not fully computed")
            }
            PrbpError::InputNotInFastMemory { from, to } => {
                write!(f, "pc ({from},{to}): {from} holds no red pebble")
            }
            PrbpError::TargetOnlyInSlowMemory { from, to } => {
                write!(
                    f,
                    "pc ({from},{to}): {to} holds only a blue pebble; load it first"
                )
            }
            PrbpError::DeleteWithoutRed(v) => write!(f, "delete {v}: node has no red pebble"),
            PrbpError::DeleteDarkStillNeeded(v) => {
                write!(f, "delete {v}: dark red pebble with unmarked out-edges")
            }
            PrbpError::DeleteForbidden(v) => write!(f, "delete {v}: dark deletion disabled"),
            PrbpError::ClearNotAllowed(v) => write!(f, "clear {v}: clear not enabled"),
            PrbpError::ClearOnSourceOrSink(v) => write!(f, "clear {v}: node is a source or sink"),
            PrbpError::CapacityExceeded { r } => write!(f, "move exceeds capacity r={r}"),
        }
    }
}

impl std::error::Error for PrbpError {}

/// A running PRBP game: the DAG, the configuration, the pebble placement and
/// the edge markings.
#[derive(Debug, Clone)]
pub struct PrbpGame<'a> {
    dag: &'a Dag,
    config: PrbpConfig,
    state: Vec<PebbleState>,
    marked: BitSet,
    /// Number of *unmarked* in-edges per node (0 = fully computed / source).
    unmarked_in: Vec<u32>,
    /// Number of *unmarked* out-edges per node (0 = not needed any more).
    unmarked_out: Vec<u32>,
    red_count: usize,
    io_cost: usize,
    compute_steps: usize,
}

impl<'a> PrbpGame<'a> {
    /// Start a game in the initial state: blue pebbles on all sources, all
    /// edges unmarked.
    pub fn new(dag: &'a Dag, config: PrbpConfig) -> Self {
        let n = dag.node_count();
        let mut state = vec![PebbleState::Empty; n];
        for v in dag.nodes() {
            if dag.is_source(v) {
                state[v.index()] = PebbleState::Blue;
            }
        }
        let unmarked_in = (0..n)
            .map(|i| dag.in_degree(NodeId::from_index(i)) as u32)
            .collect();
        let unmarked_out = (0..n)
            .map(|i| dag.out_degree(NodeId::from_index(i)) as u32)
            .collect();
        PrbpGame {
            dag,
            config,
            state,
            marked: dag.edge_set(),
            unmarked_in,
            unmarked_out,
            red_count: 0,
            io_cost: 0,
            compute_steps: 0,
        }
    }

    /// The underlying DAG.
    pub fn dag(&self) -> &Dag {
        self.dag
    }

    /// The configuration of this game.
    pub fn config(&self) -> PrbpConfig {
        self.config
    }

    /// Total I/O cost (loads + saves) so far.
    pub fn io_cost(&self) -> usize {
        self.io_cost
    }

    /// Number of partial compute steps executed so far.
    pub fn compute_steps(&self) -> usize {
        self.compute_steps
    }

    /// Number of (light + dark) red pebbles currently on the DAG.
    pub fn red_count(&self) -> usize {
        self.red_count
    }

    /// The pebble state of node `v`.
    pub fn pebble_state(&self, v: NodeId) -> PebbleState {
        self.state[v.index()]
    }

    /// Returns `true` if edge `e` has been marked (aggregated).
    pub fn is_marked(&self, e: EdgeId) -> bool {
        self.marked.contains(e.index())
    }

    /// Returns `true` if all in-edges of `v` are marked, i.e. the final value
    /// of `v` is available (sources are trivially fully computed).
    pub fn is_fully_computed(&self, v: NodeId) -> bool {
        self.unmarked_in[v.index()] == 0
    }

    /// Number of still-unmarked in-edges of `v` (0 means fully computed).
    pub fn unmarked_in_degree(&self, v: NodeId) -> usize {
        self.unmarked_in[v.index()] as usize
    }

    /// Number of still-unmarked out-edges of `v` (0 means the value of `v` is
    /// not needed by any future partial compute).
    pub fn unmarked_out_degree(&self, v: NodeId) -> usize {
        self.unmarked_out[v.index()] as usize
    }

    /// The current configuration in the canonical packed encoding
    /// `[red | blue | marked]` of [`crate::packed`] — identical to the
    /// encoding the exact solver uses, so equal configurations produce equal
    /// word sequences (usable as dedup keys by heuristic searches).
    pub fn packed_words(&self) -> Vec<u64> {
        let n = self.dag.node_count();
        let wn = crate::packed::plane_words(n);
        let wm = crate::packed::plane_words(self.dag.edge_count());
        let mut words = vec![0u64; 2 * wn + wm];
        for (i, &st) in self.state.iter().enumerate() {
            if st.has_red() {
                crate::packed::set(&mut words[..wn], i);
            }
            if st.has_blue() {
                crate::packed::set(&mut words[wn..2 * wn], i);
            }
        }
        for e in self.marked.iter() {
            crate::packed::set(&mut words[2 * wn..], e);
        }
        words
    }

    /// Returns `true` in the terminal state: every sink holds a blue pebble
    /// and every edge is marked.
    pub fn is_terminal(&self) -> bool {
        self.marked.count() == self.dag.edge_count()
            && self
                .dag
                .sinks()
                .into_iter()
                .all(|s| self.state[s.index()].has_blue())
    }

    /// Apply one move, validating it against the transition rules. On error
    /// the state is left unchanged.
    pub fn apply(&mut self, mv: PrbpMove) -> Result<(), PrbpError> {
        match mv {
            PrbpMove::Load(v) => {
                match self.state[v.index()] {
                    PebbleState::Blue => {
                        if self.red_count + 1 > self.config.r {
                            return Err(PrbpError::CapacityExceeded { r: self.config.r });
                        }
                        self.state[v.index()] = PebbleState::BlueAndLightRed;
                        self.red_count += 1;
                    }
                    // Loading an already-loaded value is legal but pointless;
                    // it still costs one I/O.
                    PebbleState::BlueAndLightRed => {}
                    PebbleState::Empty | PebbleState::DarkRed => {
                        return Err(PrbpError::LoadWithoutBlue(v));
                    }
                }
                self.io_cost += 1;
                Ok(())
            }
            PrbpMove::Save(v) => {
                if self.state[v.index()] != PebbleState::DarkRed {
                    return Err(PrbpError::SaveWithoutDarkRed(v));
                }
                self.state[v.index()] = PebbleState::BlueAndLightRed;
                self.io_cost += 1;
                Ok(())
            }
            PrbpMove::PartialCompute { from, to } => {
                let edge = self
                    .dag
                    .find_edge(from, to)
                    .ok_or(PrbpError::NoSuchEdge { from, to })?;
                if self.marked.contains(edge.index()) {
                    return Err(PrbpError::EdgeAlreadyMarked { from, to });
                }
                if self.unmarked_in[from.index()] != 0 {
                    return Err(PrbpError::InputNotFullyComputed { from, to });
                }
                if !self.state[from.index()].has_red() {
                    return Err(PrbpError::InputNotInFastMemory { from, to });
                }
                let target_state = self.state[to.index()];
                match target_state {
                    PebbleState::Blue => {
                        return Err(PrbpError::TargetOnlyInSlowMemory { from, to })
                    }
                    PebbleState::Empty => {
                        if self.red_count + 1 > self.config.r {
                            return Err(PrbpError::CapacityExceeded { r: self.config.r });
                        }
                        self.red_count += 1;
                    }
                    // A light red loses its blue companion (the slow-memory
                    // copy is now stale); a dark red stays dark. Red count is
                    // unchanged either way.
                    PebbleState::BlueAndLightRed | PebbleState::DarkRed => {}
                }
                self.state[to.index()] = PebbleState::DarkRed;
                self.marked.insert(edge.index());
                self.unmarked_in[to.index()] -= 1;
                self.unmarked_out[from.index()] -= 1;
                self.compute_steps += 1;
                Ok(())
            }
            PrbpMove::Delete(v) => match self.state[v.index()] {
                PebbleState::BlueAndLightRed => {
                    self.state[v.index()] = PebbleState::Blue;
                    self.red_count -= 1;
                    Ok(())
                }
                PebbleState::DarkRed => {
                    if self.config.no_delete {
                        return Err(PrbpError::DeleteForbidden(v));
                    }
                    // A dark red pebble may only be dropped once the value is
                    // no longer needed: all out-edges must be marked, and the
                    // node must not be a sink (a sink's value is an output of
                    // the computation and must be saved, never discarded —
                    // this is the "cannot have a valid pebbling" observation
                    // in the proof of Lemma 6.4).
                    if self.unmarked_out[v.index()] != 0 || self.dag.is_sink(v) {
                        return Err(PrbpError::DeleteDarkStillNeeded(v));
                    }
                    self.state[v.index()] = PebbleState::Empty;
                    self.red_count -= 1;
                    Ok(())
                }
                PebbleState::Empty | PebbleState::Blue => Err(PrbpError::DeleteWithoutRed(v)),
            },
            PrbpMove::Clear(v) => {
                if !self.config.allow_clear {
                    return Err(PrbpError::ClearNotAllowed(v));
                }
                if self.dag.is_source(v) || self.dag.is_sink(v) {
                    return Err(PrbpError::ClearOnSourceOrSink(v));
                }
                if self.state[v.index()].has_red() {
                    self.red_count -= 1;
                }
                self.state[v.index()] = PebbleState::Empty;
                // Unmark all in-edges of v so it can be recomputed from scratch.
                for &(u, e) in self.dag.in_edges(v) {
                    if self.marked.remove(e.index()) {
                        self.unmarked_in[v.index()] += 1;
                        self.unmarked_out[u.index()] += 1;
                    }
                }
                Ok(())
            }
        }
    }

    /// Apply a sequence of moves; returns the total I/O cost on success, or
    /// the index of the offending move and the error.
    pub fn run<I: IntoIterator<Item = PrbpMove>>(
        &mut self,
        moves: I,
    ) -> Result<usize, (usize, PrbpError)> {
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

    /// a, b -> c (c aggregates two inputs).
    fn join() -> Dag {
        let mut b = DagBuilder::new();
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[2]);
        b.add_edge(n[1], n[2]);
        b.build().unwrap()
    }

    /// a -> b -> c chain.
    fn chain3() -> Dag {
        let mut b = DagBuilder::new();
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1]);
        b.add_edge(n[1], n[2]);
        b.build().unwrap()
    }

    #[test]
    fn initial_state() {
        let g = join();
        let game = PrbpGame::new(&g, PrbpConfig::new(2));
        assert_eq!(game.pebble_state(NodeId(0)), PebbleState::Blue);
        assert_eq!(game.pebble_state(NodeId(2)), PebbleState::Empty);
        assert_eq!(game.red_count(), 0);
        assert!(!game.is_terminal());
        assert!(game.is_fully_computed(NodeId(0))); // source
        assert!(!game.is_fully_computed(NodeId(2)));
    }

    #[test]
    fn join_pebbled_with_two_red_pebbles() {
        // The key PRBP property: in-degree 2 node computed with only r = 2.
        let g = join();
        let mut game = PrbpGame::new(&g, PrbpConfig::new(2));
        let cost = game
            .run([
                PrbpMove::Load(NodeId(0)),
                PrbpMove::PartialCompute {
                    from: NodeId(0),
                    to: NodeId(2),
                },
                PrbpMove::Delete(NodeId(0)),
                PrbpMove::Load(NodeId(1)),
                PrbpMove::PartialCompute {
                    from: NodeId(1),
                    to: NodeId(2),
                },
                PrbpMove::Delete(NodeId(1)),
                PrbpMove::Save(NodeId(2)),
            ])
            .unwrap();
        assert_eq!(cost, 3);
        assert!(game.is_terminal());
        assert_eq!(game.compute_steps(), 2);
        assert_eq!(game.pebble_state(NodeId(2)), PebbleState::BlueAndLightRed);
    }

    #[test]
    fn rbp_needs_three_but_prbp_two() {
        let g = join();
        // With r = 2, RBP cannot compute node 2 at all (needs 3 simultaneous reds).
        let mut rbp = crate::rbp::RbpGame::new(&g, crate::rbp::RbpConfig::new(2));
        rbp.apply(crate::moves::RbpMove::Load(NodeId(0))).unwrap();
        rbp.apply(crate::moves::RbpMove::Load(NodeId(1))).unwrap();
        assert!(rbp
            .apply(crate::moves::RbpMove::Compute(NodeId(2)))
            .is_err());
    }

    #[test]
    fn partial_compute_preconditions() {
        let g = chain3();
        let mut game = PrbpGame::new(&g, PrbpConfig::new(3));
        // Input not in fast memory.
        assert_eq!(
            game.apply(PrbpMove::PartialCompute {
                from: NodeId(0),
                to: NodeId(1)
            }),
            Err(PrbpError::InputNotInFastMemory {
                from: NodeId(0),
                to: NodeId(1)
            })
        );
        game.apply(PrbpMove::Load(NodeId(0))).unwrap();
        // Input of the second edge is not fully computed yet.
        assert_eq!(
            game.apply(PrbpMove::PartialCompute {
                from: NodeId(1),
                to: NodeId(2)
            }),
            Err(PrbpError::InputNotFullyComputed {
                from: NodeId(1),
                to: NodeId(2)
            })
        );
        // No such edge.
        assert_eq!(
            game.apply(PrbpMove::PartialCompute {
                from: NodeId(0),
                to: NodeId(2)
            }),
            Err(PrbpError::NoSuchEdge {
                from: NodeId(0),
                to: NodeId(2)
            })
        );
        game.apply(PrbpMove::PartialCompute {
            from: NodeId(0),
            to: NodeId(1),
        })
        .unwrap();
        // One-shot: the edge cannot be marked twice.
        assert_eq!(
            game.apply(PrbpMove::PartialCompute {
                from: NodeId(0),
                to: NodeId(1)
            }),
            Err(PrbpError::EdgeAlreadyMarked {
                from: NodeId(0),
                to: NodeId(1)
            })
        );
    }

    #[test]
    fn target_with_only_blue_must_be_loaded_first() {
        let g = join();
        let mut game = PrbpGame::new(&g, PrbpConfig::new(3));
        game.apply(PrbpMove::Load(NodeId(0))).unwrap();
        game.apply(PrbpMove::PartialCompute {
            from: NodeId(0),
            to: NodeId(2),
        })
        .unwrap();
        // Save the partial value of node 2, then delete its light red pebble:
        // node 2 is now blue-only.
        game.apply(PrbpMove::Save(NodeId(2))).unwrap();
        game.apply(PrbpMove::Delete(NodeId(2))).unwrap();
        assert_eq!(game.pebble_state(NodeId(2)), PebbleState::Blue);
        game.apply(PrbpMove::Load(NodeId(1))).unwrap();
        // Aggregating into a blue-only node is forbidden.
        assert_eq!(
            game.apply(PrbpMove::PartialCompute {
                from: NodeId(1),
                to: NodeId(2)
            }),
            Err(PrbpError::TargetOnlyInSlowMemory {
                from: NodeId(1),
                to: NodeId(2)
            })
        );
        // Loading it back makes the aggregation legal again.
        game.apply(PrbpMove::Load(NodeId(2))).unwrap();
        game.apply(PrbpMove::PartialCompute {
            from: NodeId(1),
            to: NodeId(2),
        })
        .unwrap();
        assert_eq!(game.pebble_state(NodeId(2)), PebbleState::DarkRed);
        game.apply(PrbpMove::Save(NodeId(2))).unwrap();
        assert!(game.is_terminal());
        assert_eq!(game.io_cost(), 5);
    }

    #[test]
    fn dark_red_delete_requires_marked_out_edges() {
        let g = chain3();
        let mut game = PrbpGame::new(&g, PrbpConfig::new(3));
        game.apply(PrbpMove::Load(NodeId(0))).unwrap();
        game.apply(PrbpMove::PartialCompute {
            from: NodeId(0),
            to: NodeId(1),
        })
        .unwrap();
        // Node 1 is dark red and its out-edge (1, 2) is unmarked: delete is illegal.
        assert_eq!(
            game.apply(PrbpMove::Delete(NodeId(1))),
            Err(PrbpError::DeleteDarkStillNeeded(NodeId(1)))
        );
        game.apply(PrbpMove::PartialCompute {
            from: NodeId(1),
            to: NodeId(2),
        })
        .unwrap();
        // Now all out-edges of node 1 are marked and the dark pebble can go.
        game.apply(PrbpMove::Delete(NodeId(1))).unwrap();
        assert_eq!(game.pebble_state(NodeId(1)), PebbleState::Empty);
    }

    #[test]
    fn capacity_is_enforced() {
        let g = join();
        let mut game = PrbpGame::new(&g, PrbpConfig::new(1));
        game.apply(PrbpMove::Load(NodeId(0))).unwrap();
        assert_eq!(
            game.apply(PrbpMove::Load(NodeId(1))),
            Err(PrbpError::CapacityExceeded { r: 1 })
        );
        assert_eq!(
            game.apply(PrbpMove::PartialCompute {
                from: NodeId(0),
                to: NodeId(2)
            }),
            Err(PrbpError::CapacityExceeded { r: 1 })
        );
    }

    #[test]
    fn save_and_delete_preconditions() {
        let g = chain3();
        let mut game = PrbpGame::new(&g, PrbpConfig::new(3));
        assert_eq!(
            game.apply(PrbpMove::Save(NodeId(0))),
            Err(PrbpError::SaveWithoutDarkRed(NodeId(0)))
        );
        assert_eq!(
            game.apply(PrbpMove::Delete(NodeId(0))),
            Err(PrbpError::DeleteWithoutRed(NodeId(0)))
        );
        game.apply(PrbpMove::Load(NodeId(0))).unwrap();
        // A loaded source is light red: saving it is illegal (not dark).
        assert_eq!(
            game.apply(PrbpMove::Save(NodeId(0))),
            Err(PrbpError::SaveWithoutDarkRed(NodeId(0)))
        );
        // Deleting the light red pebble keeps the blue pebble.
        game.apply(PrbpMove::Delete(NodeId(0))).unwrap();
        assert_eq!(game.pebble_state(NodeId(0)), PebbleState::Blue);
    }

    #[test]
    fn terminal_requires_marked_edges_and_blue_sinks() {
        let g = chain3();
        let mut game = PrbpGame::new(&g, PrbpConfig::new(3));
        game.run([
            PrbpMove::Load(NodeId(0)),
            PrbpMove::PartialCompute {
                from: NodeId(0),
                to: NodeId(1),
            },
            PrbpMove::PartialCompute {
                from: NodeId(1),
                to: NodeId(2),
            },
        ])
        .unwrap();
        assert!(!game.is_terminal()); // sink not yet saved
        game.apply(PrbpMove::Save(NodeId(2))).unwrap();
        assert!(game.is_terminal());
    }

    #[test]
    fn clear_variant_unmarks_in_edges() {
        let g = chain3();
        let mut game = PrbpGame::new(&g, PrbpConfig::new(3).with_clear());
        game.run([
            PrbpMove::Load(NodeId(0)),
            PrbpMove::PartialCompute {
                from: NodeId(0),
                to: NodeId(1),
            },
        ])
        .unwrap();
        assert!(game.is_fully_computed(NodeId(1)));
        game.apply(PrbpMove::Clear(NodeId(1))).unwrap();
        assert_eq!(game.pebble_state(NodeId(1)), PebbleState::Empty);
        assert!(!game.is_fully_computed(NodeId(1)));
        assert_eq!(game.red_count(), 1); // only the source remains red
                                         // Re-computation is possible again.
        game.apply(PrbpMove::PartialCompute {
            from: NodeId(0),
            to: NodeId(1),
        })
        .unwrap();
        assert!(game.is_fully_computed(NodeId(1)));
    }

    #[test]
    fn clear_rejected_without_flag_and_on_sources() {
        let g = chain3();
        let mut game = PrbpGame::new(&g, PrbpConfig::new(3));
        assert_eq!(
            game.apply(PrbpMove::Clear(NodeId(1))),
            Err(PrbpError::ClearNotAllowed(NodeId(1)))
        );
        let mut game = PrbpGame::new(&g, PrbpConfig::new(3).with_clear());
        assert_eq!(
            game.apply(PrbpMove::Clear(NodeId(0))),
            Err(PrbpError::ClearOnSourceOrSink(NodeId(0)))
        );
        assert_eq!(
            game.apply(PrbpMove::Clear(NodeId(2))),
            Err(PrbpError::ClearOnSourceOrSink(NodeId(2)))
        );
    }

    #[test]
    fn no_delete_variant_forbids_dark_deletion() {
        let g = chain3();
        let mut game = PrbpGame::new(&g, PrbpConfig::new(3).with_no_delete());
        game.run([
            PrbpMove::Load(NodeId(0)),
            PrbpMove::PartialCompute {
                from: NodeId(0),
                to: NodeId(1),
            },
            PrbpMove::PartialCompute {
                from: NodeId(1),
                to: NodeId(2),
            },
        ])
        .unwrap();
        assert_eq!(
            game.apply(PrbpMove::Delete(NodeId(1))),
            Err(PrbpError::DeleteForbidden(NodeId(1)))
        );
        // Saving first turns it light red, which may then be deleted.
        game.apply(PrbpMove::Save(NodeId(1))).unwrap();
        game.apply(PrbpMove::Delete(NodeId(1))).unwrap();
        assert_eq!(game.pebble_state(NodeId(1)), PebbleState::Blue);
    }

    #[test]
    fn packed_words_mirror_the_documented_plane_layout() {
        // The contract heuristic searches rely on: `[red | blue]` node
        // planes plus a `[marked]` edge plane, every bit agreeing with the
        // game accessors — so equal configurations encode identically.
        let g = chain3();
        let mut game = PrbpGame::new(&g, PrbpConfig::new(2));
        game.run([
            PrbpMove::Load(NodeId(0)),
            PrbpMove::PartialCompute {
                from: NodeId(0),
                to: NodeId(1),
            },
            PrbpMove::Delete(NodeId(0)),
        ])
        .unwrap();
        let words = game.packed_words();
        let wn = crate::packed::plane_words(g.node_count());
        let wm = crate::packed::plane_words(g.edge_count());
        assert_eq!(words.len(), 2 * wn + wm);
        for v in g.nodes() {
            let i = v.index();
            let st = game.pebble_state(v);
            assert_eq!(crate::packed::get(&words[..wn], i), st.has_red());
            assert_eq!(crate::packed::get(&words[wn..2 * wn], i), st.has_blue());
        }
        for e in g.edges() {
            assert_eq!(
                crate::packed::get(&words[2 * wn..], e.index()),
                game.is_marked(e)
            );
        }
        // Equal configurations produce equal words.
        let mut twin = PrbpGame::new(&g, PrbpConfig::new(2));
        twin.run([
            PrbpMove::Load(NodeId(0)),
            PrbpMove::PartialCompute {
                from: NodeId(0),
                to: NodeId(1),
            },
            PrbpMove::Delete(NodeId(0)),
        ])
        .unwrap();
        assert_eq!(twin.packed_words(), words);
    }

    #[test]
    fn run_reports_offending_move_index() {
        let g = chain3();
        let mut game = PrbpGame::new(&g, PrbpConfig::new(2));
        let err = game
            .run([
                PrbpMove::Load(NodeId(0)),
                PrbpMove::PartialCompute {
                    from: NodeId(1),
                    to: NodeId(2),
                },
            ])
            .unwrap_err();
        assert_eq!(err.0, 1);
    }
}
