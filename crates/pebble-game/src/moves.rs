//! Transition rules (moves) of the two pebble games.

use crate::game::GameMove;
use crate::prbp::PrbpGame;
use crate::rbp::RbpGame;
use pebble_dag::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which pebble game a cost or a solver refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Model {
    /// The original red-blue pebble game of Hong and Kung (one-shot).
    Rbp,
    /// The partial-computing red-blue pebble game (one-shot).
    Prbp,
}

impl Model {
    /// Stable lowercase identifier (`"rbp"` / `"prbp"`), used in benchmark
    /// documents and experiment tables.
    pub fn short_name(self) -> &'static str {
        match self {
            Model::Rbp => "rbp",
            Model::Prbp => "prbp",
        }
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Model::Rbp => write!(f, "RBP"),
            Model::Prbp => write!(f, "PRBP"),
        }
    }
}

/// A move in the original red-blue pebble game (Section 1 of the paper),
/// extended with the optional variant moves of Section 8.1 / Appendix B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RbpMove {
    /// Rule 1 (*save*): place a blue pebble on a node holding a red pebble.
    /// Costs 1.
    Save(NodeId),
    /// Rule 2 (*load*): place a red pebble on a node holding a blue pebble.
    /// Costs 1.
    Load(NodeId),
    /// Rule 3 (*compute*): if all in-neighbours of a non-source node hold red
    /// pebbles, place a red pebble on the node. Free.
    Compute(NodeId),
    /// Rule 4 (*delete*): remove a red pebble. Free.
    Delete(NodeId),
    /// Variant move (sliding-pebble model, Appendix B.2): if all in-neighbours
    /// of `node` hold red pebbles, *move* the red pebble from in-neighbour
    /// `from` onto `node`. Free. Only legal when
    /// [`crate::rbp::RbpConfig::allow_sliding`] is set.
    ComputeSlide {
        /// The node being computed.
        node: NodeId,
        /// The in-neighbour whose red pebble slides onto `node`.
        from: NodeId,
    },
}

impl GameMove for RbpMove {
    type Game<'a> = RbpGame<'a>;

    fn io_cost(&self) -> usize {
        match self {
            RbpMove::Save(_) | RbpMove::Load(_) => 1,
            _ => 0,
        }
    }

    /// Compute steps include slides.
    fn is_compute(&self) -> bool {
        matches!(self, RbpMove::Compute(_) | RbpMove::ComputeSlide { .. })
    }
}

impl fmt::Display for RbpMove {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RbpMove::Save(v) => write!(f, "save {v}"),
            RbpMove::Load(v) => write!(f, "load {v}"),
            RbpMove::Compute(v) => write!(f, "compute {v}"),
            RbpMove::Delete(v) => write!(f, "delete {v}"),
            RbpMove::ComputeSlide { node, from } => write!(f, "slide {from}->{node}"),
        }
    }
}

/// A move in the partial-computing red-blue pebble game (Section 3 of the
/// paper), extended with the optional `clear` move of Appendix B.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrbpMove {
    /// Rule 1 (*save*): replace a dark red pebble by a blue and a light red
    /// pebble. Costs 1.
    Save(NodeId),
    /// Rule 2 (*load*): place a light red pebble on a node holding a blue
    /// pebble. Costs 1.
    Load(NodeId),
    /// Rule 3 (*partial compute*): aggregate the value of `from` into `to`
    /// along the unmarked edge `(from, to)`; all in-edges of `from` must be
    /// marked, `from` must hold a red pebble and `to` must hold a red pebble
    /// or no pebble at all. Replaces all pebbles on `to` by a dark red pebble
    /// and marks the edge. Free.
    PartialCompute {
        /// The fully-computed input node.
        from: NodeId,
        /// The node whose value is being aggregated.
        to: NodeId,
    },
    /// Rule 4 (*delete*): remove a light red pebble, or a dark red pebble from
    /// a node all of whose out-edges are marked. Free.
    Delete(NodeId),
    /// Variant move (re-computation, Appendix B.1): remove all pebbles from a
    /// non-source, non-sink node and unmark all of its in-edges, so the node
    /// can be recomputed from scratch. Free. Only legal when
    /// [`crate::prbp::PrbpConfig::allow_clear`] is set.
    Clear(NodeId),
}

impl GameMove for PrbpMove {
    type Game<'a> = PrbpGame<'a>;

    fn io_cost(&self) -> usize {
        match self {
            PrbpMove::Save(_) | PrbpMove::Load(_) => 1,
            _ => 0,
        }
    }

    /// Compute steps are partial computes.
    fn is_compute(&self) -> bool {
        matches!(self, PrbpMove::PartialCompute { .. })
    }
}

impl PrbpMove {
    /// The same move on the nodes `f` maps its nodes to.
    pub fn map_nodes(self, mut f: impl FnMut(NodeId) -> NodeId) -> PrbpMove {
        self.try_map_nodes(|v| Some(f(v)))
            .expect("an infallible map maps every node")
    }

    /// [`PrbpMove::map_nodes`] through a partial map: `None` when `f` maps
    /// one of the move's nodes to nothing.
    pub fn try_map_nodes(self, mut f: impl FnMut(NodeId) -> Option<NodeId>) -> Option<PrbpMove> {
        Some(match self {
            PrbpMove::Save(v) => PrbpMove::Save(f(v)?),
            PrbpMove::Load(v) => PrbpMove::Load(f(v)?),
            PrbpMove::PartialCompute { from, to } => PrbpMove::PartialCompute {
                from: f(from)?,
                to: f(to)?,
            },
            PrbpMove::Delete(v) => PrbpMove::Delete(f(v)?),
            PrbpMove::Clear(v) => PrbpMove::Clear(f(v)?),
        })
    }
}

impl fmt::Display for PrbpMove {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrbpMove::Save(v) => write!(f, "save {v}"),
            PrbpMove::Load(v) => write!(f, "load {v}"),
            PrbpMove::PartialCompute { from, to } => write!(f, "pc ({from},{to})"),
            PrbpMove::Delete(v) => write!(f, "delete {v}"),
            PrbpMove::Clear(v) => write!(f, "clear {v}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_costs() {
        assert_eq!(RbpMove::Load(NodeId(0)).io_cost(), 1);
        assert_eq!(RbpMove::Save(NodeId(0)).io_cost(), 1);
        assert_eq!(RbpMove::Compute(NodeId(0)).io_cost(), 0);
        assert_eq!(RbpMove::Delete(NodeId(0)).io_cost(), 0);
        assert_eq!(
            RbpMove::ComputeSlide {
                node: NodeId(1),
                from: NodeId(0)
            }
            .io_cost(),
            0
        );
        assert_eq!(PrbpMove::Load(NodeId(0)).io_cost(), 1);
        assert_eq!(PrbpMove::Save(NodeId(0)).io_cost(), 1);
        assert_eq!(
            PrbpMove::PartialCompute {
                from: NodeId(0),
                to: NodeId(1)
            }
            .io_cost(),
            0
        );
        assert_eq!(PrbpMove::Delete(NodeId(0)).io_cost(), 0);
        assert_eq!(PrbpMove::Clear(NodeId(0)).io_cost(), 0);
    }

    #[test]
    fn compute_classification() {
        assert!(RbpMove::Compute(NodeId(0)).is_compute());
        assert!(RbpMove::ComputeSlide {
            node: NodeId(1),
            from: NodeId(0)
        }
        .is_compute());
        assert!(!RbpMove::Load(NodeId(0)).is_compute());
        assert!(PrbpMove::PartialCompute {
            from: NodeId(0),
            to: NodeId(1)
        }
        .is_compute());
        assert!(!PrbpMove::Save(NodeId(0)).is_compute());
    }

    #[test]
    fn map_nodes_maps_every_node_of_a_move() {
        let shift = |v: NodeId| NodeId(v.0 + 10);
        let pc = PrbpMove::PartialCompute {
            from: NodeId(1),
            to: NodeId(2),
        };
        assert_eq!(
            pc.map_nodes(shift),
            PrbpMove::PartialCompute {
                from: NodeId(11),
                to: NodeId(12)
            }
        );
        for mv in [
            PrbpMove::Save,
            PrbpMove::Load,
            PrbpMove::Delete,
            PrbpMove::Clear,
        ] {
            assert_eq!(mv(NodeId(3)).map_nodes(shift), mv(NodeId(13)));
        }
        // A partial map fails on either end of an aggregation.
        let below_two = |v: NodeId| (v.0 < 2).then_some(v);
        assert_eq!(pc.try_map_nodes(below_two), None);
        assert_eq!(
            PrbpMove::Load(NodeId(1)).try_map_nodes(below_two),
            Some(PrbpMove::Load(NodeId(1)))
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(RbpMove::Load(NodeId(3)).to_string(), "load 3");
        assert_eq!(
            PrbpMove::PartialCompute {
                from: NodeId(1),
                to: NodeId(2)
            }
            .to_string(),
            "pc (1,2)"
        );
        assert_eq!(Model::Rbp.to_string(), "RBP");
        assert_eq!(Model::Prbp.to_string(), "PRBP");
        assert_eq!(Model::Rbp.short_name(), "rbp");
        assert_eq!(Model::Prbp.short_name(), "prbp");
    }
}
