//! Recorded pebbling strategies (traces) that can be replayed, validated,
//! printed and serialised.
//!
//! One [`Trace`] type serves both games: [`RbpTrace`] and [`PrbpTrace`] are
//! its instantiations at the two move types, and [`Trace::validate`] replays
//! the moves through the [`Game`] their [`GameMove`] names. Validation has a
//! streaming form ([`validate_moves`]): any move iterator is replayed through
//! a fresh game in `O(1)` extra memory per move, so a pebbling never has to
//! be materialised just to be checked.

use crate::game::{Game, GameMove};
use crate::moves::{PrbpMove, RbpMove};
use pebble_dag::Dag;
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// Replay a stream of moves on `dag` through a fresh `G` under `config`,
/// checking every move and the terminal condition, without materialising the
/// stream. Returns the validated I/O cost.
pub fn validate_moves<'a, G, I>(
    dag: &'a Dag,
    config: G::Config,
    moves: I,
) -> Result<usize, TraceError<G::Error>>
where
    G: Game<'a>,
    I: IntoIterator<Item = G::Move>,
{
    let mut game = G::new(dag, config);
    for (i, mv) in moves.into_iter().enumerate() {
        game.apply(mv).map_err(|error| TraceError::InvalidMove {
            index: i,
            description: mv.to_string(),
            error,
        })?;
    }
    if !game.is_terminal() {
        return Err(TraceError::NotTerminal);
    }
    Ok(game.io_cost())
}

/// A recorded sequence of moves of one game. Serialises as
/// `{"moves":[...]}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace<M> {
    /// The moves in execution order.
    pub moves: Vec<M>,
}

/// A recorded RBP pebbling.
pub type RbpTrace = Trace<RbpMove>;

/// A recorded PRBP pebbling.
pub type PrbpTrace = Trace<PrbpMove>;

impl<M> Default for Trace<M> {
    fn default() -> Self {
        Trace { moves: Vec::new() }
    }
}

impl<M> Trace<M> {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a trace from a move list.
    pub fn from_moves(moves: Vec<M>) -> Self {
        Trace { moves }
    }

    /// Append a move.
    pub fn push(&mut self, mv: M) {
        self.moves.push(mv);
    }

    /// Number of moves.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Returns `true` if the trace contains no moves.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

impl<M: GameMove> Trace<M> {
    /// I/O cost of the trace (number of loads + saves), computed without
    /// validation.
    pub fn io_cost(&self) -> usize {
        self.moves.iter().map(|m| m.io_cost()).sum()
    }

    /// Number of compute steps (RBP slides and PRBP partial computes
    /// included).
    pub fn compute_steps(&self) -> usize {
        self.moves.iter().filter(|m| m.is_compute()).count()
    }

    /// Replay the trace on `dag` under `config`, checking every move and the
    /// terminal condition. Returns the validated I/O cost.
    pub fn validate<'a>(
        &self,
        dag: &'a Dag,
        config: <M::Game<'a> as Game<'a>>::Config,
    ) -> Result<usize, TraceError<<M::Game<'a> as Game<'a>>::Error>> {
        validate_moves::<M::Game<'a>, _>(dag, config, self.moves.iter().copied())
    }
}

impl<M: fmt::Display> fmt::Display for Trace<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, mv) in self.moves.iter().enumerate() {
            writeln!(f, "{i:>4}: {mv}")?;
        }
        Ok(())
    }
}

// Written by hand because the serde derive takes no generic types; the wire
// form is the derived one of a struct with a single `moves` field.
impl<M: Serialize> Serialize for Trace<M> {
    fn to_value(&self) -> Value {
        Value::Map(vec![("moves".to_string(), self.moves.to_value())])
    }
}

impl<M: Deserialize> Deserialize for Trace<M> {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let map = v
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct Trace"))?;
        Ok(Trace {
            moves: Deserialize::from_value(serde::value_get(map, "moves")?)?,
        })
    }
}

/// Errors raised when validating a recorded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError<E> {
    /// A move was rejected by the simulator.
    InvalidMove {
        /// Index of the offending move within the trace.
        index: usize,
        /// Human-readable rendering of the move.
        description: String,
        /// The simulator error.
        error: E,
    },
    /// All moves were legal but the final state is not terminal.
    NotTerminal,
}

impl<E: fmt::Display> fmt::Display for TraceError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::InvalidMove {
                index,
                description,
                error,
            } => {
                write!(f, "move {index} ({description}) is invalid: {error}")
            }
            TraceError::NotTerminal => write!(f, "trace ends before reaching the terminal state"),
        }
    }
}

impl<E: fmt::Display + fmt::Debug> std::error::Error for TraceError<E> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prbp::{PrbpConfig, PrbpError};
    use crate::rbp::{RbpConfig, RbpError};
    use pebble_dag::{DagBuilder, NodeId};

    fn chain3() -> Dag {
        let mut b = DagBuilder::new();
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1]);
        b.add_edge(n[1], n[2]);
        b.build().unwrap()
    }

    #[test]
    fn rbp_trace_validation_and_cost() {
        let g = chain3();
        let trace = RbpTrace::from_moves(vec![
            RbpMove::Load(NodeId(0)),
            RbpMove::Compute(NodeId(1)),
            RbpMove::Compute(NodeId(2)),
            RbpMove::Save(NodeId(2)),
        ]);
        assert_eq!(trace.io_cost(), 2);
        assert_eq!(trace.compute_steps(), 2);
        assert_eq!(trace.validate(&g, RbpConfig::new(3)).unwrap(), 2);
        // With r = 2 the same trace exceeds capacity at the second compute.
        let err = trace.validate(&g, RbpConfig::new(2)).unwrap_err();
        match err {
            TraceError::InvalidMove { index, .. } => assert_eq!(index, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rbp_trace_not_terminal() {
        let g = chain3();
        let trace = RbpTrace::from_moves(vec![RbpMove::Load(NodeId(0))]);
        assert_eq!(
            trace.validate(&g, RbpConfig::new(3)),
            Err(TraceError::NotTerminal)
        );
    }

    #[test]
    fn prbp_trace_validation_and_cost() {
        let g = chain3();
        let trace = PrbpTrace::from_moves(vec![
            PrbpMove::Load(NodeId(0)),
            PrbpMove::PartialCompute {
                from: NodeId(0),
                to: NodeId(1),
            },
            PrbpMove::Delete(NodeId(0)),
            PrbpMove::PartialCompute {
                from: NodeId(1),
                to: NodeId(2),
            },
            PrbpMove::Save(NodeId(2)),
        ]);
        assert_eq!(trace.io_cost(), 2);
        assert_eq!(trace.validate(&g, PrbpConfig::new(3)).unwrap(), 2);
        assert_eq!(trace.validate(&g, PrbpConfig::new(2)).unwrap(), 2);
        assert!(trace.validate(&g, PrbpConfig::new(1)).is_err());
    }

    #[test]
    fn rbp_validation_errors_are_pinned() {
        let g = chain3();
        // Node 2's input, node 1, holds no red pebble yet.
        let illegal =
            RbpTrace::from_moves(vec![RbpMove::Load(NodeId(0)), RbpMove::Compute(NodeId(2))]);
        let err = illegal.validate(&g, RbpConfig::new(3)).unwrap_err();
        assert_eq!(
            err,
            TraceError::InvalidMove {
                index: 1,
                description: "compute 2".to_string(),
                error: RbpError::ComputeMissingInput(NodeId(2), NodeId(1)),
            }
        );
        assert_eq!(
            err.to_string(),
            "move 1 (compute 2) is invalid: compute 2: in-neighbour 1 has no red pebble"
        );
        // Legal moves that stop before the sink is saved.
        let truncated = RbpTrace::from_moves(vec![
            RbpMove::Load(NodeId(0)),
            RbpMove::Compute(NodeId(1)),
            RbpMove::Compute(NodeId(2)),
        ]);
        let err = truncated.validate(&g, RbpConfig::new(3)).unwrap_err();
        assert_eq!(err, TraceError::NotTerminal);
        assert_eq!(
            err.to_string(),
            "trace ends before reaching the terminal state"
        );
    }

    #[test]
    fn prbp_validation_errors_are_pinned() {
        let g = chain3();
        // Node 1 has not aggregated its input, so it cannot feed node 2.
        let illegal = PrbpTrace::from_moves(vec![
            PrbpMove::Load(NodeId(0)),
            PrbpMove::PartialCompute {
                from: NodeId(1),
                to: NodeId(2),
            },
        ]);
        let err = illegal.validate(&g, PrbpConfig::new(3)).unwrap_err();
        assert_eq!(
            err,
            TraceError::InvalidMove {
                index: 1,
                description: "pc (1,2)".to_string(),
                error: PrbpError::InputNotFullyComputed {
                    from: NodeId(1),
                    to: NodeId(2),
                },
            }
        );
        assert_eq!(
            err.to_string(),
            "move 1 (pc (1,2)) is invalid: pc (1,2): 1 is not fully computed"
        );
        // Every edge aggregated, but the sink never saved.
        let truncated = PrbpTrace::from_moves(vec![
            PrbpMove::Load(NodeId(0)),
            PrbpMove::PartialCompute {
                from: NodeId(0),
                to: NodeId(1),
            },
            PrbpMove::PartialCompute {
                from: NodeId(1),
                to: NodeId(2),
            },
        ]);
        let err = truncated.validate(&g, PrbpConfig::new(3)).unwrap_err();
        assert_eq!(err, TraceError::NotTerminal);
        assert_eq!(
            err.to_string(),
            "trace ends before reaching the terminal state"
        );
    }

    #[test]
    fn traces_serialise_roundtrip() {
        let trace = PrbpTrace::from_moves(vec![
            PrbpMove::Load(NodeId(0)),
            PrbpMove::PartialCompute {
                from: NodeId(0),
                to: NodeId(1),
            },
        ]);
        let json = serde_json::to_string(&trace).unwrap();
        let back: PrbpTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn display_lists_moves_in_order() {
        let trace =
            RbpTrace::from_moves(vec![RbpMove::Load(NodeId(0)), RbpMove::Compute(NodeId(1))]);
        let text = trace.to_string();
        assert!(text.contains("0: load 0"));
        assert!(text.contains("1: compute 1"));
    }
}
