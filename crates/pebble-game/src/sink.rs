//! Move sinks: the visitor side of the streaming trace pipeline.
//!
//! The trace builder ([`crate::builder::TraceBuilder`]) and the greedy
//! executors of `pebble-sched` are generic over a [`MoveSink`]: each
//! validated move is *visited* exactly once, in execution order, and the
//! sink decides whether to store it (a [`Trace`] is itself a sink), count it
//! ([`CountingSink`], what `pebble-sched`'s streaming certifiers use), or
//! drop it ([`DiscardSink`]). On million-node DAGs a stored move vector
//! dwarfs the DAG itself, which is what the other sinks avoid. Every sink
//! has one impl for both games.
//!
//! Nothing in the contract lets a sink reject a move — validation stays with
//! the emitter (the builder applies every move to a live game before
//! forwarding it), and that game is the one simulator a streamed pebbling
//! meets.

use crate::game::GameMove;
use crate::trace::Trace;

/// A visitor receiving the moves of a pebbling in execution order.
pub trait MoveSink<M> {
    /// Visit the next move of the stream.
    fn record(&mut self, mv: M);
}

impl<M> MoveSink<M> for Trace<M> {
    fn record(&mut self, mv: M) {
        self.push(mv);
    }
}

/// A sink that drops every move; useful when only the emitter's own cost
/// accounting is of interest.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiscardSink;

impl<M> MoveSink<M> for DiscardSink {
    fn record(&mut self, _mv: M) {}
}

/// A sink that keeps running totals (move count and I/O cost) without storing
/// any move.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Number of moves visited.
    pub moves: usize,
    /// Sum of the visited moves' I/O costs.
    pub io: usize,
}

impl CountingSink {
    /// A fresh sink with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<M: GameMove> MoveSink<M> for CountingSink {
    fn record(&mut self, mv: M) {
        self.moves += 1;
        self.io += mv.io_cost();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::moves::{PrbpMove, RbpMove};
    use crate::trace::RbpTrace;
    use pebble_dag::NodeId;

    #[test]
    fn traces_collect_moves() {
        let mut t = RbpTrace::new();
        MoveSink::record(&mut t, RbpMove::Load(NodeId(0)));
        MoveSink::record(&mut t, RbpMove::Compute(NodeId(1)));
        assert_eq!(t.len(), 2);
        assert_eq!(t.io_cost(), 1);
    }

    #[test]
    fn counting_sink_tracks_io_without_storing() {
        let mut c = CountingSink::new();
        c.record(PrbpMove::Load(NodeId(0)));
        c.record(PrbpMove::PartialCompute {
            from: NodeId(0),
            to: NodeId(1),
        });
        c.record(PrbpMove::Save(NodeId(1)));
        assert_eq!(c.moves, 3);
        assert_eq!(c.io, 2);
    }

    #[test]
    fn discard_sink_accepts_everything() {
        let mut d = DiscardSink;
        d.record(RbpMove::Load(NodeId(0)));
        d.record(PrbpMove::Delete(NodeId(0)));
    }
}
