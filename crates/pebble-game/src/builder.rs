//! Validated trace builders: construct a pebbling move-by-move against a live
//! simulator.
//!
//! The heuristic schedulers of `pebble-sched` assemble long traces
//! programmatically. Pushing moves through a [`TraceBuilder`] means every
//! move is checked by the game simulator *at construction time* (a
//! scheduling bug fails at the offending move, with full context, instead of
//! at a later wholesale validation), while the finished trace can still be
//! re-validated from scratch via [`crate::trace::Trace::validate`] — which
//! is what every experiment and benchmark does before reporting a cost.
//!
//! One builder serves both games: it is generic over the [`Game`] it drives,
//! and [`RbpBuilder`] / [`PrbpBuilder`] are its instantiations. Only
//! `ensure_red` and `evict` are written per game, because the two models
//! keep and drop red pebbles by different rules.
//!
//! The builder is also generic over a [`MoveSink`]: by default every
//! validated move is collected into a trace, but a streaming consumer (a
//! counting sink, a file writer) can be substituted via
//! [`TraceBuilder::with_sink`] so that arbitrarily long pebblings never
//! materialise a move vector. The builder's game is then the only
//! simulator the moves meet: `pebble-sched`'s streaming certifiers take
//! its I/O count as the certified cost, and a property test cross-checks
//! the simulator against an independent implementation of the rules.

use crate::game::Game;
use crate::moves::{PrbpMove, RbpMove};
use crate::prbp::{PebbleState, PrbpError, PrbpGame};
use crate::rbp::{RbpError, RbpGame};
use crate::sink::MoveSink;
use crate::trace::{PrbpTrace, RbpTrace, Trace};
use pebble_dag::{Dag, NodeId};

/// Feeds a [`MoveSink`] (a [`Trace`], by default) against a live game `G`:
/// every pushed move is applied (and therefore validated) immediately, then
/// forwarded to the sink.
pub struct TraceBuilder<G, S> {
    game: G,
    sink: S,
}

/// A [`TraceBuilder`] driving an [`RbpGame`].
pub type RbpBuilder<'a, S = RbpTrace> = TraceBuilder<RbpGame<'a>, S>;

/// A [`TraceBuilder`] driving a [`PrbpGame`].
pub type PrbpBuilder<'a, S = PrbpTrace> = TraceBuilder<PrbpGame<'a>, S>;

impl<'a, G: Game<'a>> TraceBuilder<G, Trace<G::Move>> {
    /// Start from the initial configuration of `dag` under `config`,
    /// collecting the moves into a [`Trace`].
    pub fn new(dag: &'a Dag, config: G::Config) -> Self {
        Self::with_sink(dag, config, Trace::new())
    }
}

impl<'a, G: Game<'a>, S: MoveSink<G::Move>> TraceBuilder<G, S> {
    /// Start from the initial configuration of `dag` under `config`, sending
    /// every validated move to `sink` instead of materialising a trace.
    pub fn with_sink(dag: &'a Dag, config: G::Config, sink: S) -> Self {
        TraceBuilder {
            game: G::new(dag, config),
            sink,
        }
    }

    /// The live game state (read access for schedulers).
    pub fn game(&self) -> &G {
        &self.game
    }

    /// I/O cost of the moves pushed so far.
    pub fn io_cost(&self) -> usize {
        self.game.io_cost()
    }

    /// Apply `mv` to the live game and forward it to the sink on success.
    pub fn push(&mut self, mv: G::Move) -> Result<(), G::Error> {
        self.game.apply(mv)?;
        self.sink.record(mv);
        Ok(())
    }

    /// Finish: returns the sink (the recorded trace, by default) and the
    /// final game for terminal checks at the call site.
    pub fn finish(self) -> (S, G) {
        (self.sink, self.game)
    }
}

impl<S: MoveSink<RbpMove>> RbpBuilder<'_, S> {
    /// Ensure `v` holds a red pebble by loading it if necessary. Fails if `v`
    /// has no blue pebble or the load would exceed capacity.
    pub fn ensure_red(&mut self, v: NodeId) -> Result<(), RbpError> {
        if !self.game.has_red(v) {
            self.push(RbpMove::Load(v))?;
        }
        Ok(())
    }

    /// Evict `v`: save it first if its value would otherwise be lost while
    /// still needed (no blue copy and some successor uncomputed), then
    /// delete its red pebble. Returns the number of I/Os spent (0 or 1).
    pub fn evict(&mut self, v: NodeId) -> Result<usize, RbpError> {
        let dag = self.game.dag();
        let needed = dag.successors(v).any(|w| !self.game.is_computed(w)) || dag.is_sink(v);
        let mut io = 0;
        if needed && !self.game.has_blue(v) {
            self.push(RbpMove::Save(v))?;
            io = 1;
        }
        self.push(RbpMove::Delete(v))?;
        Ok(io)
    }
}

impl<S: MoveSink<PrbpMove>> PrbpBuilder<'_, S> {
    /// Ensure `v` holds a red pebble by loading it if necessary. Fails if `v`
    /// has no blue pebble or the load would exceed capacity.
    pub fn ensure_red(&mut self, v: NodeId) -> Result<(), PrbpError> {
        if !self.game.pebble_state(v).has_red() {
            self.push(PrbpMove::Load(v))?;
        }
        Ok(())
    }

    /// Evict `v`: a light red pebble is deleted for free; a dark red pebble
    /// is saved first when its value is still needed (unmarked out-edges, or
    /// an unsaved sink) and deleted otherwise. Returns the I/Os spent (0 or
    /// 1).
    pub fn evict(&mut self, v: NodeId) -> Result<usize, PrbpError> {
        match self.game.pebble_state(v) {
            PebbleState::BlueAndLightRed => {
                self.push(PrbpMove::Delete(v))?;
                Ok(0)
            }
            PebbleState::DarkRed => {
                let dead = self.game.unmarked_out_degree(v) == 0 && !self.game.dag().is_sink(v);
                if dead {
                    self.push(PrbpMove::Delete(v))?;
                    Ok(0)
                } else {
                    self.push(PrbpMove::Save(v))?;
                    self.push(PrbpMove::Delete(v))?;
                    Ok(1)
                }
            }
            _ => Err(PrbpError::DeleteWithoutRed(v)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prbp::PrbpConfig;
    use crate::rbp::RbpConfig;
    use pebble_dag::DagBuilder;

    /// a -> b -> c chain.
    fn chain3() -> Dag {
        let mut b = DagBuilder::new();
        let n = b.add_nodes(3);
        b.add_edge(n[0], n[1]);
        b.add_edge(n[1], n[2]);
        b.build().unwrap()
    }

    #[test]
    fn rbp_builder_records_validated_moves() {
        let g = chain3();
        let mut b = RbpBuilder::new(&g, RbpConfig::new(2));
        b.ensure_red(NodeId(0)).unwrap();
        b.ensure_red(NodeId(0)).unwrap(); // idempotent: no second load
        b.push(RbpMove::Compute(NodeId(1))).unwrap();
        assert_eq!(b.evict(NodeId(0)).unwrap(), 0); // dead, free
        b.push(RbpMove::Compute(NodeId(2))).unwrap();
        b.push(RbpMove::Save(NodeId(2))).unwrap();
        let (trace, game) = b.finish();
        assert!(game.is_terminal());
        assert_eq!(trace.validate(&g, RbpConfig::new(2)).unwrap(), 2);
    }

    #[test]
    fn rbp_builder_rejects_illegal_moves_without_recording() {
        let g = chain3();
        let mut b = RbpBuilder::new(&g, RbpConfig::new(2));
        assert!(b.push(RbpMove::Compute(NodeId(2))).is_err());
        assert_eq!(b.finish().0.len(), 0);
    }

    #[test]
    fn rbp_evict_saves_live_values() {
        let g = chain3();
        let mut b = RbpBuilder::new(&g, RbpConfig::new(3));
        b.ensure_red(NodeId(0)).unwrap();
        b.push(RbpMove::Compute(NodeId(1))).unwrap();
        // Node 1 is live (node 2 uncomputed) and has no blue copy: eviction
        // must pay a save.
        assert_eq!(b.evict(NodeId(1)).unwrap(), 1);
        assert!(b.game().has_blue(NodeId(1)));
    }

    #[test]
    fn prbp_builder_full_run() {
        let g = chain3();
        let mut b = PrbpBuilder::new(&g, PrbpConfig::new(2));
        b.ensure_red(NodeId(0)).unwrap();
        b.push(PrbpMove::PartialCompute {
            from: NodeId(0),
            to: NodeId(1),
        })
        .unwrap();
        assert_eq!(b.evict(NodeId(0)).unwrap(), 0); // light red: free
        b.push(PrbpMove::PartialCompute {
            from: NodeId(1),
            to: NodeId(2),
        })
        .unwrap();
        assert_eq!(b.evict(NodeId(1)).unwrap(), 0); // dark but dead: free
        b.push(PrbpMove::Save(NodeId(2))).unwrap();
        let (trace, game) = b.finish();
        assert!(game.is_terminal());
        assert_eq!(trace.validate(&g, PrbpConfig::new(2)).unwrap(), 2);
    }

    #[test]
    fn prbp_builder_streams_into_a_counting_sink() {
        use crate::sink::CountingSink;
        let g = chain3();
        let mut b = PrbpBuilder::with_sink(&g, PrbpConfig::new(2), CountingSink::new());
        b.ensure_red(NodeId(0)).unwrap();
        b.push(PrbpMove::PartialCompute {
            from: NodeId(0),
            to: NodeId(1),
        })
        .unwrap();
        b.evict(NodeId(0)).unwrap();
        b.push(PrbpMove::PartialCompute {
            from: NodeId(1),
            to: NodeId(2),
        })
        .unwrap();
        b.push(PrbpMove::Save(NodeId(2))).unwrap();
        let (sink, game) = b.finish();
        assert!(game.is_terminal());
        // The sink saw every validated move, but no trace was materialised.
        assert_eq!(sink.moves, 5);
        assert_eq!(sink.io, game.io_cost());
    }

    #[test]
    fn prbp_evict_saves_live_dark_pebbles() {
        let g = chain3();
        let mut b = PrbpBuilder::new(&g, PrbpConfig::new(3));
        b.ensure_red(NodeId(0)).unwrap();
        b.push(PrbpMove::PartialCompute {
            from: NodeId(0),
            to: NodeId(1),
        })
        .unwrap();
        // Node 1 is dark red with an unmarked out-edge: save + delete.
        assert_eq!(b.evict(NodeId(1)).unwrap(), 1);
        assert_eq!(b.io_cost(), 2);
    }
}
