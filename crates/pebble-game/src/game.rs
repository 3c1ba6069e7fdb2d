//! The simulator interface both pebble games share.
//!
//! The trace layer ([`crate::trace`], [`crate::builder`], [`crate::sink`])
//! and the certifiers of `pebble-sched` are written once against [`Game`];
//! [`RbpGame`] and [`PrbpGame`] implement it by delegating to their inherent
//! methods. [`GameMove`], implemented by the move types in
//! [`crate::moves`], ties each move type to the game that applies it, which
//! is how a [`crate::trace::Trace`] of moves finds the simulator that
//! validates it.

use crate::moves::{Model, PrbpMove, RbpMove};
use crate::prbp::{PrbpConfig, PrbpError, PrbpGame};
use crate::rbp::{RbpConfig, RbpError, RbpGame};
use pebble_dag::Dag;
use std::fmt;

/// A running pebble game on a DAG borrowed for `'a`: a simulator that
/// validates every move it applies.
pub trait Game<'a>: Sized {
    /// The moves of the model.
    type Move: GameMove;
    /// The model configuration (cache size and variant switches).
    type Config: Copy;
    /// Why a move was rejected.
    type Error;
    /// Which of the two games this is.
    const MODEL: Model;

    /// Start a game on `dag` in the model's initial state.
    fn new(dag: &'a Dag, config: Self::Config) -> Self;
    /// Apply `mv` if it is legal in the current state.
    fn apply(&mut self, mv: Self::Move) -> Result<(), Self::Error>;
    /// Whether the game is in its terminal state (every sink holds a blue
    /// pebble; in PRBP, every edge is also marked).
    fn is_terminal(&self) -> bool;
    /// Loads plus saves applied so far.
    fn io_cost(&self) -> usize;
}

/// A move type, tied to the [`Game`] that applies it.
pub trait GameMove: Copy + fmt::Display {
    /// The simulator of the model this move belongs to.
    type Game<'a>: Game<'a, Move = Self>;
    /// I/O cost of the move (1 for load/save, 0 otherwise).
    fn io_cost(&self) -> usize;
    /// Whether the move is a compute step.
    fn is_compute(&self) -> bool;
}

impl<'a> Game<'a> for RbpGame<'a> {
    type Move = RbpMove;
    type Config = RbpConfig;
    type Error = RbpError;
    const MODEL: Model = Model::Rbp;

    fn new(dag: &'a Dag, config: RbpConfig) -> Self {
        RbpGame::new(dag, config)
    }
    fn apply(&mut self, mv: RbpMove) -> Result<(), RbpError> {
        RbpGame::apply(self, mv)
    }
    fn is_terminal(&self) -> bool {
        RbpGame::is_terminal(self)
    }
    fn io_cost(&self) -> usize {
        RbpGame::io_cost(self)
    }
}

impl<'a> Game<'a> for PrbpGame<'a> {
    type Move = PrbpMove;
    type Config = PrbpConfig;
    type Error = PrbpError;
    const MODEL: Model = Model::Prbp;

    fn new(dag: &'a Dag, config: PrbpConfig) -> Self {
        PrbpGame::new(dag, config)
    }
    fn apply(&mut self, mv: PrbpMove) -> Result<(), PrbpError> {
        PrbpGame::apply(self, mv)
    }
    fn is_terminal(&self) -> bool {
        PrbpGame::is_terminal(self)
    }
    fn io_cost(&self) -> usize {
        PrbpGame::io_cost(self)
    }
}
