//! # pebble-game
//!
//! The red-blue pebble game (RBP) of Hong and Kung and its partial-computing
//! extension (PRBP) from *"The Impact of Partial Computations on the Red-Blue
//! Pebble Game"* (SPAA 2025).
//!
//! ## Models
//!
//! * **RBP** ([`rbp`]): red pebbles are values in fast memory (capacity `r`),
//!   blue pebbles are values in slow memory. A node is computed in one shot
//!   once all of its inputs hold red pebbles. Cost = number of load + save
//!   operations.
//! * **PRBP** ([`prbp`]): inputs are aggregated *one edge at a time* into the
//!   target value. Red pebbles come in two flavours — *light red* (value also
//!   up to date in slow memory) and *dark red* (value only in fast memory) —
//!   and incoming edges are *marked* as they are aggregated. Any RBP pebbling
//!   converts into a PRBP pebbling of the same cost ([`convert`],
//!   Proposition 4.1), and PRBP can pebble any DAG with as few as `r = 2` red
//!   pebbles.
//!
//! Both simulators validate every move against the transition rules of the
//! paper and enforce the one-shot restriction; model variants (sliding
//! pebbles, re-computation / the `clear` rule, compute costs, no-deletion —
//! Section 8.1 and Appendix B) are available through the configuration
//! structs and the [`variants`] module.
//!
//! ## Tooling
//!
//! * [`engine`] — the unified anytime search engine: deadline-bounded
//!   sequential A* and beam search that return a validated incumbent.
//!   `engine::solve_rbp` / `engine::solve_prbp` are the exact solvers used
//!   to reproduce the paper's propositions.
//! * [`exact`] — what those solves share: the admissible A* heuristics,
//!   search statistics, errors and initial-state bounds.
//! * [`strategies`] — constructive pebbling strategies for every structured
//!   DAG in the paper (matvec, trees, zipper, pebble collection, chained
//!   gadgets, FFT, matmul, attention) plus generic topological strategies.
//! * [`trace`] — recorded pebblings that can be replayed, validated, printed
//!   and serialised.
//! * [`builder`] — trace builders that validate every move against a live
//!   simulator at construction time (used by the `pebble-sched` schedulers).
//! * [`sink`] — the [`sink::MoveSink`] visitor trait fed by the builders, so
//!   long pebblings can be counted, validated or written out without ever
//!   materialising a move vector.
//! * [`packed`] — the canonical packed bit-plane state encoding shared by the
//!   exact solvers and the heuristic beam search.

#![deny(missing_docs)]

pub mod builder;
pub mod convert;
pub mod cost;
pub mod engine;
pub mod exact;
pub mod moves;
pub mod packed;
pub mod prbp;
pub mod rbp;
pub mod sink;
pub mod strategies;
pub mod trace;
pub mod variants;

pub use builder::{PrbpBuilder, RbpBuilder};
pub use cost::CostModel;
pub use moves::{Model, PrbpMove, RbpMove};
pub use prbp::{PebbleState, PrbpConfig, PrbpError, PrbpGame};
pub use rbp::{RbpConfig, RbpError, RbpGame};
pub use sink::{CountingSink, DiscardSink, MoveSink};
pub use trace::{validate_prbp_moves, validate_rbp_moves, PrbpTrace, RbpTrace};
