//! # pebble-sched
//!
//! Scalable heuristic scheduling for the red-blue pebble games, with
//! certified optimality gaps.
//!
//! The exact solvers of `pebble-game` prove optima on gadget-sized DAGs; this
//! crate schedules DAGs with 10⁴–10⁵ nodes — the scale at which the paper's
//! asymptotics (FFT `Θ(m·log m/log r)`, matmul `Θ(m₁m₂m₃/√r)`, attention
//! `Θ(m²d²/r)`) become visible — and certifies every result:
//!
//! * the **upper bound** is a full move trace replayed through the game
//!   simulators (never a formula);
//! * the **lower bound** is the best admissible bound from `pebble-bounds`
//!   (load-count, S-dominator, S-edge), so `cost / bound` is a proven
//!   optimality-gap certificate ([`report::ScheduleReport`]).
//!
//! ## Schedulers
//!
//! * [`greedy`] — process the nodes in a fixed topological order
//!   ([`order::natural`] or [`order::dfs_postorder`]), loading inputs on
//!   demand and evicting by Belady's furthest-in-future rule
//!   ([`policy::FurthestInFuture`]). `O((n + m) log r)`: the red nodes sit
//!   in one indexed eviction queue. PRBP greedy runs the edge loop of
//!   [`edges`] on the order's by-target edge sequence.
//! * [`beam`] — beam search over partial schedules, deduplicated by the
//!   packed-state encoding shared with the exact solvers
//!   ([`pebble_game::packed`]); width 1 is the adaptive greedy that picks the
//!   cheapest next node online. A level copies an `O(n)` entry per child,
//!   so a full solve is quadratic and compose runs it only on components of
//!   at most 512 nodes, where the portfolio sweep also stops a beam once it
//!   cannot beat the cheapest member before it.
//! * [`edges`] — the one PRBP greedy loop: partial computes scheduled one
//!   edge at a time, on a node order's by-target sequence or an explicit
//!   edge sequence, which makes streaming-accumulator (tiled matmul /
//!   attention) access patterns expressible generically.
//! * [`compose`] — structure-aware divide-and-conquer: decompose
//!   ([`pebble_dag::decompose`]), schedule each distinct component once
//!   (portfolio first, exact search below a node budget when the portfolio
//!   misses the bound, dispatched across scoped threads), stitch with
//!   boundary-aware eviction, and certify against the composable lower
//!   bounds of `pebble-bounds`. [`compose_certified`] runs it under an
//!   optional wall-clock deadline and certifies the result: the one solve
//!   behind `prbp schedule --deadline-ms` and `--scheduler compose`, cold
//!   `serve` requests and `prbp warm`.
//! * [`suite`] — the named schedulers the experiments and benchmarks sweep;
//!   [`default_suite`] is Belady greedy on the natural and the DFS order.

#![deny(missing_docs)]

pub mod beam;
pub mod compose;
pub mod edges;
mod eviction;
pub mod greedy;
#[cfg(test)]
mod heuristics;
mod obs;
pub mod order;
pub mod policy;
pub mod report;
pub mod suite;

pub use beam::{beam_prbp, BeamConfig};
pub use compose::{
    compose_certified, compose_certified_canonical, compose_prbp, par_map, Certified,
    ComposeConfig, ComposeError, ComposeOutcome,
};
pub use edges::{cone_affinity_edges, greedy_prbp_edges};
pub use greedy::{greedy_prbp, greedy_prbp_into, greedy_rbp, greedy_rbp_into};
pub use policy::{Candidate, EvictionKey, FurthestInFuture};
pub use report::{
    certify_greedy_prbp, certify_greedy_rbp, certify_prbp_with, certify_prbp_with_bounds,
    certify_rbp_with, prbp_bound_ladder, rbp_bound_ladder, BoundSet, BoundValue, ScheduleReport,
};
pub use suite::{best_prbp, default_suite, OrderKind, Scheduler};
