//! Liveness vocabulary shared by the schedulers.
//!
//! The heuristic schedulers in `pebble-sched` process a DAG along a *compute
//! order* (a topological order of the nodes) and evict by Belady's rule: the
//! value whose next use in that order lies furthest ahead goes first. A
//! value with no remaining consumer has next use [`NEVER`].

/// Position in a compute order that is later than every real position; used
/// as the next-use value of dead nodes (no remaining consumer).
pub const NEVER: usize = usize::MAX;
