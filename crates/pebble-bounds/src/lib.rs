//! # pebble-bounds
//!
//! The lower-bound machinery of the paper:
//!
//! * [`terminal`] — terminal sets (Definition 5.2) and edge-terminal sets
//!   (Definition 6.2).
//! * [`s_partition`] — Hong–Kung S-partitions (Definition 5.3) and
//!   S-dominator partitions (Definition 6.6) over the nodes of a DAG.
//! * [`s_edge_partition`] — S-edge partitions (Definition 6.3) over the edges
//!   of a DAG.
//! * [`from_pebbling`] — conversion of validated pebbling traces into the
//!   corresponding partitions: Hong–Kung for RBP, Lemma 6.4 (edge partition)
//!   and Lemma 6.8 (dominator partition) for PRBP, together with the
//!   `OPT ≥ r·(MIN(2r) − 1)` bounds (Theorems 6.5 and 6.7).
//! * [`compose`] — the composable lower bound: per-component load-count
//!   bounds summed with boundary-credit corrections, admissible for *any*
//!   node partition. It reduces to a linear count of each part's sources
//!   and sinks, so it never exceeds the whole DAG's load-count; it is the
//!   certification counterpart of decomposition-based scheduling.
//! * [`counterexample`] — the Lemma 5.4 analysis showing that the classic
//!   S-partition bound fails for PRBP.
//! * [`analytic`] — closed-form lower bounds for FFT (Theorem 6.9), matrix
//!   multiplication (Theorem 6.10) and attention (Theorem 6.11).
//!
//! The Section 6 bounds are not used as A* heuristics or as certification
//! bounds on a whole DAG: at a DAG's initial state their phase term
//! `r·(⌈x/2r⌉ − 1)` stays below `x/2 ≤ max(#sources, #sinks)`, so it never
//! exceeds the load-count bound of `pebble_game::exact`.

#![deny(missing_docs)]

pub mod analytic;
pub mod compose;
pub mod counterexample;
pub mod from_pebbling;
pub mod s_edge_partition;
pub mod s_partition;
pub mod terminal;

pub use compose::{composed_prbp_bound, ComposedBound};
pub use s_edge_partition::SEdgePartition;
pub use s_partition::{SDominatorPartition, SPartition};
