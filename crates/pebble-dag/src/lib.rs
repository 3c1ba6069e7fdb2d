//! # pebble-dag
//!
//! Computational DAG substrate for red-blue pebble game analysis.
//!
//! A computation is modelled as a directed acyclic graph `G = (V, E)`: nodes
//! are operations, an edge `(u, v)` means the output of `u` is an input of `v`.
//! This crate provides:
//!
//! * [`Dag`] — an immutable, CSR-backed DAG with O(1) access to in/out
//!   neighbourhoods, built via [`DagBuilder`].
//! * [`BitSet`] — a compact fixed-capacity bit set used throughout the pebbling
//!   engines and the lower-bound tooling for node/edge sets.
//! * [`topo`] — topological orderings, level structure, ancestor/descendant
//!   closures.
//! * [`traversal`] — reachability and path queries.
//! * [`flow`] / [`dominators`] — Dinic max-flow and minimum vertex cuts, used
//!   to compute and verify (edge-)dominator sets.
//! * [`liveness`] — the [`liveness::NEVER`] next use of a dead value, shared
//!   by the Belady eviction of the heuristic schedulers.
//! * [`decompose`] — decomposition of a DAG into independently schedulable
//!   components (weak components, level bands, sink-cone tiles) with
//!   explicit boundary sets, the substrate of divide-and-conquer
//!   scheduling, plus series-parallel recognition.
//! * [`generators`] — every DAG family used in the paper: Figure 1 gadget and
//!   its chained version, zipper gadget, binary / k-ary trees, pyramid and
//!   pebble-collection gadgets, matrix–vector and matrix–matrix multiplication,
//!   the m-point FFT butterfly, the attention (Q·Kᵀ) DAG, the Lemma 5.4
//!   counterexample, and seeded random layered DAGs.
//! * [`canon`] — iso-invariant canonical hashing (Weisfeiler–Leman color
//!   refinement) and canonical node numbering, the substrate of the
//!   content-addressed schedule cache.
//! * [`export`] — DOT and JSON export for inspection and debugging.
//! * [`stats`] — degree statistics and structural summaries.

#![deny(missing_docs)]

pub mod bitset;
pub mod canon;
pub mod decompose;
pub mod dominators;
pub mod export;
pub mod flow;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod liveness;
pub mod stats;
pub mod topo;
pub mod traversal;

pub use bitset::BitSet;
pub use graph::{Dag, DagBuilder, DagError};
pub use ids::{EdgeId, NodeId};
