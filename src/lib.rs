//! # prbp — Partial-computing red-blue pebble game
//!
//! Facade crate re-exporting the full public API of the PRBP reproduction:
//!
//! * [`dag`] — computational DAG substrate and generators for every DAG family
//!   used in the paper (FFT butterflies, matrix multiplication, attention,
//!   trees, zipper / pebble-collection gadgets, hardness constructions, ...).
//! * [`game`] — the red-blue pebble game (RBP) and its partial-computing
//!   extension (PRBP): state machines, legality checking, traces, exact optimal
//!   solvers, constructive strategies and the model variants of Section 8.1.
//! * [`bounds`] — S-partitions, S-edge partitions and S-dominator partitions,
//!   trace-to-partition conversions and the analytic I/O lower bounds.
//! * [`hardness`] — the NP-hardness reduction constructions of Theorems 4.8
//!   and 7.1 together with brute-force independent-set oracles.
//! * [`sched`] — scalable heuristic schedulers (greedy with pluggable
//!   eviction policies, packed-state beam search, local-search refinement)
//!   that pebble DAGs far beyond exact reach and certify an optimality gap
//!   against the admissible lower bounds.
//! * [`io`] — DAG interchange (whitespace edge-list, DOT digraph subset,
//!   JSON node/edge document) with line-precise parse errors, so external
//!   workloads can be scheduled and certified; driven from the command line
//!   by the `prbp` binary (`prbp gen | schedule | bound | convert`).
//! * [`serve`] — certified scheduling as a service: an HTTP/JSON server
//!   over a content-addressed schedule cache (iso-invariant canonical DAG
//!   hash → certified schedule, re-validated through the simulator on every
//!   hit), driven by `prbp serve | warm | submit`. The operating notes live
//!   in [`ARCHITECTURE.md`](crate::architecture) and
//!   [`docs/API.md`](crate::http_api).
//! * [`obs`] — dependency-free observability: a process-global metrics
//!   registry (counters, gauges, log-bucketed histograms; rendered by
//!   `GET /metrics` in the Prometheus text format), a typed JSONL trace
//!   stream (`prbp schedule --trace`), and the trace analyzer behind
//!   `prbp trace`.
//!
//! ## Quickstart
//!
//! ```
//! use prbp::dag::generators::binary_tree;
//! use prbp::game::engine::{solve_prbp, solve_rbp, EngineConfig};
//! use prbp::game::exact::LoadCountHeuristic;
//! use prbp::game::{PrbpConfig, RbpConfig};
//!
//! // Depth-3 binary tree (8 leaves), cache size r = 3.
//! let dag = binary_tree(3);
//! let engine = EngineConfig::default();
//! let h = &LoadCountHeuristic;
//! let rbp = solve_rbp(&dag, RbpConfig::new(3), &engine, h, None, None).unwrap();
//! let prbp = solve_prbp(&dag, PrbpConfig::new(3), &engine, h, None, None).unwrap();
//! assert!(prbp.cost < rbp.cost); // Proposition 4.5
//! ```
//!
//! ## Exact optima vs validated strategies
//!
//! The Figure 1 DAG of the paper separates the two models at `r = 4`
//! (Proposition 4.2): the exact solvers find `OPT_RBP = 3` and
//! `OPT_PRBP = 2`, and the explicit Appendix A.1 strategies — replayed and
//! legality-checked move by move — attain exactly those optima:
//!
//! ```
//! use prbp::dag::generators::fig1_full;
//! use prbp::game::engine::{solve_prbp, solve_rbp, EngineConfig};
//! use prbp::game::exact::LoadCountHeuristic;
//! use prbp::game::prbp::PrbpConfig;
//! use prbp::game::rbp::RbpConfig;
//! use prbp::game::strategies::fig1;
//!
//! let f = fig1_full();
//! let engine = EngineConfig::default();
//! let h = &LoadCountHeuristic;
//! let rbp_opt = solve_rbp(&f.dag, RbpConfig::new(4), &engine, h, None, None)
//!     .unwrap()
//!     .cost;
//! let prbp_opt = solve_prbp(&f.dag, PrbpConfig::new(4), &engine, h, None, None)
//!     .unwrap()
//!     .cost;
//! assert_eq!((rbp_opt, prbp_opt), (3, 2));
//!
//! // The Appendix A.1 strategies match the exact optima.
//! let rbp_trace = fig1::rbp_optimal_trace(&f);
//! assert_eq!(rbp_trace.validate(&f.dag, RbpConfig::new(4)).unwrap(), rbp_opt);
//! let prbp_trace = fig1::prbp_optimal_trace(&f);
//! assert_eq!(prbp_trace.validate(&f.dag, PrbpConfig::new(4)).unwrap(), prbp_opt);
//! ```
//!
//! ## Closed-form costs on reduction trees
//!
//! On k-ary reduction trees with `r = k + 1` pebbles, the constructive
//! strategies achieve the closed forms of Section 4.2.2 / Appendix A.2
//! (PRBP computes the bottom `k + 1` levels for free, RBP only the bottom
//! two, so the gap grows with the depth):
//!
//! ```
//! use prbp::dag::generators::kary_tree;
//! use prbp::game::prbp::PrbpConfig;
//! use prbp::game::rbp::RbpConfig;
//! use prbp::game::strategies::tree;
//!
//! let (k, r) = (2, 3);
//! for depth in 1..=5 {
//!     let t = kary_tree(k, depth);
//!     let rbp = tree::rbp_tree(&t).validate(&t.dag, RbpConfig::new(r)).unwrap();
//!     assert_eq!(rbp, tree::rbp_tree_cost_formula(k, depth));
//!     let prbp = tree::prbp_tree(&t).validate(&t.dag, PrbpConfig::new(r)).unwrap();
//!     assert_eq!(prbp, tree::prbp_tree_cost_formula(k, depth));
//!     assert!(prbp <= rbp);
//! }
//! ```
//!
//! The stand-alone programs under `examples/` print these comparisons as
//! tables (`cargo run --example quickstart`, `--example tree_pebbling`, ...),
//! and the `exp_*` binaries of `pebble-experiments` reproduce the paper's
//! figures and tables end to end.

#![deny(missing_docs)]

pub use pebble_bounds as bounds;
pub use pebble_dag as dag;
pub use pebble_game as game;
pub use pebble_hardness as hardness;
pub use pebble_io as io;
pub use pebble_obs as obs;
pub use pebble_sched as sched;
pub use pebble_serve as serve;

// The operational documentation is compiled into the docs verbatim — and,
// crucially, its code blocks become doc-tests, so the walkthroughs in
// ARCHITECTURE.md and docs/API.md can never silently rot.

#[doc = include_str!("../ARCHITECTURE.md")]
pub mod architecture {}

#[doc = include_str!("../docs/API.md")]
pub mod http_api {}
