//! Beam search over partial PRBP schedules — thin wrapper over the unified
//! anytime engine.
//!
//! The search itself (macro-step node completions, packed-state dedup, the
//! move-chain sharing and the eviction policy) lives in
//! `pebble_game::engine`; this module keeps the historical `beam_prbp` entry
//! point and its [`BeamConfig`] knobs. A partial schedule is identified with
//! its pebbling configuration in the canonical packed encoding of
//! [`pebble_game::packed`] (the same `[red | blue | marked]` bit planes the
//! exact A* solver interns), so two beam entries that reach the same
//! configuration are merged and only the cheaper survives — a beam-limited
//! version of the solver's transposition table.
//!
//! Width 1 degenerates to an *adaptive* greedy scheduler that picks the
//! globally cheapest next node online, which helps where a fixed compute
//! order wastes locality; larger widths buy schedule quality for more time
//! and memory. The search is superlinear, so neither width is a
//! [`crate::default_suite`] member: compose runs `beam:1` and `beam:8` on
//! its components of at most 512 nodes, where dropping either one raised
//! some compose costs. Callers that want deadlines or cancellation
//! configure the same search through [`pebble_game::engine::solve_prbp`]
//! with `EngineConfig::width`.

use pebble_dag::Dag;
use pebble_game::engine::{solve_prbp, EngineConfig};
use pebble_game::exact::LoadCountHeuristic;
use pebble_game::prbp::PrbpConfig;
use pebble_game::trace::PrbpTrace;
use std::time::Instant;

/// Search parameters for [`beam_prbp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BeamConfig {
    /// Number of partial schedules kept per level (≥ 1).
    pub width: usize,
    /// Candidate next-nodes proposed per beam entry per level (≥ 1).
    pub branch: usize,
}

impl Default for BeamConfig {
    fn default() -> Self {
        BeamConfig {
            width: 8,
            branch: 4,
        }
    }
}

impl BeamConfig {
    /// Width-1 beam: the adaptive greedy scheduler.
    pub fn adaptive() -> Self {
        BeamConfig {
            width: 1,
            branch: 1,
        }
    }
}

/// Beam-search PRBP scheduler. Works for any `r ≥ 2`; returns `None` below
/// that. Deterministic: all ranking ties are broken by node id and beam
/// insertion order.
pub fn beam_prbp(dag: &Dag, r: usize, cfg: BeamConfig) -> Option<PrbpTrace> {
    beam_prbp_until(dag, r, cfg, None)
}

/// [`beam_prbp`] stopped at `deadline`: a cut beam greedy-completes its
/// best partial schedule.
pub(crate) fn beam_prbp_until(
    dag: &Dag,
    r: usize,
    cfg: BeamConfig,
    deadline: Option<Instant>,
) -> Option<PrbpTrace> {
    if r < 2 {
        return None;
    }
    let engine = EngineConfig {
        width: Some(cfg.width.max(1)),
        branch: cfg.branch.max(1),
        deadline: deadline.map(|at| at.saturating_duration_since(Instant::now())),
        ..EngineConfig::default()
    };
    solve_prbp(dag, PrbpConfig::new(r), &engine, &LoadCountHeuristic, None)
        .ok()
        .map(|out| out.trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pebble_dag::generators::{binary_tree, fft, fig1_full, matmul};
    use pebble_game::prbp::PrbpConfig;

    fn validated(dag: &Dag, r: usize, cfg: BeamConfig) -> usize {
        let trace = beam_prbp(dag, r, cfg).expect("schedulable");
        trace
            .validate(dag, PrbpConfig::new(r))
            .expect("valid trace")
    }

    #[test]
    fn beam_schedules_structured_dags_validly() {
        for dag in [fig1_full().dag, binary_tree(4), fft(16).dag] {
            for cfg in [BeamConfig::adaptive(), BeamConfig::default()] {
                let cost = validated(&dag, 4, cfg);
                assert!(cost >= dag.trivial_cost());
            }
        }
    }

    #[test]
    fn beam_works_at_minimum_cache() {
        let dag = fig1_full().dag;
        assert!(beam_prbp(&dag, 1, BeamConfig::default()).is_none());
        let cost = validated(&dag, 2, BeamConfig::default());
        assert!(cost >= dag.trivial_cost());
    }

    #[test]
    fn wider_beam_never_loses_to_adaptive_on_small_dags() {
        for dag in [fig1_full().dag, matmul(2, 2, 2).dag, fft(8).dag] {
            let narrow = validated(&dag, 3, BeamConfig::adaptive());
            let wide = validated(
                &dag,
                3,
                BeamConfig {
                    width: 16,
                    branch: 8,
                },
            );
            assert!(wide <= narrow, "wide {wide} > narrow {narrow}");
        }
    }

    #[test]
    fn ample_cache_reaches_trivial_cost() {
        let dag = binary_tree(3);
        assert_eq!(
            validated(&dag, 64, BeamConfig::adaptive()),
            dag.trivial_cost()
        );
    }

    #[test]
    fn beam_is_deterministic() {
        let dag = fft(16).dag;
        let a = beam_prbp(&dag, 6, BeamConfig::default()).unwrap();
        let b = beam_prbp(&dag, 6, BeamConfig::default()).unwrap();
        assert_eq!(a, b);
    }
}
