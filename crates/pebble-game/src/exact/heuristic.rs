//! Pluggable admissible lower-bound heuristics for the exact A* solvers.
//!
//! The solvers in [`crate::exact`] run A* over pebbling configurations. Any
//! type implementing [`LowerBound`] can guide that search; the contract is
//! *admissibility* — the returned value must never exceed the true optimal
//! I/O cost of finishing the pebbling from the given state. Admissible
//! heuristics never change the optimum the search returns, only (often
//! dramatically) how many states it expands to find it.
//!
//! Two baseline implementations live here, because they need nothing beyond
//! the DAG itself:
//!
//! * [`ZeroHeuristic`] — the constant 0. Turns A* back into uniform-cost
//!   (Dijkstra) search; the reference point for expansion counts.
//! * [`LoadCountHeuristic`] — counts values that provably still require a
//!   load plus sinks that still require a save. Cheap, admissible in every
//!   model variant, and the heuristic every exact solve in the workspace
//!   runs with.
//!
//! Both are stateless, so one instance is shared by every worker of a
//! parallel solve (hence the `Sync` supertrait of [`LowerBound`]).

use crate::prbp::{PebbleState, PrbpConfig};
use crate::rbp::RbpConfig;
use pebble_dag::{Dag, EdgeId, NodeId};

/// Read-only view of an RBP search state in the solver's canonical packed
/// encoding: three bit planes (red, blue, computed) over the nodes.
#[derive(Clone, Copy)]
pub struct RbpStateView<'a> {
    words: &'a [u64],
    n: usize,
    /// Words per plane.
    w: usize,
}

#[inline]
fn plane_get(words: &[u64], plane: usize, w: usize, i: usize) -> bool {
    crate::packed::get(&words[plane * w..(plane + 1) * w], i)
}

impl<'a> RbpStateView<'a> {
    pub(crate) fn new(words: &'a [u64], n: usize) -> Self {
        let w = crate::packed::plane_words(n);
        debug_assert_eq!(words.len(), 3 * w);
        RbpStateView { words, n, w }
    }

    /// Number of nodes of the underlying DAG.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Does `v` hold a red pebble (value in fast memory)?
    #[inline]
    pub fn is_red(&self, v: NodeId) -> bool {
        plane_get(self.words, 0, self.w, v.index())
    }

    /// Does `v` hold a blue pebble (value in slow memory)?
    #[inline]
    pub fn is_blue(&self, v: NodeId) -> bool {
        plane_get(self.words, 1, self.w, v.index())
    }

    /// Has `v` been computed already (one-shot bookkeeping)?
    #[inline]
    pub fn is_computed(&self, v: NodeId) -> bool {
        plane_get(self.words, 2, self.w, v.index())
    }

    /// Number of red pebbles currently placed.
    pub fn red_count(&self) -> usize {
        self.words[..self.w]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

/// Read-only view of a PRBP search state in the solver's canonical packed
/// encoding: two bit planes over the nodes (has-red, has-blue — together they
/// encode the four [`PebbleState`]s) plus one plane over the edges (marked).
#[derive(Clone, Copy)]
pub struct PrbpStateView<'a> {
    words: &'a [u64],
    n: usize,
    m: usize,
    /// Words per node plane.
    wn: usize,
}

impl<'a> PrbpStateView<'a> {
    pub(crate) fn new(words: &'a [u64], n: usize, m: usize) -> Self {
        let wn = crate::packed::plane_words(n);
        debug_assert_eq!(words.len(), 2 * wn + crate::packed::plane_words(m));
        PrbpStateView { words, n, m, wn }
    }

    /// Number of nodes of the underlying DAG.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges of the underlying DAG.
    pub fn edge_count(&self) -> usize {
        self.m
    }

    /// Does `v` hold a (light or dark) red pebble?
    #[inline]
    pub fn has_red(&self, v: NodeId) -> bool {
        plane_get(self.words, 0, self.wn, v.index())
    }

    /// Does `v` hold a blue pebble?
    #[inline]
    pub fn has_blue(&self, v: NodeId) -> bool {
        plane_get(self.words, 1, self.wn, v.index())
    }

    /// The full pebble state of `v`.
    pub fn pebble(&self, v: NodeId) -> PebbleState {
        match (self.has_red(v), self.has_blue(v)) {
            (false, false) => PebbleState::Empty,
            (false, true) => PebbleState::Blue,
            (true, true) => PebbleState::BlueAndLightRed,
            (true, false) => PebbleState::DarkRed,
        }
    }

    /// Has edge `e` been marked (aggregated) already?
    #[inline]
    pub fn is_marked(&self, e: EdgeId) -> bool {
        let i = e.index();
        self.words[2 * self.wn + i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of marked edges.
    pub fn marked_count(&self) -> usize {
        self.words[2 * self.wn..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Number of red pebbles currently placed.
    pub fn red_count(&self) -> usize {
        self.words[..self.wn]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

/// An admissible lower bound on the remaining I/O cost of a pebbling state,
/// used as the A* heuristic by the exact solvers.
///
/// # Contract
///
/// For every reachable state `σ`, the returned value must satisfy
/// `bound(σ) ≤ OPT(σ)`, where `OPT(σ)` is the cheapest I/O cost of any
/// move sequence completing the pebbling from `σ` under the given
/// configuration (including its model variants — sliding, re-computation,
/// `clear`, no-deletion). Overestimating can make the search return a
/// non-optimal cost. Implementations may be arbitrarily weak (0 is always
/// sound) and should degrade to weaker-but-sound bounds for variants whose
/// stronger argument does not apply.
///
/// A parallel solve shares one instance across its worker threads, so
/// implementations must be `Sync`.
pub trait LowerBound: Sync {
    /// Short stable identifier used in benchmark output (e.g. `"load-count"`).
    fn name(&self) -> &'static str;

    /// Lower bound on the remaining I/O cost of an RBP state.
    fn rbp_bound(&self, dag: &Dag, config: RbpConfig, state: &RbpStateView<'_>) -> usize;

    /// Lower bound on the remaining I/O cost of a PRBP state.
    fn prbp_bound(&self, dag: &Dag, config: PrbpConfig, state: &PrbpStateView<'_>) -> usize;
}

/// The constant-zero heuristic: A* degenerates to uniform-cost (Dijkstra)
/// search. This is the pre-heuristic behaviour of the solvers and the
/// baseline all other heuristics are measured against.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroHeuristic;

impl LowerBound for ZeroHeuristic {
    fn name(&self) -> &'static str {
        "zero"
    }

    fn rbp_bound(&self, _dag: &Dag, _config: RbpConfig, _state: &RbpStateView<'_>) -> usize {
        0
    }

    fn prbp_bound(&self, _dag: &Dag, _config: PrbpConfig, _state: &PrbpStateView<'_>) -> usize {
        0
    }
}

/// The load/save-count heuristic.
///
/// A value must be loaded again if it is not in fast memory, is still needed
/// (some successor uncomputed / some out-edge unmarked), and cannot be
/// re-derived by computation: sources can never be computed, and one-shot
/// non-sources that are already (fully) computed can only return to fast
/// memory via a load. Every sink without a blue pebble still needs a save.
/// Each counted node demands a *distinct* future load or save, so the sum is
/// admissible; the re-computation (`clear`) variants disable the
/// computed-node term, which keeps the bound sound there too.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadCountHeuristic;

impl LowerBound for LoadCountHeuristic {
    fn name(&self) -> &'static str {
        "load-count"
    }

    fn rbp_bound(&self, dag: &Dag, config: RbpConfig, state: &RbpStateView<'_>) -> usize {
        let mut h = 0;
        for v in dag.nodes() {
            if dag.is_sink(v) {
                if !state.is_blue(v) {
                    // Saves are only mandatory for sinks.
                    h += 1;
                }
                continue;
            }
            if state.is_red(v) {
                continue;
            }
            let needed = dag.successors(v).any(|w| !state.is_computed(w));
            if needed && (dag.is_source(v) || (state.is_computed(v) && !config.allow_recompute)) {
                h += 1;
            }
        }
        h
    }

    fn prbp_bound(&self, dag: &Dag, config: PrbpConfig, state: &PrbpStateView<'_>) -> usize {
        let mut h = 0;
        for v in dag.nodes() {
            if dag.is_sink(v) {
                if !state.has_blue(v) {
                    h += 1;
                }
                continue;
            }
            if state.has_red(v) {
                continue;
            }
            let needed = dag.out_edges(v).iter().any(|&(_, e)| !state.is_marked(e));
            if !needed {
                continue;
            }
            let fully_computed = dag.in_edges(v).iter().all(|&(_, e)| state.is_marked(e));
            if dag.is_source(v) || (fully_computed && !config.allow_clear) {
                h += 1;
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{self, prbp_opt, rbp_opt};
    use pebble_dag::generators::fig1_full;

    #[test]
    fn zero_is_zero_everywhere() {
        let f = fig1_full();
        assert_eq!(
            exact::rbp_initial_bound(&f.dag, RbpConfig::new(4), &ZeroHeuristic),
            0
        );
        assert_eq!(
            exact::prbp_initial_bound(&f.dag, PrbpConfig::new(4), &ZeroHeuristic),
            0
        );
    }

    #[test]
    fn load_count_is_admissible_on_fig1() {
        let f = fig1_full();
        let h_rbp = exact::rbp_initial_bound(&f.dag, RbpConfig::new(4), &LoadCountHeuristic);
        let opt_rbp = rbp_opt(&f.dag, RbpConfig::new(4)).unwrap();
        assert!(h_rbp <= opt_rbp, "{h_rbp} > {opt_rbp}");

        let h_prbp = exact::prbp_initial_bound(&f.dag, PrbpConfig::new(4), &LoadCountHeuristic);
        let opt_prbp = prbp_opt(&f.dag, PrbpConfig::new(4)).unwrap();
        assert!(h_prbp <= opt_prbp, "{h_prbp} > {opt_prbp}");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ZeroHeuristic.name(), "zero");
        assert_eq!(LoadCountHeuristic.name(), "load-count");
    }
}
