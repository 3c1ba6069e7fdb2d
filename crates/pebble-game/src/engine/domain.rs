//! The two search domains (RBP and PRBP) behind one engine.
//!
//! A [`Domain`] packages everything the search loops need to know about a
//! game model: the packed start state, the goal test, successor generation
//! (the move rules of the model), heuristic evaluation through the
//! [`LowerBound`] views, and simulator validation of reconstructed move
//! sequences. The successor *emission order* is part of the contract: the
//! sequential loop inherits the exact interning order of the legacy solvers,
//! which keeps `SearchStats.distinct` and every tie-break reproducible.

use crate::exact::heuristic::{LowerBound, PrbpStateView, RbpStateView};
use crate::moves::{PrbpMove, RbpMove};
use crate::packed::{clear, get, plane_words, popcount, set};
use crate::prbp::PrbpConfig;
use crate::rbp::RbpConfig;
use crate::trace::{validate_prbp_moves, validate_rbp_moves, PrbpTrace, RbpTrace};
use pebble_dag::{Dag, NodeId};

/// The successor sink passed to [`Domain::expand`]: receives
/// `(successor_words, move, io_cost)`; returning `false` aborts the
/// expansion.
pub(crate) type EmitFn<'a, M> = dyn FnMut(&[u64], M, usize) -> bool + 'a;

/// One game model, seen through the eyes of the search engine.
pub(crate) trait Domain {
    /// The move type of the model.
    type Move: Copy;
    /// The trace type the engine hands back to callers.
    type Trace;

    /// The packed start state.
    fn start_words(&self) -> Vec<u64>;
    /// Whether any pebbling exists at all for this cache size.
    fn feasible(&self) -> bool;
    /// Is `words` a terminal (fully pebbled) configuration?
    fn is_goal(&self, words: &[u64]) -> bool;
    /// Admissible lower bound on the remaining I/O from `words`.
    fn h(&self, heuristic: &dyn LowerBound, words: &[u64]) -> usize;
    /// Generate every legal successor of `cur`, calling
    /// `emit(successor_words, move, io_cost)` for each in the model's
    /// canonical order. `emit` returning `false` aborts the expansion (used
    /// to honour a deadline inside one large expansion); the
    /// function returns `false` iff it was aborted.
    fn expand(&self, cur: &[u64], scratch: &mut [u64], emit: &mut EmitFn<'_, Self::Move>) -> bool;
    /// Wrap reconstructed moves into the model's trace type.
    fn make_trace(&self, moves: Vec<Self::Move>) -> Self::Trace;
    /// Replay `moves` through the game simulator; `Some(cost)` iff legal and
    /// terminal.
    fn validate_moves(&self, moves: &[Self::Move]) -> Option<usize>;
}

/// The packed RBP start state: blue pebbles on all sources, nothing else.
/// Layout: `[red | blue | computed]`.
pub(crate) fn rbp_start_words(dag: &Dag) -> Vec<u64> {
    let w = plane_words(dag.node_count());
    let mut words = vec![0u64; 3 * w];
    for v in dag.nodes() {
        if dag.is_source(v) {
            set(&mut words[w..2 * w], v.index());
        }
    }
    words
}

/// The packed PRBP start state: blue pebbles on all sources, all edges
/// unmarked. Layout: `[red | blue | marked]`.
pub(crate) fn prbp_start_words(dag: &Dag) -> Vec<u64> {
    let wn = plane_words(dag.node_count());
    let wm = plane_words(dag.edge_count());
    let mut words = vec![0u64; 2 * wn + wm];
    for v in dag.nodes() {
        if dag.is_source(v) {
            set(&mut words[wn..2 * wn], v.index());
        }
    }
    words
}

/// The one-shot red-blue pebble game as a search domain.
pub(crate) struct RbpDomain<'a> {
    dag: &'a Dag,
    config: RbpConfig,
    n: usize,
    /// Words per plane.
    w: usize,
    sinks: Vec<NodeId>,
}

impl<'a> RbpDomain<'a> {
    pub fn new(dag: &'a Dag, config: RbpConfig) -> Self {
        RbpDomain {
            dag,
            config,
            n: dag.node_count(),
            w: plane_words(dag.node_count()),
            sinks: dag.sinks(),
        }
    }
}

impl Domain for RbpDomain<'_> {
    type Move = RbpMove;
    type Trace = RbpTrace;

    fn start_words(&self) -> Vec<u64> {
        rbp_start_words(self.dag)
    }

    fn feasible(&self) -> bool {
        // Computing a node of in-degree d needs d+1 simultaneous red pebbles
        // (d with sliding, which reuses one of the input slots).
        let needed = self.dag.max_in_degree() + usize::from(!self.config.allow_sliding);
        self.config.r >= needed
    }

    fn is_goal(&self, words: &[u64]) -> bool {
        let w = self.w;
        self.sinks.iter().all(|t| get(&words[w..2 * w], t.index()))
    }

    fn h(&self, heuristic: &dyn LowerBound, words: &[u64]) -> usize {
        heuristic.rbp_bound(self.dag, self.config, &RbpStateView::new(words, self.n))
    }

    fn expand(&self, cur: &[u64], scratch: &mut [u64], emit: &mut EmitFn<'_, RbpMove>) -> bool {
        let (dag, config, w) = (self.dag, self.config, self.w);
        let red = |words: &[u64], i: usize| get(&words[..w], i);
        let blue = |words: &[u64], i: usize| get(&words[w..2 * w], i);
        let computed = |words: &[u64], i: usize| get(&words[2 * w..], i);
        let red_count = popcount(&cur[..w]);

        for v in dag.nodes() {
            let vi = v.index();
            let v_red = red(cur, vi);
            let v_blue = blue(cur, vi);
            // Load.
            if v_blue && !v_red && red_count < config.r {
                scratch.copy_from_slice(cur);
                set(&mut scratch[..w], vi);
                if !emit(scratch, RbpMove::Load(v), 1) {
                    return false;
                }
            }
            // Save.
            if v_red && !v_blue {
                scratch.copy_from_slice(cur);
                set(&mut scratch[w..2 * w], vi);
                if !emit(scratch, RbpMove::Save(v), 1) {
                    return false;
                }
            }
            // Compute (and slides).
            if !dag.is_source(v)
                && (config.allow_recompute || !computed(cur, vi))
                && dag.predecessors(v).all(|u| red(cur, u.index()))
            {
                if v_red || red_count < config.r {
                    scratch.copy_from_slice(cur);
                    set(&mut scratch[..w], vi);
                    set(&mut scratch[2 * w..], vi);
                    if !emit(scratch, RbpMove::Compute(v), 0) {
                        return false;
                    }
                }
                if config.allow_sliding {
                    for &(u, _) in dag.in_edges(v) {
                        scratch.copy_from_slice(cur);
                        clear(&mut scratch[..w], u.index());
                        set(&mut scratch[..w], vi);
                        set(&mut scratch[2 * w..], vi);
                        if !emit(scratch, RbpMove::ComputeSlide { node: v, from: u }, 0) {
                            return false;
                        }
                    }
                }
            }
            // Delete. Without re-computation, deleting the only copy of a
            // value that is still needed leads to a dead state, so we prune
            // those deletions (this preserves optimality).
            if !config.no_delete && v_red {
                let safe = config.allow_recompute
                    || v_blue
                    || dag.successors(v).all(|s| computed(cur, s.index()));
                if safe {
                    scratch.copy_from_slice(cur);
                    clear(&mut scratch[..w], vi);
                    if !emit(scratch, RbpMove::Delete(v), 0) {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn make_trace(&self, moves: Vec<RbpMove>) -> RbpTrace {
        RbpTrace::from_moves(moves)
    }

    fn validate_moves(&self, moves: &[RbpMove]) -> Option<usize> {
        validate_rbp_moves(self.dag, self.config, moves.iter().copied()).ok()
    }
}

/// The partial-computing red-blue pebble game as a search domain.
pub(crate) struct PrbpDomain<'a> {
    dag: &'a Dag,
    config: PrbpConfig,
    n: usize,
    m: usize,
    /// Words per node plane.
    wn: usize,
    sinks: Vec<NodeId>,
}

impl<'a> PrbpDomain<'a> {
    pub fn new(dag: &'a Dag, config: PrbpConfig) -> Self {
        PrbpDomain {
            dag,
            config,
            n: dag.node_count(),
            m: dag.edge_count(),
            wn: plane_words(dag.node_count()),
            sinks: dag.sinks(),
        }
    }
}

impl Domain for PrbpDomain<'_> {
    type Move = PrbpMove;
    type Trace = PrbpTrace;

    fn start_words(&self) -> Vec<u64> {
        prbp_start_words(self.dag)
    }

    fn feasible(&self) -> bool {
        // PRBP can pebble any DAG (without isolated nodes) with two red
        // pebbles, but never with fewer.
        self.config.r >= 2
    }

    fn is_goal(&self, words: &[u64]) -> bool {
        let wn = self.wn;
        popcount(&words[2 * wn..]) == self.m
            && self
                .sinks
                .iter()
                .all(|t| get(&words[wn..2 * wn], t.index()))
    }

    fn h(&self, heuristic: &dyn LowerBound, words: &[u64]) -> usize {
        heuristic.prbp_bound(
            self.dag,
            self.config,
            &PrbpStateView::new(words, self.n, self.m),
        )
    }

    fn expand(&self, cur: &[u64], scratch: &mut [u64], emit: &mut EmitFn<'_, PrbpMove>) -> bool {
        let (dag, config, wn) = (self.dag, self.config, self.wn);
        let red = |words: &[u64], i: usize| get(&words[..wn], i);
        let blue = |words: &[u64], i: usize| get(&words[wn..2 * wn], i);
        let marked = |words: &[u64], i: usize| get(&words[2 * wn..], i);
        let red_count = popcount(&cur[..wn]);
        let fully_computed =
            |v: NodeId| dag.in_edges(v).iter().all(|&(_, e)| marked(cur, e.index()));
        let all_out_marked = |v: NodeId| {
            dag.out_edges(v)
                .iter()
                .all(|&(_, e)| marked(cur, e.index()))
        };

        for v in dag.nodes() {
            let vi = v.index();
            match (red(cur, vi), blue(cur, vi)) {
                // Blue only.
                (false, true) => {
                    if red_count < config.r {
                        scratch.copy_from_slice(cur);
                        set(&mut scratch[..wn], vi);
                        if !emit(scratch, PrbpMove::Load(v), 1) {
                            return false;
                        }
                    }
                }
                // Blue and light red.
                (true, true) => {
                    scratch.copy_from_slice(cur);
                    clear(&mut scratch[..wn], vi);
                    if !emit(scratch, PrbpMove::Delete(v), 0) {
                        return false;
                    }
                }
                // Dark red.
                (true, false) => {
                    scratch.copy_from_slice(cur);
                    set(&mut scratch[wn..2 * wn], vi);
                    if !emit(scratch, PrbpMove::Save(v), 1) {
                        return false;
                    }
                    if !config.no_delete && !dag.is_sink(v) && all_out_marked(v) {
                        scratch.copy_from_slice(cur);
                        clear(&mut scratch[..wn], vi);
                        if !emit(scratch, PrbpMove::Delete(v), 0) {
                            return false;
                        }
                    }
                }
                // Empty.
                (false, false) => {}
            }
        }

        // Partial compute steps over all unmarked edges.
        for e in dag.edges() {
            if marked(cur, e.index()) {
                continue;
            }
            let (u, v) = dag.edge_endpoints(e);
            if !red(cur, u.index()) || !fully_computed(u) {
                continue;
            }
            match (red(cur, v.index()), blue(cur, v.index())) {
                // Blue only: the partial value would be lost.
                (false, true) => continue,
                // Empty: needs a fresh red pebble.
                (false, false) if red_count >= config.r => continue,
                _ => {}
            }
            scratch.copy_from_slice(cur);
            set(&mut scratch[..wn], v.index());
            clear(&mut scratch[wn..2 * wn], v.index());
            set(&mut scratch[2 * wn..], e.index());
            if !emit(scratch, PrbpMove::PartialCompute { from: u, to: v }, 0) {
                return false;
            }
        }
        true
    }

    fn make_trace(&self, moves: Vec<PrbpMove>) -> PrbpTrace {
        PrbpTrace::from_moves(moves)
    }

    fn validate_moves(&self, moves: &[PrbpMove]) -> Option<usize> {
        validate_prbp_moves(self.dag, self.config, moves.iter().copied()).ok()
    }
}
