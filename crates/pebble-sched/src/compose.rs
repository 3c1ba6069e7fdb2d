//! Structure-aware divide-and-conquer scheduling: decompose, schedule each
//! component independently (exact below a node budget, heuristic above),
//! stitch the per-component traces into one simulator-valid schedule.
//!
//! ## Pipeline
//!
//! 1. **Decompose** ([`pebble_dag::decompose`]): candidate decompositions
//!    are tried in turn — the whole DAG, its weakly connected components,
//!    then sink-cone tiles (where applicable) and level bands at a few size
//!    caps. With one thread, or on a DAG of at most 512 nodes, each is built
//!    only when its turn comes. Above that size, with
//!    [`ComposeConfig::threads`] above 1, the other candidates are built
//!    while the whole DAG is scheduled (step 2), and a built candidate that
//!    does not split the DAG is dropped at once.
//! 2. **Prune, then schedule.** The whole-DAG candidate is scheduled first,
//!    on the DAG itself, without a copy. Above 512 nodes, with threads to
//!    spare, its portfolio members and the other candidates' builds are the
//!    items of one [`par_map`], and the members' results are swept in suite
//!    order afterwards, so the schedule is the one a sequential sweep
//!    returns. The other candidates follow in order. A candidate is skipped
//!    before extraction, and dropped,
//!    when none of its components is boundary-free and a linear count
//!    (`stitch_lower_bound`: the loads and saves every stitch of it must
//!    make) reaches the incumbent's cost: it could not be strictly cheaper.
//!    Its composable bound is still evaluated. Otherwise each component is
//!    scheduled on its extracted sub-DAG (members + boundary inputs), and
//!    the components are dispatched across scoped worker threads.
//!    Each distinct sub-DAG is scheduled once per call: identical components
//!    (the blocks of a blocked FFT, the tiles of a matmul) reuse its
//!    schedule. The memo is keyed by the sub-DAG's edge list in its local
//!    ids first; on a miss, by its node count and sorted canonical edge
//!    list ([`pebble_dag::canon`]), which are equal only for isomorphic
//!    sub-DAGs, so a differently numbered copy reuses the schedule mapped
//!    through the isomorphism, and its exact optimum. Canonicalization is
//!    paid only for local keys not seen before. The heuristic portfolio
//!    runs first (the greedy members,
//!    plus the beams on components of at most 512 nodes, each stopped once
//!    it cannot beat the members before it), then the
//!    shared-input-affinity edge schedule ([`crate::edges`]) on cone-shaped
//!    components; a schedule meeting the load-count bound is optimal and
//!    ends the work. Otherwise components within
//!    [`EXACT_BUDGET`] nodes go to the exact engine, seeded
//!    with the portfolio's schedule.
//! 3. **Stitch**: replay each component's moves against the full-DAG
//!    simulator in quotient-topological order. Boundary-aware
//!    eviction keeps the stitched trace valid: a deletion whose value still
//!    has unmarked cross edges is upgraded to save-then-delete, and the
//!    cache is flushed between components so every component starts from
//!    the empty fast memory its sub-schedule assumed. The whole-DAG
//!    candidate needs no replay: its stitch is its trace followed by a
//!    deletion of every node still red, in id order. The cheapest stitched
//!    candidate wins.
//!
//! Every cost compared along the way is its producer's own count: the
//! greedy members and the edge schedule apply each move through the
//! simulator as they build it, the beams and the exact engine replay their
//! traces, and the stitch rebuilds a split candidate through the full-DAG
//! simulator (the `Whole` stitch counts the loads and saves of its valid
//! trace). No trace is replayed only to choose between candidates. The
//! caller's certification replays the winner once, from scratch, on the DAG
//! the answer is for, and pairs its cost with the composable lower
//! bound of `pebble-bounds`, with per-component exact optima where
//! components are boundary-free. That bound is a linear count that never
//! exceeds load-count, so the `compose` ladder entry rises above load-count
//! only through the exact optima of boundary-free components.
//! [`compose_certified`] is that whole path in one call: the single
//! certified solve behind `prbp schedule --deadline-ms` and `--scheduler
//! compose`, cold `serve` requests and `prbp warm`.
//!
//! ## Deadline contract
//!
//! [`ComposeConfig::deadline`] bounds the solve, measured from entry. It is
//! checked before each candidate decomposition is built and again before
//! a built one is taken up, between the bands
//! and merge rounds of a level-band or sink-cone build (a build the deadline
//! cuts off is skipped), between component extractions, before each
//! distinct component, between portfolio members once one has a schedule,
//! inside the portfolio's beam members (a cut beam
//! greedy-completes its component, of at most 512 nodes), in the exact
//! phase (which keeps its validated seed) and before each candidate's
//! composable bound (a candidate stitched after the deadline still competes
//! on cost, without a bound). When the whole-DAG candidate's members run
//! side by side (step 2) they all start together, so a deadline that passes
//! mid-sweep no longer skips a later member there; each member's result is
//! used. When the deadline fires, the best candidate stitched so
//! far is returned; with none, the solve fails with
//! [`ComposeError::DeadlineNoIncumbent`]. A deadline that never fires
//! changes nothing: the answer is the one `deadline: None` gives, and the
//! answer does not depend on [`ComposeConfig::threads`]. The
//! certification after the solve is not covered by the deadline.

use crate::edges::{cone_affinity_edges, greedy_prbp_edges};
use crate::obs::{self, ComponentOutcome};
use crate::report::{certify_prbp_with_bounds, BoundSet, BoundValue, ScheduleReport};
use crate::suite::{
    best_prbp_until, default_suite, first_minimum, load_count, run_member, Scheduler, Swept,
};
use pebble_bounds::composed_prbp_bound;
use pebble_dag::canon::{canonical_form, CanonicalForm};
use pebble_dag::decompose::{decompose, Decomposition, ExtractedComponent, Strategy};
use pebble_dag::{BitSet, Dag, NodeId};
use pebble_game::engine::{self, EngineConfig};
use pebble_game::exact::LoadCountHeuristic;
use pebble_game::moves::PrbpMove;
use pebble_game::prbp::{PrbpConfig, PrbpError};
use pebble_game::trace::{PrbpTrace, TraceError};
use pebble_game::PrbpBuilder;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::{Duration, Instant};

/// Components with at most this many sub-DAG nodes whose portfolio schedule
/// misses the load-count bound are searched exactly, seeded with that
/// schedule (which stands when the state limit trips).
pub const EXACT_BUDGET: usize = 24;

/// Configuration of the [`compose_prbp`] pipeline.
#[derive(Debug, Clone)]
pub struct ComposeConfig {
    /// State limit per per-component exact search.
    pub exact_max_states: usize,
    /// Worker threads; 0 uses the available hardware parallelism. The
    /// components of a split candidate are scheduled on them. On a DAG of
    /// more than 512 nodes, the whole-DAG candidate's portfolio members and
    /// the other candidates' decompositions also run side by side on them.
    /// The answer is the same for every thread count.
    pub threads: usize,
    /// Wall-clock budget of the solve, measured from entry; `None` runs to
    /// completion. See the module's deadline contract.
    pub deadline: Option<Duration>,
}

impl Default for ComposeConfig {
    fn default() -> Self {
        ComposeConfig {
            exact_max_states: 2_000_000,
            threads: 0,
            deadline: None,
        }
    }
}

/// The result of a compose run.
#[derive(Debug, Clone)]
pub struct ComposeOutcome {
    /// The stitched, simulator-valid schedule.
    pub trace: PrbpTrace,
    /// The I/O the stitch's simulator counted: the full-DAG builder's count
    /// for a split candidate, the trace's loads and saves for `Whole`.
    /// [`compose_certified`] replays the trace to certify it.
    pub cost: usize,
    /// The winning decomposition strategy.
    pub strategy: Strategy,
    /// Number of components in the winning decomposition.
    pub components: usize,
    /// How many of them were solved exactly.
    pub exact_components: usize,
    /// The best composable lower bound across all candidate partitions
    /// (including per-component exact optima on boundary-free components).
    /// Admissible for the full instance; `None` only for non-standard game
    /// variants.
    pub composed_bound: Option<usize>,
}

/// Why a compose solve produced no certified schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComposeError {
    /// `r < 2`: the PRBP game needs two red pebbles to aggregate anything.
    SmallR {
        /// The rejected cache size.
        r: usize,
    },
    /// [`ComposeConfig::deadline`] fired before any candidate decomposition
    /// was stitched.
    DeadlineNoIncumbent,
    /// The stitched schedule failed its re-validation (a scheduler bug).
    Invalid(TraceError<PrbpError>),
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComposeError::SmallR { r } => {
                write!(f, "r = {r} is too small for PRBP scheduling (need r >= 2)")
            }
            ComposeError::DeadlineNoIncumbent => {
                write!(f, "deadline expired before any incumbent schedule existed")
            }
            ComposeError::Invalid(e) => write!(f, "stitched schedule failed re-validation: {e}"),
        }
    }
}

impl std::error::Error for ComposeError {}

/// A certified compose solve: the run's outcome, whose trace the report
/// certifies.
#[derive(Debug, Clone)]
pub struct Certified {
    /// The compose run; `outcome.trace` is the certified schedule.
    pub outcome: ComposeOutcome,
    /// The trace's report, scheduler `compose`: the [`BoundSet::auto_for`]
    /// ladder plus the `compose` entry when the run found a composable bound.
    pub report: ScheduleReport,
}

/// Schedule `dag` in PRBP with cache size `r` through the decompose /
/// conquer / stitch pipeline. Returns `None` for `r < 2`, or when
/// [`ComposeConfig::deadline`] fires before any candidate was stitched. The
/// result is never worse than the plain portfolio ([`crate::best_prbp`]
/// over [`default_suite`]), which participates as the single-component
/// candidate.
pub fn compose_prbp(dag: &Dag, r: usize, config: &ComposeConfig) -> Option<ComposeOutcome> {
    compose(dag, r, config).ok()
}

/// [`compose_prbp`] followed by certification: the stitched trace is
/// re-validated from scratch and its report carries the
/// [`BoundSet::auto_for`] ladder plus the composable `compose` bound. The
/// one certified solve of the CLI's `--deadline-ms` and `--scheduler
/// compose`, of cold `serve` requests and of `warm`.
pub fn compose_certified(
    dag: &Dag,
    r: usize,
    config: &ComposeConfig,
) -> Result<Certified, ComposeError> {
    certify(dag, r, compose(dag, r, config)?)
}

/// [`compose_certified`] solved on the canonical copy of `dag`
/// ([`CanonicalForm::relabel`] of `form`, which must be `dag`'s form), so
/// every relabeling with the same canonical edge list gets the same
/// schedule. The copy's trace is mapped back to `dag`'s ids and certified
/// on `dag` itself.
pub fn compose_certified_canonical(
    dag: &Dag,
    form: &CanonicalForm,
    r: usize,
    config: &ComposeConfig,
) -> Result<Certified, ComposeError> {
    let mut outcome = compose(&form.relabel(dag), r, config)?;
    let inverse = form.inverse();
    let moves = outcome.trace.moves.iter();
    let back = moves.map(|mv| mv.map_nodes(|c| inverse[c.index()]));
    outcome.trace = PrbpTrace::from_moves(back.collect());
    certify(dag, r, outcome)
}

/// Certify a compose `outcome` whose trace is in `dag`'s ids: replay it
/// from scratch, the solve's one replay, and pair it with the
/// [`BoundSet::auto_for`] ladder plus the composable `compose` bound.
fn certify(dag: &Dag, r: usize, outcome: ComposeOutcome) -> Result<Certified, ComposeError> {
    let _span = pebble_obs::trace::span("compose:certify");
    let extra = outcome.composed_bound.into_iter().map(|value| BoundValue {
        name: "compose".to_string(),
        value,
    });
    let set = BoundSet::auto_for(dag);
    let report = certify_prbp_with_bounds(dag, r, &outcome.trace, "compose", set, extra.collect())
        .map_err(ComposeError::Invalid)?;
    Ok(Certified { outcome, report })
}

fn compose(dag: &Dag, r: usize, config: &ComposeConfig) -> Result<ComposeOutcome, ComposeError> {
    // A deadline too far out to represent is no deadline.
    let deadline = config.deadline.and_then(|d| Instant::now().checked_add(d));
    if r < 2 {
        return Err(ComposeError::SmallR { r });
    }
    let threads = if config.threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        config.threads
    };

    let _schedule_span = pebble_obs::trace::span("compose:schedule");
    let mut incumbent = Incumbent::default();
    let strategies = candidates(r);
    // `Whole` comes first; the other candidates follow in order.
    let rest = &strategies[1..];
    // Above the beams' size the `Whole` candidate's members and the other
    // candidates' decompositions are independent linear passes, so they run
    // side by side; on small DAGs spawning threads costs more than the work.
    let side_by_side = if dag.node_count() > BEAM_MAX_NODES {
        threads
    } else {
        1
    };
    let (whole, built) = schedule_whole(dag, r, config, rest, side_by_side, deadline);
    if let Some(whole) = whole {
        // The composable bound of the single-component candidate is the
        // global ladder the certification evaluates anyway, so only the
        // exact case is taken from it.
        let bound = whole.exact[0];
        incumbent.offer(Strategy::Whole, 1, whole, bound);
    }
    let mut built = built.into_iter();
    let mut memo = ScheduleMemo::default();
    for &strategy in rest {
        if expired(deadline) {
            break;
        }
        let decomposition = match built.next() {
            Some(ahead) => ahead,
            None => build(dag, strategy, deadline),
        };
        // The other candidates count only when they apply, split the DAG
        // and were built before the deadline.
        let Some(decomposition) = decomposition else {
            continue;
        };
        if incumbent.beats(dag, &decomposition) {
            obs::compose_candidate("pruned");
            let bound = candidate_bound(dag, r, &decomposition, &[], deadline);
            raise(&mut incumbent.composed_bound, bound);
            continue;
        }
        let Some(scheduled) =
            schedule_decomposition(dag, r, &decomposition, config, threads, deadline, &mut memo)
        else {
            continue;
        };
        // The composable bound is admissible for every candidate partition,
        // so the maximum over candidates is too.
        let bound = candidate_bound(dag, r, &decomposition, &scheduled.exact, deadline);
        let components = decomposition.components.len();
        incumbent.offer(strategy, components, scheduled, bound);
    }
    let Incumbent {
        best,
        composed_bound,
    } = incumbent;
    let (cost, trace, strategy, components, exact_components) =
        best.ok_or(ComposeError::DeadlineNoIncumbent)?;
    Ok(ComposeOutcome {
        trace,
        cost,
        strategy,
        components,
        exact_components,
        composed_bound,
    })
}

/// The cheapest candidate stitched so far, as `(cost, trace, strategy,
/// components, exact components)`, and the best composable bound over all
/// candidates.
#[derive(Default)]
struct Incumbent {
    best: Option<(usize, PrbpTrace, Strategy, usize, usize)>,
    composed_bound: Option<usize>,
}

impl Incumbent {
    /// Take a stitched candidate: it raises the composable bound to `bound`
    /// and replaces the incumbent when strictly cheaper.
    fn offer(
        &mut self,
        strategy: Strategy,
        components: usize,
        scheduled: ScheduledDecomposition,
        bound: Option<usize>,
    ) {
        obs::compose_candidate("scheduled");
        raise(&mut self.composed_bound, bound);
        if self.best.as_ref().map_or(true, |b| scheduled.cost < b.0) {
            let exact = scheduled.exact.iter().filter(|e| e.is_some()).count();
            self.best = Some((scheduled.cost, scheduled.trace, strategy, components, exact));
        }
    }

    /// Whether the incumbent already beats every stitch of `decomposition`
    /// ([`dominated`]).
    fn beats(&self, dag: &Dag, decomposition: &Decomposition) -> bool {
        self.best
            .as_ref()
            .is_some_and(|b| dominated(dag, decomposition, b.0))
    }
}

/// Build one candidate other than `Whole`: `None` when its strategy does
/// not apply, the deadline cut the build off, or it does not split the DAG.
fn build(dag: &Dag, strategy: Strategy, deadline: Option<Instant>) -> Option<Decomposition> {
    let _span = pebble_obs::trace::span("compose:decompose");
    decompose(dag, strategy, deadline).filter(|d| d.components.len() > 1)
}

/// The candidate decompositions at cache size `r`, in the order they are
/// tried: the whole DAG, its weak components, then sink-cone tiles and level
/// bands at two size caps (members + boundary inputs), 4r and 16r, floored
/// by twice and four times [`EXACT_BUDGET`]. Saturating: a cache too large
/// for the caps leaves no cap.
fn candidates(r: usize) -> Vec<Strategy> {
    let mut caps = vec![
        r.saturating_mul(4).max(2 * EXACT_BUDGET),
        r.saturating_mul(16).max(4 * EXACT_BUDGET),
    ];
    caps.dedup();
    let max_sinks = sink_cap(r);
    let mut strategies = vec![Strategy::Whole, Strategy::Wcc];
    for &max_nodes in &caps {
        strategies.push(Strategy::SinkCones {
            max_nodes,
            max_sinks,
        });
        strategies.push(Strategy::LevelBands { max_nodes });
    }
    strategies
}

/// Whether `decomposition` cannot beat an incumbent of cost `incumbent`. Its
/// stitched cost is at least [`stitch_lower_bound`], and only a strictly
/// cheaper candidate replaces the incumbent, so one whose bound reaches the
/// incumbent's cost cannot win. A decomposition with a boundary-free
/// component is never dominated: that component's exact optimum may raise
/// the composable bound.
fn dominated(dag: &Dag, decomposition: &Decomposition, incumbent: usize) -> bool {
    decomposition
        .components
        .iter()
        .all(|c| !c.inputs.is_empty() || !c.outputs.is_empty())
        && stitch_lower_bound(dag, decomposition) >= incumbent
}

/// Raise `bound` to `candidate` when that is higher.
fn raise(bound: &mut Option<usize>, candidate: Option<usize>) {
    if let Some(total) = candidate {
        if bound.map_or(true, |b| total > b) {
            *bound = Some(total);
        }
    }
}

/// The composable bound of a multi-component candidate. Components without
/// any boundary contribute their exact optimum when `exact` (per component,
/// empty for a candidate that was not scheduled) holds one. `None` once the
/// deadline has passed: the bound is linear in the DAG and is not started
/// then.
fn candidate_bound(
    dag: &Dag,
    r: usize,
    decomposition: &Decomposition,
    exact: &[Option<usize>],
    deadline: Option<Instant>,
) -> Option<usize> {
    if expired(deadline) {
        return None;
    }
    let _span = pebble_obs::trace::span("compose:bound");
    let partition: Vec<Vec<NodeId>> = decomposition
        .components
        .iter()
        .map(|c| c.nodes.clone())
        .collect();
    let mut bound = composed_prbp_bound(dag, PrbpConfig::new(r), &partition)?;
    for (i, comp) in decomposition.components.iter().enumerate() {
        if comp.inputs.is_empty() && comp.outputs.is_empty() {
            if let Some(&Some(exact)) = exact.get(i) {
                bound.per_component[i] = bound.per_component[i].max(exact);
            }
        }
    }
    Some(bound.total())
}

/// A lower bound on the stitched cost of `decomposition`, in O(n + m). The
/// stitch flushes the cache between components, so within a component's
/// segment
/// - every boundary input is loaded;
/// - every member source with a successor in the same component is loaded
///   (a member source whose successors all lie elsewhere is a boundary
///   input of those components and is counted there);
/// - every computed member that is a sink or has a cross out-edge is saved:
///   no later segment starts with it red.
///
/// These are distinct I/Os, so their count bounds the stitched cost.
fn stitch_lower_bound(dag: &Dag, decomposition: &Decomposition) -> usize {
    let mut owner = vec![usize::MAX; dag.node_count()];
    for (i, comp) in decomposition.components.iter().enumerate() {
        for &v in &comp.nodes {
            owner[v.index()] = i;
        }
    }
    let mut bound = 0;
    for (i, comp) in decomposition.components.iter().enumerate() {
        bound += comp.inputs.len();
        for &v in &comp.nodes {
            let mut succ = dag.successors(v);
            let charged = if dag.is_source(v) {
                succ.any(|w| owner[w.index()] == i)
            } else {
                dag.is_sink(v) || succ.any(|w| owner[w.index()] != i)
            };
            bound += usize::from(charged);
        }
    }
    bound
}

/// The sinks a tile may hold at cache size `r`. A tile's unsaved sinks are
/// live accumulators throughout its schedule; capping them at `⌊3r/4⌋`
/// (computed without the overflow of `3 * r`) leaves room for the
/// streaming inputs.
fn sink_cap(r: usize) -> usize {
    (r - r.div_ceil(4)).max(1)
}

/// Whether `deadline` has passed (never, without one).
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|at| Instant::now() >= at)
}

/// Structural identity of an extracted sub-DAG: its node count and its edges
/// in id order. Equal keys mean equal sub-DAGs up to node labels, which no
/// scheduler reads, so one schedule serves every copy.
type ComponentKey = (usize, Vec<(NodeId, NodeId)>);

fn component_key(dag: &Dag) -> ComponentKey {
    (
        dag.node_count(),
        dag.edges().map(|e| dag.edge_endpoints(e)).collect(),
    )
}

/// The schedules of the distinct sub-DAGs seen so far in one compose call.
///
/// A sub-DAG is looked up by its local key ([`component_key`]) first. On a
/// miss its [`canonical_form`] gives a second, exact key: the node count and
/// the sorted canonical edge list. Equal canonical lists prove an
/// isomorphism (the one sub-DAG's local ids → canonical ids → the other's),
/// so a differently numbered copy of a scheduled sub-DAG reuses its
/// schedule, mapped, and its exact optimum. Inputs numbered alike per copy
/// (the generators' blocks and tiles) hit the local key and never pay for
/// canonicalization.
#[derive(Default)]
struct ScheduleMemo {
    /// By local key; `None` when a sub-DAG could not be scheduled, or the
    /// deadline cut it off (after which no candidate is scheduled).
    local: HashMap<ComponentKey, Option<ComponentSchedule>>,
    /// By canonical key: the local key of the first sub-DAG scheduled under
    /// it, and that sub-DAG's canonical numbering ([`CanonicalForm::perm`]).
    canonical: HashMap<ComponentKey, (ComponentKey, Vec<usize>)>,
}

/// One component's schedule, in the component's local ids.
struct ComponentSchedule {
    trace: PrbpTrace,
    /// The exact optimum, when the schedule is proven optimal.
    exact: Option<usize>,
    /// How the schedule was obtained (never [`ComponentOutcome::Reused`]).
    outcome: ComponentOutcome,
}

impl ComponentSchedule {
    /// The schedule of an isomorphic sub-DAG whose node `map(v)` is this
    /// sub-DAG's node `v`.
    fn mapped(&self, map: impl Fn(NodeId) -> NodeId) -> ComponentSchedule {
        let moves = self.trace.moves.iter().map(|mv| mv.map_nodes(&map));
        ComponentSchedule {
            trace: PrbpTrace::from_moves(moves.collect()),
            exact: self.exact,
            outcome: self.outcome,
        }
    }
}

struct ScheduledDecomposition {
    trace: PrbpTrace,
    cost: usize,
    /// Per-component exact optimum, when the component was solved optimally.
    exact: Vec<Option<usize>>,
}

fn schedule_decomposition(
    dag: &Dag,
    r: usize,
    decomposition: &Decomposition,
    config: &ComposeConfig,
    threads: usize,
    deadline: Option<Instant>,
    memo: &mut ScheduleMemo,
) -> Option<ScheduledDecomposition> {
    // Extracting and keying the components is linear in the DAG, so a
    // deadline that fires before or during the extractions stops here.
    let extract_span = pebble_obs::trace::span("compose:extract");
    let mut extracted = Vec::with_capacity(decomposition.components.len());
    for component in &decomposition.components {
        if expired(deadline) {
            return None;
        }
        extracted.push(pebble_dag::decompose::extract_component(dag, component));
    }
    drop(extract_span);
    // Schedule only the first copy of each sub-DAG not seen earlier in this
    // call; every other copy reuses its schedule, through the local key or,
    // numbered differently, through the canonical one.
    let key_span = pebble_obs::trace::span("compose:key");
    let keys: Vec<ComponentKey> = extracted.iter().map(|c| component_key(&c.dag)).collect();
    let mut fresh = vec![false; keys.len()];
    let mut pending: HashSet<&ComponentKey> = HashSet::new();
    // Per local miss: its canonical form and canonical key.
    let mut canonical: Vec<Option<(CanonicalForm, ComponentKey)>> = Vec::new();
    canonical.resize_with(keys.len(), || None);
    let mut pending_canonical: HashSet<ComponentKey> = HashSet::new();
    for (i, key) in keys.iter().enumerate() {
        if memo.local.contains_key(key) || !pending.insert(key) {
            continue;
        }
        let sub = &extracted[i].dag;
        let form = canonical_form(sub);
        let canonical_key = (sub.node_count(), form.edges(sub));
        fresh[i] = !memo.canonical.contains_key(&canonical_key)
            && pending_canonical.insert(canonical_key.clone());
        canonical[i] = Some((form, canonical_key));
    }
    drop(key_span);
    let firsts: Vec<usize> = (0..keys.len()).filter(|&i| fresh[i]).collect();
    let components_span = pebble_obs::trace::span("compose:components");
    let results = par_map(
        firsts.iter().map(|&i| &extracted[i]).collect(),
        threads,
        |sub| {
            // A component the deadline cuts off leaves the candidate
            // unstitched, and the caller stops at its next check.
            if expired(deadline) {
                return None;
            }
            let _span = pebble_obs::trace::span("compose:component");
            schedule_component(&sub.dag, r, config, deadline)
        },
    );
    drop(components_span);
    for (i, result) in firsts.into_iter().zip(results) {
        let (form, canonical_key) = canonical[i].take().expect("a fresh sub-DAG has its form");
        memo.canonical
            .insert(canonical_key, (keys[i].clone(), form.perm));
        memo.local.insert(keys[i].clone(), result);
    }
    // The other local misses are copies of a scheduled sub-DAG: map its
    // schedule through the isomorphism the canonical keys prove.
    for (i, entry) in canonical.into_iter().enumerate() {
        let Some((form, canonical_key)) = entry else {
            continue;
        };
        let (first, first_perm) = &memo.canonical[&canonical_key];
        let inverse = form.inverse();
        let copy = memo.local[first]
            .as_ref()
            .map(|s| s.mapped(|v| inverse[first_perm[v.index()]]));
        memo.local.insert(keys[i].clone(), copy);
    }
    let mut schedules = Vec::with_capacity(keys.len());
    for key in &keys {
        schedules.push(memo.local[key].as_ref()?);
    }
    obs::compose_components(schedules.iter().zip(&fresh).map(|(s, &first)| {
        if first {
            s.outcome
        } else {
            ComponentOutcome::Reused
        }
    }));
    let traces: Vec<&PrbpTrace> = schedules.iter().map(|s| &s.trace).collect();
    let stitch_span = pebble_obs::trace::span("compose:stitch");
    let (trace, cost) = stitch(dag, r, &extracted, &traces);
    drop(stitch_span);
    Some(ScheduledDecomposition {
        trace,
        cost,
        exact: schedules.iter().map(|s| s.exact).collect(),
    })
}

/// The `Whole` candidate, scheduled on `dag` itself: no extracted copy, no
/// key and no memo entry, since no other candidate holds the whole DAG. Its
/// members start only before the deadline.
///
/// With more than one thread, its portfolio members and the builds of the
/// `rest` candidates are the items of one [`par_map`]. The members' results
/// are then swept in suite order, as [`best_prbp_until`] sweeps them, so the
/// schedule is the same; only a deadline no longer skips a member, since all
/// start together. Returns the candidate and the decompositions built
/// ahead: [`build`]'s answer for each of `rest`, `None` for one the
/// deadline reached before its build began, and none at all with one
/// thread or when the deadline passed before the members could start.
fn schedule_whole(
    dag: &Dag,
    r: usize,
    config: &ComposeConfig,
    rest: &[Strategy],
    threads: usize,
    deadline: Option<Instant>,
) -> (Option<ScheduledDecomposition>, Vec<Option<Decomposition>>) {
    let components_span = pebble_obs::trace::span("compose:components");
    let component_span = pebble_obs::trace::span("compose:component");
    let lower = load_count(dag, r);
    if expired(deadline) {
        return (None, Vec::new());
    }
    let suite = component_suite(dag);
    let (portfolio, built) = if threads > 1 {
        enum Job {
            Member(Scheduler),
            Build(Strategy),
        }
        let jobs = suite
            .iter()
            .map(|&s| Job::Member(s))
            .chain(rest.iter().map(|&strategy| Job::Build(strategy)))
            .collect();
        let mut done = par_map(jobs, threads, |job| match job {
            Job::Member(s) => (run_member(dag, r, s, deadline, None), None),
            Job::Build(_) if expired(deadline) => (Swept::Skipped, None),
            Job::Build(strategy) => (Swept::Skipped, build(dag, strategy, deadline)),
        });
        let built = done.split_off(suite.len());
        let mut members = done.into_iter().map(|(member, _)| member);
        let portfolio = first_minimum(&suite, lower, None, |_, _| {
            members.next().expect("one result per member")
        });
        (portfolio, built.into_iter().map(|(_, d)| d).collect())
    } else {
        let portfolio = best_prbp_until(dag, r, &suite, deadline, lower);
        (portfolio, Vec::new())
    };
    let schedule = finish_component(dag, r, config, deadline, lower, portfolio);
    drop(component_span);
    drop(components_span);
    let Some(schedule) = schedule else {
        return (None, built);
    };
    obs::compose_components([schedule.outcome]);
    let _stitch_span = pebble_obs::trace::span("compose:stitch");
    let (trace, cost) = stitch_whole(dag, schedule.trace);
    let whole = ScheduledDecomposition {
        trace,
        cost,
        exact: vec![schedule.exact],
    };
    (Some(whole), built)
}

/// [`stitch`] of a single component holding the whole DAG: its validated,
/// terminal trace followed by a `Delete` of every node still red, in id
/// order, and the trace's I/O cost. A terminal state has every edge marked
/// and every sink blue, so each such pebble is light red or a dead dark red
/// and the stitch's eviction would delete it without a save; no move of a
/// valid trace is rewritten either, so the result equals the replay's.
fn stitch_whole(dag: &Dag, mut trace: PrbpTrace) -> (PrbpTrace, usize) {
    let mut red = BitSet::new(dag.node_count());
    let mut cost = 0;
    for &mv in &trace.moves {
        match mv {
            PrbpMove::Load(v) => {
                red.insert(v.index());
                cost += 1;
            }
            PrbpMove::Save(_) => cost += 1,
            PrbpMove::PartialCompute { to, .. } => {
                red.insert(to.index());
            }
            PrbpMove::Delete(v) => {
                red.remove(v.index());
            }
            PrbpMove::Clear(_) => {
                unreachable!("compose schedules the standard one-shot game")
            }
        }
    }
    for v in red.iter() {
        trace.push(PrbpMove::Delete(NodeId::from_index(v)));
    }
    (trace, cost)
}

/// Largest component, in nodes, on which the portfolio also runs the beams.
const BEAM_MAX_NODES: usize = 512;

/// The portfolio run on one component: [`default_suite`], plus the adaptive
/// `beam:1` and then `beam:8` on components of at most [`BEAM_MAX_NODES`]
/// nodes. A full beam solve is quadratic: each level copies an `O(n)` entry
/// per child. Running them only there changed no compose cost on the
/// benchmark corpora, while dropping either one from the small components
/// raised some. In the sweep each beam gets the cheapest cost before it as
/// a cutoff and stops once it cannot go below it, so most beams on
/// components the greedy members already schedule well end early.
pub(crate) fn component_suite(dag: &Dag) -> Vec<Scheduler> {
    let mut suite = default_suite();
    if dag.node_count() <= BEAM_MAX_NODES {
        suite.push(Scheduler::Beam {
            width: 1,
            branch: 1,
        });
        suite.push(Scheduler::Beam {
            width: 8,
            branch: 4,
        });
    }
    suite
}

/// Schedule one component: an extracted sub-DAG, or the whole DAG.
///
/// Heuristics run first: a heuristic schedule meeting the admissible
/// load-count bound is already provably optimal, which skips the exponential
/// search entirely on the (very common) boundary-dominated components —
/// a decomposition with hundreds of tiny star-shaped pieces would otherwise
/// burn a capped A* search per piece just to reconfirm the greedy result.
fn schedule_component(
    dag: &Dag,
    r: usize,
    config: &ComposeConfig,
    deadline: Option<Instant>,
) -> Option<ComponentSchedule> {
    let lower = load_count(dag, r);
    let portfolio = best_prbp_until(dag, r, &component_suite(dag), deadline, lower);
    finish_component(dag, r, config, deadline, lower, portfolio)
}

/// [`schedule_component`] after the portfolio: `portfolio` is its sweep's
/// result and `lower` the component's load-count bound.
fn finish_component(
    dag: &Dag,
    r: usize,
    config: &ComposeConfig,
    deadline: Option<Instant>,
    lower: usize,
    portfolio: Option<(Scheduler, PrbpTrace, usize)>,
) -> Option<ComponentSchedule> {
    let mut best = portfolio.map(|(_, t, c)| (t, c));
    // Cone-shaped components additionally get the streaming-accumulator
    // edge schedule, which the node-order portfolio cannot express. A
    // portfolio schedule at the bound cannot be beaten, so it is skipped then.
    if best.as_ref().map_or(true, |&(_, c)| c > lower) {
        let edges = cone_affinity_edges(dag).and_then(|edges| greedy_prbp_edges(dag, r, &edges));
        if let Some((trace, cost)) = &edges {
            debug_assert_eq!(trace.validate(dag, PrbpConfig::new(r)), Ok(*cost));
        }
        keep_cheaper(&mut best, edges);
    }
    let (trace, cost) = best?;
    if cost == lower {
        // Certified optimal without any search.
        return Some(ComponentSchedule {
            trace,
            exact: Some(cost),
            outcome: ComponentOutcome::Bound,
        });
    }
    if dag.node_count() <= EXACT_BUDGET {
        // Seed the engine with the portfolio's best schedule: the search
        // becomes a branch-and-bound that prunes everything at least as
        // expensive as the incumbent, and a budget-stopped solve still
        // returns the best (validated) schedule seen instead of failing.
        let engine_cfg = EngineConfig {
            node_budget: Some(config.exact_max_states),
            deadline: deadline.map(|at| at.saturating_duration_since(Instant::now())),
            ..EngineConfig::default()
        };
        if let Ok(out) = engine::solve_prbp(
            dag,
            PrbpConfig::new(r),
            &engine_cfg,
            &LoadCountHeuristic,
            Some(&trace),
        ) {
            return Some(ComponentSchedule {
                exact: out.proven_optimal.then_some(out.cost),
                outcome: if out.proven_optimal {
                    ComponentOutcome::Exact
                } else {
                    ComponentOutcome::Heuristic
                },
                trace: out.trace,
            });
        }
    }
    Some(ComponentSchedule {
        trace,
        exact: None,
        outcome: ComponentOutcome::Heuristic,
    })
}

/// Keep the edge executor's schedule, if it produced one, in `best` when it
/// is strictly cheaper. Both costs are their simulators' own counts.
fn keep_cheaper(best: &mut Option<(PrbpTrace, usize)>, edges: Option<(PrbpTrace, usize)>) {
    if let Some((trace, cost)) = edges {
        if best.as_ref().map_or(true, |&(_, c)| cost < c) {
            *best = Some((trace, cost));
        }
    }
}

/// Replay per-component traces against the full-DAG simulator, in component
/// order, with boundary-aware eviction. See the module docs for why every
/// rewritten move is legal; the returned trace additionally re-validates in
/// the caller's certification path.
fn stitch(
    dag: &Dag,
    r: usize,
    extracted: &[ExtractedComponent],
    traces: &[&PrbpTrace],
) -> (PrbpTrace, usize) {
    let mut builder = PrbpBuilder::new(dag, PrbpConfig::new(r));
    for (sub, trace) in extracted.iter().zip(traces) {
        let map = |l: NodeId| sub.to_global[l.index()];
        for &mv in &trace.moves {
            match mv {
                PrbpMove::Load(v) => builder
                    .push(PrbpMove::Load(map(v)))
                    .expect("stitched load has a blue copy"),
                PrbpMove::Save(v) => builder
                    .push(PrbpMove::Save(map(v)))
                    .expect("stitched save is dark red"),
                PrbpMove::PartialCompute { from, to } => builder
                    .push(PrbpMove::PartialCompute {
                        from: map(from),
                        to: map(to),
                    })
                    .expect("stitched aggregation is legal"),
                // Boundary-aware eviction: a value whose cross edges are
                // still unmarked is saved before its red pebble goes.
                PrbpMove::Delete(v) => {
                    builder.evict(map(v)).expect("stitched eviction is legal");
                }
                PrbpMove::Clear(_) => {
                    unreachable!("compose schedules the standard one-shot game")
                }
            }
        }
        // Flush: the next component's sub-schedule assumed an empty cache,
        // and every crossing value must end up with a blue copy.
        for &g in &sub.to_global {
            if builder.game().pebble_state(g).has_red() {
                builder.evict(g).expect("flush eviction is legal");
            }
        }
    }
    let (trace, game) = builder.finish();
    assert!(game.is_terminal(), "stitched schedule must be terminal");
    (trace, game.io_cost())
}

/// A dependency-free scoped-thread work queue: runs `worker` over the items
/// on up to `threads` threads pulling from an atomic index, and returns the
/// results in input order. `threads` is clamped to `1..=items.len()`; the
/// caller's thread is one of them, so with one thread everything runs inline.
/// Working on the caller also keeps part of the work in its allocator arena:
/// memory a scoped thread frees stays with that thread's arena, which the
/// caller cannot reuse. A worker panic propagates to the caller. Compose fans
/// its independent work out on it, and the experiment and benchmark sweeps
/// fan instances out on it.
pub fn par_map<I: Send, T: Send>(
    items: Vec<I>,
    threads: usize,
    worker: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return items.into_iter().map(worker).collect();
    }
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let item = slots[i]
            .lock()
            .expect("work slot poisoned")
            .take()
            .expect("work item taken twice");
        let out = worker(item);
        *results[i].lock().expect("result slot poisoned") = Some(out);
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(work);
        }
        work();
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker finished without a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::best_prbp;
    use pebble_dag::decompose::{extract_component, Component};
    use pebble_dag::generators::{
        attention_full, attention_qk, binary_tree, fft, fig1_full, kary_tree, matmul,
        random_layered, RandomLayeredConfig,
    };
    use pebble_dag::DagBuilder;

    fn optimum(dag: &Dag, r: usize) -> usize {
        let engine = EngineConfig::default();
        let out = engine::solve_prbp(dag, PrbpConfig::new(r), &engine, &LoadCountHeuristic, None);
        out.unwrap().cost
    }

    #[test]
    fn beams_run_on_components_of_at_most_512_nodes() {
        let chain = |n: usize| {
            let mut b = DagBuilder::new();
            let nodes = b.add_nodes(n);
            for w in nodes.windows(2) {
                b.add_edge(w[0], w[1]);
            }
            b.build().unwrap()
        };
        let beams = |dag: &Dag| {
            component_suite(dag)
                .into_iter()
                .filter(|s| matches!(s, Scheduler::Beam { .. }))
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
        };
        let small = component_suite(&chain(512));
        assert_eq!(small[..small.len() - 2], default_suite()[..]);
        assert_eq!(beams(&chain(512)), ["beam:1", "beam:8"]);
        assert!(beams(&chain(513)).is_empty());
        assert_eq!(component_suite(&chain(513)), default_suite());
    }

    #[test]
    fn compose_is_exact_on_small_instances() {
        let dag = fig1_full().dag;
        for r in [3usize, 4] {
            let outcome = compose_prbp(&dag, r, &ComposeConfig::default()).unwrap();
            let opt = optimum(&dag, r);
            assert_eq!(outcome.cost, opt);
            assert!(outcome.exact_components >= 1);
            assert_eq!(
                outcome.trace.validate(&dag, PrbpConfig::new(r)).unwrap(),
                opt
            );
            // The composable bound of the exactly-solved whole instance is
            // the optimum itself.
            assert_eq!(outcome.composed_bound, Some(opt));
        }
    }

    fn counter(name: &str, outcome: &str) -> u64 {
        pebble_obs::metrics::Registry::global()
            .counter(name, "", &[("outcome", outcome)])
            .get()
    }

    /// The soundness corpus: fft 4–256, matmul 2³–8³, attention, trees and
    /// 40 seeded random layered DAGs. Debug builds keep the rows of at most
    /// fft-64's size.
    fn bound_corpus() -> Vec<(String, Dag)> {
        let mut rows: Vec<(String, Dag)> = Vec::new();
        for m in [4usize, 8, 16, 32, 64, 128, 256] {
            rows.push((format!("fft-{m}"), fft(m).dag));
        }
        for m in 2..=8 {
            rows.push((format!("matmul-{m}"), matmul(m, m, m).dag));
        }
        for (m, d) in [(4usize, 4usize), (8, 4), (8, 8)] {
            rows.push((format!("attention-qk-{m}x{d}"), attention_qk(m, d).dag));
        }
        for (m, d) in [(4usize, 2usize), (8, 4), (24, 8)] {
            rows.push((format!("attention-full-{m}x{d}"), attention_full(m, d).dag));
        }
        for depth in 2..=6 {
            rows.push((format!("binary-tree-{depth}"), binary_tree(depth)));
        }
        rows.push(("ternary-tree-4".to_string(), kary_tree(3, 4).dag));
        for seed in 0..40u64 {
            let dag = random_layered(RandomLayeredConfig {
                layers: 3 + seed as usize % 6,
                width: 4 + seed as usize % 9,
                max_in_degree: 1 + seed as usize % 4,
                seed,
            });
            rows.push((format!("random-{seed}"), dag));
        }
        let largest = fft(64).dag.node_count();
        rows.retain(|(_, dag)| !cfg!(debug_assertions) || dag.node_count() <= largest);
        rows
    }

    #[test]
    fn the_stitch_bound_never_exceeds_a_stitched_cost() {
        // The bound holds for any stitched schedule, so a small exact search
        // keeps the sweep short.
        let config = ComposeConfig {
            exact_max_states: 2_000,
            threads: 1,
            ..ComposeConfig::default()
        };
        for (name, dag) in bound_corpus() {
            for r in [2usize, 3, 4, 8, 16, 64] {
                let mut memo = ScheduleMemo::default();
                for strategy in candidates(r) {
                    let Some(decomposition) = decompose(&dag, strategy, None) else {
                        continue;
                    };
                    let scheduled = if strategy == Strategy::Whole {
                        schedule_whole(&dag, r, &config, &[], 1, None).0
                    } else {
                        schedule_decomposition(&dag, r, &decomposition, &config, 1, None, &mut memo)
                    };
                    let cost = scheduled.unwrap().cost;
                    let bound = stitch_lower_bound(&dag, &decomposition);
                    assert!(bound <= cost, "{name} r={r} {strategy}: {bound} > {cost}");
                }
            }
        }
    }

    #[test]
    fn the_stitch_bound_is_tight_on_a_hand_built_cut() {
        // Component A holds x -> y -> z and the source s; s and y feed b in
        // component B. The stitch loads x, saves z and y in A, then loads y
        // and s and saves b in B: 6 I/Os. The source s is loaded only in B,
        // and y, read in both components, is saved once.
        let mut b = DagBuilder::new();
        let [x, y, z, s, sink] = [0, 1, 2, 3, 4].map(|_| b.add_node());
        for (u, v) in [(x, y), (y, z), (y, sink), (s, sink)] {
            b.add_edge(u, v);
        }
        let dag = b.build().unwrap();
        let a = Component {
            nodes: vec![x, y, z, s],
            inputs: vec![],
            outputs: vec![y, s],
        };
        let bb = Component {
            nodes: vec![sink],
            inputs: vec![y, s],
            outputs: vec![],
        };
        let decomposition = Decomposition {
            strategy: Strategy::LevelBands { max_nodes: 4 },
            components: vec![a, bb.clone()],
        };
        // Component A as scheduled: s has no edge inside it, so its sub-DAG
        // is the chain x -> y -> z alone.
        let mut sub = DagBuilder::new();
        let local = sub.add_nodes(3);
        sub.add_edge(local[0], local[1]);
        sub.add_edge(local[1], local[2]);
        let extracted = [
            ExtractedComponent {
                dag: sub.build().unwrap(),
                to_global: vec![x, y, z],
            },
            extract_component(&dag, &bb),
        ];
        let r = 3;
        let traces: Vec<PrbpTrace> = extracted
            .iter()
            .map(|c| best_prbp(&c.dag, r, &default_suite()).unwrap().1)
            .collect();
        let (trace, cost) = stitch(&dag, r, &extracted, &traces.iter().collect::<Vec<_>>());
        assert_eq!(trace.validate(&dag, PrbpConfig::new(r)), Ok(6));
        assert_eq!(cost, 6);
        assert_eq!(stitch_lower_bound(&dag, &decomposition), 6);
    }

    #[test]
    fn whole_in_place_equals_the_stitch_of_its_extracted_copy() {
        let config = ComposeConfig::default();
        let whole_copy = |dag: &Dag| {
            extract_component(
                dag,
                &decompose(dag, Strategy::Whole, None).unwrap().components[0],
            )
        };
        let mut rows: Vec<(Dag, usize)> = vec![
            (fig1_full().dag, 3),
            (fig1_full().dag, 4),
            (fft(8).dag, 3),
            (fft(32).dag, 8),
            (matmul(3, 3, 3).dag, 4),
            (attention_qk(4, 4).dag, 6),
            (binary_tree(4), 3),
        ];
        for seed in 0..6 {
            let dag = random_layered(RandomLayeredConfig {
                seed,
                ..RandomLayeredConfig::default()
            });
            rows.push((dag, 2 + seed as usize));
        }
        let mut exact_rows = 0;
        for (dag, r) in rows {
            // The copy lists the edges grouped by target, as fft, trees and
            // attention-qk already do; then it is the DAG itself, and the
            // in-place schedule is the one the copy gets. Other edge orders
            // are taken as given, so each row starts from its copy.
            let dag = whole_copy(&dag).dag;
            let copy = whole_copy(&dag);
            assert!(dag
                .edges()
                .all(|e| dag.edge_endpoints(e) == copy.dag.edge_endpoints(e)));
            let schedule = schedule_component(&copy.dag, r, &config, None).unwrap();
            exact_rows += usize::from(schedule.outcome == ComponentOutcome::Exact);
            let stitched = stitch(&dag, r, &[copy], &[&schedule.trace]);
            let in_place = schedule_whole(&dag, r, &config, &[], 1, None).0.unwrap();
            assert_eq!((in_place.trace, in_place.cost), stitched, "r = {r}");
            assert_eq!(in_place.exact, [schedule.exact]);
        }
        // At least one row went through the exact engine.
        assert!(exact_rows >= 1);
    }

    #[test]
    fn a_candidate_at_the_incumbents_cost_is_dominated() {
        let dag = fft(16).dag;
        let bands = decompose(&dag, Strategy::LevelBands { max_nodes: 16 }, None).unwrap();
        assert!(bands.components.len() > 1);
        let bound = stitch_lower_bound(&dag, &bands);
        assert!(dominated(&dag, &bands, bound));
        assert!(!dominated(&dag, &bands, bound + 1));
        // A boundary-free component is never pruned: two disjoint chains.
        let mut b = DagBuilder::new();
        let n = b.add_nodes(4);
        b.add_edge(n[0], n[1]);
        b.add_edge(n[2], n[3]);
        let forest = b.build().unwrap();
        let wcc = decompose(&forest, Strategy::Wcc, None).unwrap();
        assert_eq!(stitch_lower_bound(&forest, &wcc), 4);
        assert!(!dominated(&forest, &wcc, 0));
    }

    #[test]
    fn compose_prunes_dominated_candidates_on_attention() {
        let pruned_before = counter("compose_candidates_total", "pruned");
        let scheduled_before = counter("compose_candidates_total", "scheduled");
        let outcome = compose_prbp(&attention_full(24, 8).dag, 16, &ComposeConfig::default());
        assert!(outcome.is_some());
        assert!(counter("compose_candidates_total", "pruned") >= pruned_before + 2);
        assert!(counter("compose_candidates_total", "scheduled") > scheduled_before);
    }

    #[test]
    fn a_passed_deadline_starts_no_composed_bound() {
        let dag = fft(16).dag;
        let bands = decompose(&dag, Strategy::LevelBands { max_nodes: 16 }, None).unwrap();
        assert!(candidate_bound(&dag, 4, &bands, &[], None).is_some());
        let passed = Some(Instant::now());
        assert_eq!(candidate_bound(&dag, 4, &bands, &[], passed), None);
    }

    #[test]
    fn compose_solves_disconnected_instances_per_component() {
        // Two disjoint copies of a small tree: each weak component is
        // solved exactly, the stitched schedule sums the optima, and the
        // composable bound certifies a 1.0 gap.
        let mut b = DagBuilder::new();
        let n = b.add_nodes(14);
        for half in 0..2 {
            let o = half * 7;
            for (u, v) in [(0, 4), (1, 4), (2, 5), (3, 5), (4, 6), (5, 6)] {
                b.add_edge(n[o + u], n[o + v]);
            }
        }
        let dag = b.build().unwrap();
        let r = 3;
        let reused = || counter("compose_components_total", "reused");
        let reused_before = reused();
        let outcome = compose_prbp(&dag, r, &ComposeConfig::default()).unwrap();
        let opt = optimum(&dag, r);
        assert_eq!(outcome.cost, opt);
        assert_eq!(outcome.composed_bound, Some(opt));
        assert!(outcome.trace.validate(&dag, PrbpConfig::new(r)).is_ok());
        // The two copies share one sub-DAG: the second reuses the first's
        // schedule.
        assert!(reused() > reused_before);
    }

    #[test]
    fn differently_numbered_copies_share_one_schedule() {
        // Two copies of fft-64, the second numbered in reverse: their local
        // keys differ, their canonical keys do not. The first copy is
        // scheduled, the second takes its schedule through the isomorphism.
        let one = fft(64).dag;
        let n = one.node_count();
        let mut b = DagBuilder::new();
        let nodes = b.add_nodes(2 * n);
        for e in one.edges() {
            let (u, v) = one.edge_endpoints(e);
            b.add_edge(nodes[u.index()], nodes[v.index()]);
            b.add_edge(nodes[2 * n - 1 - u.index()], nodes[2 * n - 1 - v.index()]);
        }
        let dag = b.build().unwrap();
        let r = 8;
        let config = ComposeConfig {
            threads: 1,
            ..ComposeConfig::default()
        };
        let wcc = decompose(&dag, Strategy::Wcc, None).unwrap();
        assert_eq!(wcc.components.len(), 2);
        let mut memo = ScheduleMemo::default();
        let scheduled = schedule_decomposition(&dag, r, &wcc, &config, 1, None, &mut memo).unwrap();
        assert_eq!((memo.local.len(), memo.canonical.len()), (2, 1));
        let first = extract_component(&dag, &wcc.components[0]);
        let alone = schedule_component(&first.dag, r, &config, None).unwrap();
        let cost = alone
            .trace
            .validate(&first.dag, PrbpConfig::new(r))
            .unwrap();
        assert_eq!(scheduled.cost, 2 * cost);
        assert_eq!(
            scheduled.trace.validate(&dag, PrbpConfig::new(r)),
            Ok(2 * cost)
        );
    }

    #[test]
    fn an_edge_executor_without_a_trace_keeps_the_portfolio_schedule() {
        let dag = matmul(2, 2, 2).dag;
        let r = 4;
        let (_, trace, cost) = best_prbp(&dag, r, &default_suite()).unwrap();
        let mut best = Some((trace.clone(), cost));
        keep_cheaper(&mut best, None);
        assert_eq!(best, Some((trace.clone(), cost)));
        let mut none = None;
        keep_cheaper(&mut none, Some((trace.clone(), cost)));
        assert_eq!(none, Some((trace, cost)));
    }

    /// Two disjoint copies of `dag`, the second's ids shifted past the
    /// first's.
    fn twice(dag: &Dag) -> Dag {
        let n = dag.node_count();
        let mut b = DagBuilder::new();
        let nodes = b.add_nodes(2 * n);
        for copy in [0, n] {
            for e in dag.edges() {
                let (u, v) = dag.edge_endpoints(e);
                b.add_edge(nodes[copy + u.index()], nodes[copy + v.index()]);
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn thread_count_never_changes_the_answer() {
        let random = |layers, width, seed| {
            random_layered(RandomLayeredConfig {
                layers,
                width,
                max_in_degree: 3,
                seed,
            })
        };
        let rows: Vec<(&str, Dag, usize)> = vec![
            ("attention-full-8x4", attention_full(8, 4).dag, 8),
            ("random-24x24", random(24, 24, 5), 8),
            ("random-6x8-twice", twice(&random(6, 8, 3)), 4),
            ("random-20x16-twice", twice(&random(20, 16, 9)), 8),
            ("fft-256", fft(256).dag, 16),
            // Both greedy members meet the load-count bound here: the
            // first in suite order must win.
            ("fft-128-in-cache", fft(128).dag, 1024),
            ("matmul-8", matmul(8, 8, 8).dag, 24),
        ];
        // Every row but the small disjoint pair is above the beams' size,
        // where compose fans out when it has threads.
        let fanned = rows
            .iter()
            .filter(|row| row.1.node_count() > BEAM_MAX_NODES);
        assert_eq!(fanned.count(), rows.len() - 1);
        for (name, dag, r) in &rows {
            let run = |threads| {
                let config = ComposeConfig {
                    threads,
                    ..ComposeConfig::default()
                };
                compose_prbp(dag, *r, &config).unwrap()
            };
            let answer = |o: &ComposeOutcome| {
                let counts = (o.components, o.exact_components, o.composed_bound);
                (o.cost, o.strategy, counts)
            };
            let one = run(1);
            for threads in [2, 4] {
                let many = run(threads);
                assert_eq!(
                    many.trace.moves, one.trace.moves,
                    "{name}, {threads} threads"
                );
                assert_eq!(answer(&many), answer(&one), "{name}, {threads} threads");
            }
        }
    }

    #[test]
    fn compose_never_loses_to_the_portfolio() {
        for (dag, r) in [(fft(32).dag, 8usize), (matmul(4, 4, 4).dag, 12)] {
            let outcome = compose_prbp(&dag, r, &ComposeConfig::default()).unwrap();
            let (_, _, portfolio) = best_prbp(&dag, r, &default_suite()).unwrap();
            assert!(
                outcome.cost <= portfolio,
                "compose {} > portfolio {}",
                outcome.cost,
                portfolio
            );
            assert!(outcome.trace.validate(&dag, PrbpConfig::new(r)).is_ok());
        }
    }

    // The two full-size structure wins sweep several complete portfolio
    // passes and take minutes unoptimised; like E16 they are exercised in
    // release builds only (CI runs the pebble-sched suite in release).
    #[cfg(not(debug_assertions))]
    #[test]
    fn compose_beats_the_portfolio_on_banded_fft() {
        let dag = fft(64).dag;
        let r = 16;
        let outcome = compose_prbp(&dag, r, &ComposeConfig::default()).unwrap();
        let (_, _, portfolio) = best_prbp(&dag, r, &default_suite()).unwrap();
        assert!(
            outcome.cost < portfolio,
            "compose {} >= portfolio {}",
            outcome.cost,
            portfolio
        );
        assert!(matches!(outcome.strategy, Strategy::LevelBands { .. }));
        assert!(outcome.components > 1);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn compose_tiles_matmul() {
        let mm = matmul(8, 8, 8).dag;
        let r = 24;
        let outcome = compose_prbp(&mm, r, &ComposeConfig::default()).unwrap();
        let (_, _, portfolio) = best_prbp(&mm, r, &default_suite()).unwrap();
        assert!(outcome.cost < portfolio);
        assert!(matches!(outcome.strategy, Strategy::SinkCones { .. }));
    }

    /// A random relabelling of `dag`: nodes renumbered and edges inserted
    /// in a shuffled order.
    #[cfg(not(debug_assertions))]
    fn relabelled(dag: &Dag, seed: u64) -> Dag {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut perm: Vec<usize> = (0..dag.node_count()).collect();
        perm.shuffle(&mut rng);
        let id = |v: NodeId| NodeId::from_index(perm[v.index()]);
        let mut edges: Vec<(NodeId, NodeId)> = dag
            .edges()
            .map(|e| dag.edge_endpoints(e))
            .map(|(u, v)| (id(u), id(v)))
            .collect();
        edges.shuffle(&mut rng);
        let mut b = DagBuilder::new();
        b.add_nodes(dag.node_count());
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build().unwrap()
    }

    // The beams' cutoff must not change any portfolio answer. On relabelled
    // kernels like the ones `serve` sees (fft, matmul, attention Q.K^T,
    // binary and k-ary trees) at r = 8 and 16, every distinct component of
    // every compose candidate gets the same (scheduler, trace, cost) from
    // the cut sweep as from a full sweep of uncut runs. Release-only: the
    // full sweep runs every beam to its end.
    #[cfg(not(debug_assertions))]
    #[test]
    fn the_beam_cutoff_changes_no_component_answer() {
        let mut kernels: Vec<Dag> = [32, 64, 128, 256].map(|m| fft(m).dag).into();
        let matmuls = [
            (2, 2, 2),
            (2, 3, 4),
            (3, 3, 3),
            (4, 4, 4),
            (2, 8, 2),
            (4, 2, 8),
            (5, 5, 5),
            (6, 6, 6),
            (8, 8, 8),
            (3, 6, 8),
            (8, 4, 4),
            (7, 7, 7),
        ];
        kernels.extend(matmuls.map(|(m1, m2, m3)| matmul(m1, m2, m3).dag));
        let attention = [
            (4, 2),
            (4, 4),
            (6, 3),
            (8, 2),
            (8, 4),
            (8, 8),
            (12, 4),
            (16, 4),
        ];
        kernels.extend(attention.map(|(m, d)| attention_qk(m, d).dag));
        kernels.extend((3..=8).map(binary_tree));
        let trees = [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3)];
        kernels.extend(trees.map(|(k, depth)| kary_tree(k, depth).dag));
        let (mut components, mut cut) = (0, 0);
        for (i, kernel) in kernels.iter().enumerate() {
            let dag = relabelled(kernel, i as u64);
            for r in [8, 16] {
                let mut seen = HashSet::new();
                for strategy in candidates(r) {
                    let Some(decomposition) = decompose(&dag, strategy, None) else {
                        continue;
                    };
                    for component in &decomposition.components {
                        let sub = pebble_dag::decompose::extract_component(&dag, component).dag;
                        if !seen.insert(component_key(&sub)) {
                            continue;
                        }
                        let suite = component_suite(&sub);
                        let mut full: Option<(Scheduler, PrbpTrace, usize)> = None;
                        for &s in &suite {
                            let trace = s.run_prbp(&sub, r).unwrap();
                            let cost = trace.validate(&sub, PrbpConfig::new(r)).unwrap();
                            if full.as_ref().map_or(true, |&(_, _, c)| cost < c) {
                                full = Some((s, trace, cost));
                            }
                        }
                        let lower = load_count(&sub, r);
                        let swept = first_minimum(&suite, lower, None, |s, incumbent| {
                            let out = run_member(&sub, r, s, None, incumbent);
                            cut += usize::from(matches!(out, Swept::Cut(_)));
                            out
                        });
                        assert_eq!(swept, full, "kernel {i} at r = {r}, {strategy}");
                        components += 1;
                    }
                }
            }
        }
        // The sweep covers many components, and the cutoff stops beams on
        // them.
        assert!(components > 200, "{components} components");
        assert!(cut > components / 4, "{cut} of {components} cut");
    }

    #[test]
    fn compose_report_carries_the_compose_bound() {
        let dag = binary_tree(3);
        let certified = compose_certified(&dag, 4, &ComposeConfig::default()).unwrap();
        let report = &certified.report;
        assert_eq!(report.scheduler, "compose");
        assert!(report.bounds.iter().any(|b| b.name == "compose"));
        assert_eq!(report.cost, certified.outcome.cost);
        assert!(report.gap() >= 1.0);
        // The 15-node tree is within the exact budget: certified optimal.
        assert!((report.gap() - 1.0).abs() < 1e-9);
    }

    fn with_deadline(deadline: Duration) -> ComposeConfig {
        ComposeConfig {
            deadline: Some(deadline),
            ..ComposeConfig::default()
        }
    }

    #[test]
    fn compose_rejects_tiny_caches() {
        assert!(compose_prbp(&binary_tree(2), 1, &ComposeConfig::default()).is_none());
    }

    #[test]
    fn r_below_two_is_rejected() {
        for config in [ComposeConfig::default(), with_deadline(Duration::ZERO)] {
            let err = compose_certified(&fig1_full().dag, 1, &config).unwrap_err();
            assert_eq!(err, ComposeError::SmallR { r: 1 });
        }
    }

    #[test]
    fn a_generous_deadline_proves_fig1_optimal() {
        let dag = fig1_full().dag;
        let config = with_deadline(Duration::from_secs(30));
        let certified = compose_certified(&dag, 4, &config).unwrap();
        assert_eq!((certified.report.cost, certified.report.best_bound), (2, 2));
        assert_eq!(
            certified.outcome.trace.validate(&dag, PrbpConfig::new(4)),
            Ok(2)
        );
    }

    #[test]
    fn a_short_deadline_returns_a_certified_schedule() {
        let dag = fft(64).dag;
        let deadline = Duration::from_millis(200);
        let started = Instant::now();
        let certified = compose_certified(&dag, 8, &with_deadline(deadline)).unwrap();
        // Generous slack: a cut beam still greedy-completes, and
        // certification runs after the deadline.
        assert!(started.elapsed() < deadline + Duration::from_secs(5));
        let report = &certified.report;
        let replayed = certified.outcome.trace.validate(&dag, PrbpConfig::new(8));
        assert_eq!(replayed, Ok(report.cost));
        assert!(0 < report.best_bound && report.best_bound <= report.cost);
    }

    #[test]
    fn a_zero_deadline_has_no_incumbent() {
        // The check before the first candidate fires on any machine.
        let config = with_deadline(Duration::ZERO);
        let dag = fft(64).dag;
        let err = compose_certified(&dag, 8, &config).unwrap_err();
        assert_eq!(err, ComposeError::DeadlineNoIncumbent);
        assert!(compose_prbp(&dag, 8, &config).is_none());
    }

    #[test]
    fn a_zero_deadline_has_no_incumbent_side_by_side() {
        // Above the beams' size the whole-DAG members and the other
        // candidates' builds run side by side on two threads, and in turn
        // on one. A deadline that has passed on entry starts none of them.
        let dag = fft(128).dag;
        assert!(dag.node_count() > BEAM_MAX_NODES);
        for threads in [1, 2] {
            let config = ComposeConfig {
                threads,
                ..with_deadline(Duration::ZERO)
            };
            let err = compose_certified(&dag, 16, &config).unwrap_err();
            assert_eq!(err, ComposeError::DeadlineNoIncumbent, "threads {threads}");
        }
    }

    #[test]
    fn the_largest_cache_is_certified_optimal() {
        let dag = fft(8).dag;
        let certified = compose_certified(&dag, usize::MAX, &ComposeConfig::default()).unwrap();
        assert_eq!(certified.report.cost, certified.report.best_bound);
    }

    #[test]
    fn sink_caps_are_three_quarters_of_the_cache() {
        for r in [2usize, 3, 4, 5, 6, 7, 8, 17, 1 << 20] {
            assert_eq!(sink_cap(r), 3 * r / 4, "r = {r}");
        }
        assert_eq!(sink_cap(usize::MAX), (usize::MAX as u128 * 3 / 4) as usize);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn a_zero_deadline_fires_before_any_decomposition_is_built() {
        // Building the candidate decompositions of the 53,248-node FFT
        // takes over 100 ms; the deadline check comes before each one.
        let dag = fft(4096).dag;
        let config = with_deadline(Duration::ZERO);
        let started = Instant::now();
        let err = compose_certified(&dag, 16, &config).unwrap_err();
        let elapsed = started.elapsed();
        assert_eq!(err, ComposeError::DeadlineNoIncumbent);
        assert!(elapsed < Duration::from_millis(20), "took {elapsed:?}");
    }
}
