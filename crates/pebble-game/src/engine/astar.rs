//! The two A* loops of the engine: the sequential loop (bit-for-bit the
//! legacy solver behaviour at `workers = 1`) and the HDA*-style parallel
//! loop (hashed work distribution over a mutex-striped shared table).
//!
//! ## Soundness of the incumbent pruning
//!
//! Both loops prune a state with `f = g + h > incumbent` once an incumbent
//! (a validated complete pebbling) exists. Since `h` is admissible, `f`
//! lower-bounds the cost of every completion through the state, so no
//! strictly-better-than-incumbent solution is lost; keeping `f = incumbent`
//! states guarantees the search still *reaches* an optimal goal whenever
//! the incumbent is optimal, which is what makes the final parent-chain
//! reconstruction consistent at quiescence.
//!
//! ## Parallel termination
//!
//! Every enqueued heap entry is counted in a global `pending` counter
//! (incremented before the entry is sent to its owning worker, decremented
//! after the owner finished processing it). A worker observing an empty
//! local heap *and* `pending == 0` knows the whole search is quiescent: any
//! active worker still expanding holds its own popped entry un-decremented.

use super::domain::Domain;
use super::table::{hash_words, SharedTable, Transposition};
use super::{EngineConfig, Progress, RawOutcome, StopReason};
use crate::exact::heuristic::LowerBound;
use crate::exact::{ExactError, SearchStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicIsize, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Pop-count between cooperative stop checks.
const BATCH: usize = 64;

/// Target bytes copied between mid-expansion stop checks; the per-successor
/// check interval scales inversely with the state size so huge states still
/// honour deadlines promptly.
const GEN_CHECK_WORDS: usize = 1 << 18;

fn gen_check_interval(words_len: usize) -> usize {
    (GEN_CHECK_WORDS / words_len.max(1)).max(16)
}

pub(super) fn stop_requested(
    deadline_at: Option<Instant>,
    engine: &EngineConfig,
) -> Option<StopReason> {
    if engine.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
        return Some(StopReason::Cancelled);
    }
    if deadline_at.is_some_and(|d| Instant::now() >= d) {
        return Some(StopReason::Deadline);
    }
    None
}

/// The sequential A* loop. With no seed, progress channel, deadline or
/// cancel token this is exactly the legacy solver loop: same expansion
/// order, same interning order, same statistics.
pub(crate) fn solve_seq<D: Domain>(
    domain: &D,
    engine: &EngineConfig,
    deadline_at: Option<Instant>,
    heuristic: &dyn LowerBound,
    seed: Option<(usize, Vec<D::Move>)>,
    progress: Option<&Progress<D::Move>>,
) -> Result<RawOutcome<D::Move>, ExactError> {
    let start = domain.start_words();
    let h0 = domain.h(heuristic, &start);
    if let Some(p) = progress {
        p.raise_bound(h0);
    }
    // Anytime bookkeeping (incumbent tracking + pruning) only switches on
    // when the caller opted into any anytime feature, so the plain wrapper
    // path stays bit-for-bit the legacy search.
    let anytime =
        seed.is_some() || progress.is_some() || deadline_at.is_some() || engine.cancel.is_some();
    let mut incumbent: Option<(usize, Vec<D::Move>)> = seed;
    let mut incumbent_cost = incumbent.as_ref().map_or(usize::MAX, |&(c, _)| c);

    let mut tt: Transposition<D::Move> = Transposition::new(&start);
    let mut heap: BinaryHeap<Reverse<(usize, usize, u32)>> = BinaryHeap::new();
    heap.push(Reverse((h0, 0, 0)));

    let mut stats = SearchStats::default();
    let mut scratch: Vec<u64> = vec![0; start.len()];
    let gen_check = gen_check_interval(start.len());
    let checks = deadline_at.is_some() || engine.cancel.is_some();
    let mut pops = 0usize;
    let mut stopped: Option<StopReason> = None;

    'search: while let Some(Reverse((f, g, idx))) = heap.pop() {
        if g > tt.slot(idx).g {
            continue;
        }
        if anytime && f > incumbent_cost {
            continue;
        }
        let cur = Arc::clone(&tt.slot(idx).key);
        if domain.is_goal(&cur) {
            let moves = tt.reconstruct_moves(idx);
            stats.distinct = tt.len();
            if let Some(p) = progress {
                p.publish(g, moves.clone());
                p.raise_bound(g);
            }
            return Ok(RawOutcome {
                cost: g,
                moves,
                bound: g,
                proven: true,
                stats,
                stop: StopReason::Completed,
            });
        }
        if let Some(budget) = engine.node_budget {
            if tt.len() > budget {
                stopped = Some(StopReason::Budget);
                break 'search;
            }
        }
        pops += 1;
        if checks && pops % BATCH == 0 {
            if let Some(reason) = stop_requested(deadline_at, engine) {
                stopped = Some(reason);
                break 'search;
            }
        }
        stats.expanded += 1;

        let completed = domain.expand(&cur, &mut scratch, &mut |words, mv, cost| {
            stats.generated += 1;
            if checks && stats.generated % gen_check == 0 {
                if let Some(reason) = stop_requested(deadline_at, engine) {
                    stopped = Some(reason);
                    return false;
                }
            }
            let new_g = g + cost;
            let i = tt.intern(words);
            let slot = tt.slot_mut(i);
            if new_g < slot.g {
                slot.g = new_g;
                slot.parent = Some((idx, mv));
                let f_child = new_g + domain.h(heuristic, words);
                if !(anytime && f_child > incumbent_cost) {
                    heap.push(Reverse((f_child, new_g, i)));
                }
                // Anytime incumbent: a successor that is already terminal is
                // a complete schedule — validate and publish it immediately,
                // long before A* would pop it.
                if anytime && new_g < incumbent_cost && domain.is_goal(words) {
                    let moves = tt.reconstruct_moves(i);
                    if let Some(validated) = domain.validate_moves(&moves) {
                        if validated < incumbent_cost {
                            incumbent_cost = validated;
                            if let Some(p) = progress {
                                p.publish(validated, moves.clone());
                            }
                            incumbent = Some((validated, moves));
                        }
                    }
                }
            }
            true
        });
        if !completed {
            break 'search;
        }
    }
    stats.distinct = tt.len();

    match stopped {
        None => {
            // Heap exhausted. With an incumbent the pruned search proved
            // that nothing cheaper exists; without one the instance has no
            // pebbling at all.
            match incumbent {
                Some((cost, moves)) => {
                    if let Some(p) = progress {
                        p.raise_bound(cost);
                    }
                    Ok(RawOutcome {
                        cost,
                        moves,
                        bound: cost,
                        proven: true,
                        stats,
                        stop: StopReason::Completed,
                    })
                }
                None => Err(ExactError::Unsolvable),
            }
        }
        Some(reason) => early_outcome(reason, incumbent, h0, stats),
    }
}

/// Map an early stop into the caller-visible result: the best validated
/// incumbent when one exists, the matching error otherwise.
fn early_outcome<M>(
    reason: StopReason,
    incumbent: Option<(usize, Vec<M>)>,
    h0: usize,
    stats: SearchStats,
) -> Result<RawOutcome<M>, ExactError> {
    match incumbent {
        Some((cost, moves)) => Ok(RawOutcome {
            cost,
            moves,
            bound: h0,
            proven: cost == h0,
            stats,
            stop: reason,
        }),
        None => match reason {
            StopReason::Budget => Err(ExactError::StateLimitExceeded {
                explored: stats.distinct,
            }),
            _ => Err(ExactError::Interrupted {
                explored: stats.distinct,
            }),
        },
    }
}

/// Heap key for the parallel workers: the interned state, ordered
/// lexicographically so `(f, g, key)` tuples have a total order.
struct KeyOrd(Arc<[u64]>);

impl PartialEq for KeyOrd {
    fn eq(&self, other: &Self) -> bool {
        self.0.as_ref() == other.0.as_ref()
    }
}
impl Eq for KeyOrd {}
impl PartialOrd for KeyOrd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KeyOrd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.as_ref().cmp(other.0.as_ref())
    }
}

type Msg = (usize, usize, Arc<[u64]>);

struct ParShared<'p, M> {
    table: SharedTable<M>,
    inboxes: Vec<Mutex<Vec<Msg>>>,
    /// Heap entries alive anywhere in the system (local heaps + inboxes +
    /// the one a worker is currently expanding).
    pending: AtomicIsize,
    /// 0 = running; otherwise a `StopReason` code (first writer wins).
    stop: AtomicU8,
    incumbent_cost: AtomicUsize,
    best: Mutex<Option<(usize, Vec<M>)>>,
    best_goal: Mutex<Option<(usize, Arc<[u64]>)>>,
    expanded: AtomicUsize,
    generated: AtomicUsize,
    progress: Option<&'p Progress<M>>,
}

const STOP_DEADLINE: u8 = 1;
const STOP_BUDGET: u8 = 2;
const STOP_CANCELLED: u8 = 3;

impl<M: Copy + Send> ParShared<'_, M> {
    fn request_stop(&self, code: u8) {
        let _ = self
            .stop
            .compare_exchange(0, code, Ordering::SeqCst, Ordering::SeqCst);
    }

    fn publish_best(&self, cost: usize, moves: Vec<M>) {
        self.incumbent_cost.fetch_min(cost, Ordering::AcqRel);
        let mut best = self.best.lock().expect("best poisoned");
        if best.as_ref().map_or(true, |&(c, _)| cost < c) {
            if let Some(p) = self.progress {
                p.publish(cost, moves.clone());
            }
            *best = Some((cost, moves));
        }
    }
}

/// The HDA* parallel loop: every successor state is routed to the worker
/// owning its hash, relaxations go through the shared striped table, and the
/// answer (though not the effort statistics) is deterministic.
pub(crate) fn solve_par<D: Domain>(
    domain: &D,
    engine: &EngineConfig,
    deadline_at: Option<Instant>,
    workers: usize,
    heuristic: &dyn LowerBound,
    seed: Option<(usize, Vec<D::Move>)>,
    progress: Option<&Progress<D::Move>>,
) -> Result<RawOutcome<D::Move>, ExactError> {
    let start = domain.start_words();
    let h0 = domain.h(heuristic, &start);
    if let Some(p) = progress {
        p.raise_bound(h0);
    }
    if domain.is_goal(&start) {
        return Ok(RawOutcome {
            cost: 0,
            moves: Vec::new(),
            bound: 0,
            proven: true,
            stats: SearchStats {
                distinct: 1,
                ..Default::default()
            },
            stop: StopReason::Completed,
        });
    }

    let shared: ParShared<'_, D::Move> = ParShared {
        table: SharedTable::new(workers * 8),
        inboxes: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
        pending: AtomicIsize::new(0),
        stop: AtomicU8::new(0),
        incumbent_cost: AtomicUsize::new(usize::MAX),
        best: Mutex::new(None),
        best_goal: Mutex::new(None),
        expanded: AtomicUsize::new(0),
        generated: AtomicUsize::new(0),
        progress,
    };
    if let Some((cost, moves)) = &seed {
        shared.incumbent_cost.store(*cost, Ordering::Release);
        if let Some(p) = progress {
            p.publish(*cost, moves.clone());
        }
        *shared.best.lock().expect("best poisoned") = Some((*cost, moves.clone()));
    }

    let start_hash = hash_words(&start);
    let owner = |hash: u64| ((hash >> 32) as usize) % workers;
    let start_key = shared
        .table
        .relax(&start, start_hash, 0, None)
        .expect("start state is fresh");
    shared.pending.store(1, Ordering::SeqCst);
    shared.inboxes[owner(start_hash)]
        .lock()
        .expect("inbox poisoned")
        .push((h0, 0, start_key));

    let words_len = start.len();
    let gen_check = gen_check_interval(words_len);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let shared = &shared;
            scope.spawn(move || {
                let mut heap: BinaryHeap<Reverse<(usize, usize, KeyOrd)>> = BinaryHeap::new();
                let mut scratch = vec![0u64; words_len];
                let mut idle_spins = 0u32;
                // Per-worker effort, folded into the sharded observability
                // counters once at loop exit (never inside the hot loop).
                let mut my_expanded = 0usize;
                let mut my_generated = 0usize;
                loop {
                    if shared.stop.load(Ordering::Relaxed) != 0 {
                        break;
                    }
                    {
                        let mut inbox = shared.inboxes[w].lock().expect("inbox poisoned");
                        if !inbox.is_empty() {
                            for (f, g, key) in inbox.drain(..) {
                                heap.push(Reverse((f, g, KeyOrd(key))));
                            }
                        }
                    }
                    if engine.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                        shared.request_stop(STOP_CANCELLED);
                        continue;
                    }
                    if deadline_at.is_some_and(|d| Instant::now() >= d) {
                        shared.request_stop(STOP_DEADLINE);
                        continue;
                    }
                    let Some(Reverse((f, g, key))) = heap.pop() else {
                        if shared.pending.load(Ordering::SeqCst) == 0 {
                            break;
                        }
                        idle_spins += 1;
                        if idle_spins > 64 {
                            std::thread::sleep(std::time::Duration::from_micros(50));
                        } else {
                            std::thread::yield_now();
                        }
                        continue;
                    };
                    idle_spins = 0;
                    let key = key.0;
                    if f > shared.incumbent_cost.load(Ordering::Relaxed)
                        || g > shared.table.g_of(&key)
                    {
                        shared.pending.fetch_sub(1, Ordering::SeqCst);
                        continue;
                    }
                    shared.expanded.fetch_add(1, Ordering::Relaxed);
                    my_expanded += 1;
                    let mut local_gen = 0usize;
                    domain.expand(&key, &mut scratch, &mut |words, mv, cost| {
                        local_gen += 1;
                        if local_gen % gen_check == 0 {
                            if engine.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                                shared.request_stop(STOP_CANCELLED);
                                return false;
                            }
                            if deadline_at.is_some_and(|d| Instant::now() >= d) {
                                shared.request_stop(STOP_DEADLINE);
                                return false;
                            }
                        }
                        let new_g = g + cost;
                        if new_g > shared.incumbent_cost.load(Ordering::Relaxed) {
                            return true;
                        }
                        let hash = hash_words(words);
                        let Some(child_key) =
                            shared
                                .table
                                .relax(words, hash, new_g, Some((Arc::clone(&key), mv)))
                        else {
                            return true;
                        };
                        if domain.is_goal(words) {
                            // A realized complete pebbling: `new_g` is the
                            // cost of a concrete move path, hence a sound
                            // upper bound for pruning even before the trace
                            // itself is (re-)validated below.
                            let prev = shared.incumbent_cost.fetch_min(new_g, Ordering::AcqRel);
                            if new_g < prev {
                                // Another worker may lower an ancestor's g
                                // between the relaxation and the
                                // reconstruction, so the chain can already
                                // cost less than `new_g`. Record what it
                                // costs: `publish_best` lowers the incumbent
                                // to that, and the goal must match it.
                                let mut goal_g = new_g;
                                if let Some(moves) = shared.table.reconstruct_moves(&child_key) {
                                    if let Some(validated) = domain.validate_moves(&moves) {
                                        goal_g = validated;
                                        shared.publish_best(validated, moves);
                                    }
                                }
                                let mut bg = shared.best_goal.lock().expect("best_goal poisoned");
                                if bg.as_ref().map_or(true, |&(c, _)| goal_g < c) {
                                    *bg = Some((goal_g, Arc::clone(&child_key)));
                                }
                            }
                            return true;
                        }
                        let f_child = new_g + domain.h(heuristic, words);
                        if f_child > shared.incumbent_cost.load(Ordering::Relaxed) {
                            return true;
                        }
                        shared.pending.fetch_add(1, Ordering::SeqCst);
                        shared.inboxes[owner(hash)]
                            .lock()
                            .expect("inbox poisoned")
                            .push((f_child, new_g, child_key));
                        true
                    });
                    shared.generated.fetch_add(local_gen, Ordering::Relaxed);
                    my_generated += local_gen;
                    if let Some(budget) = engine.node_budget {
                        if shared.table.distinct() > budget {
                            shared.request_stop(STOP_BUDGET);
                        }
                    }
                    shared.pending.fetch_sub(1, Ordering::SeqCst);
                }
                super::obs::record_worker(w, my_expanded, my_generated);
            });
        }
    });

    let stats = SearchStats {
        expanded: shared.expanded.load(Ordering::Relaxed),
        generated: shared.generated.load(Ordering::Relaxed),
        distinct: shared.table.distinct(),
    };
    let stop_code = shared.stop.load(Ordering::SeqCst);
    if stop_code != 0 {
        let reason = match stop_code {
            STOP_DEADLINE => StopReason::Deadline,
            STOP_BUDGET => StopReason::Budget,
            _ => StopReason::Cancelled,
        };
        let incumbent = shared.best.into_inner().expect("best poisoned");
        return early_outcome(reason, incumbent, h0, stats);
    }

    // Quiescence: the search space (pruned at `f > incumbent`) is exhausted.
    let best_goal = shared.best_goal.into_inner().expect("best_goal poisoned");
    match best_goal {
        Some((goal_g, key)) => {
            let moves = shared
                .table
                .reconstruct_moves(&key)
                .expect("parent chain is consistent at quiescence");
            let cost = domain
                .validate_moves(&moves)
                .expect("reconstructed chain replays as a legal pebbling");
            debug_assert_eq!(cost, goal_g, "quiescent chain cost mismatch");
            let incumbent = shared.incumbent_cost.load(Ordering::SeqCst).min(cost);
            if let Some(p) = progress {
                p.publish(cost, moves.clone());
                p.raise_bound(incumbent);
            }
            Ok(RawOutcome {
                cost,
                moves,
                bound: incumbent,
                proven: cost == incumbent,
                stats,
                stop: StopReason::Completed,
            })
        }
        None => match shared.best.into_inner().expect("best poisoned") {
            // The pruned space held nothing cheaper than the seed: the seed
            // itself is optimal.
            Some((cost, moves)) => {
                if let Some(p) = progress {
                    p.raise_bound(cost);
                }
                Ok(RawOutcome {
                    cost,
                    moves,
                    bound: cost,
                    proven: true,
                    stats,
                    stop: StopReason::Completed,
                })
            }
            None => Err(ExactError::Unsolvable),
        },
    }
}
