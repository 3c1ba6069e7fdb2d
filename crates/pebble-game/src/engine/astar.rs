//! The engine's sequential A* loop.
//!
//! ## Soundness of the incumbent pruning
//!
//! The loop prunes a state with `f = g + h > incumbent` once an incumbent
//! (a validated complete pebbling) exists. Since `h` is admissible, `f`
//! lower-bounds the cost of every completion through the state, so no
//! strictly-better-than-incumbent solution is lost; keeping `f = incumbent`
//! states guarantees the search still *reaches* an optimal goal whenever
//! the incumbent is optimal, which is what makes the final parent-chain
//! reconstruction consistent.

use super::domain::Domain;
use super::table::Transposition;
use super::{EngineConfig, RawOutcome, StopReason};
use crate::exact::heuristic::LowerBound;
use crate::exact::{ExactError, SearchStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Target bytes copied between mid-expansion stop checks; the per-successor
/// check interval scales inversely with the state size so huge states still
/// honour deadlines promptly.
const GEN_CHECK_WORDS: usize = 1 << 18;

fn gen_check_interval(words_len: usize) -> usize {
    (GEN_CHECK_WORDS / words_len.max(1)).max(16)
}

pub(super) fn stop_requested(deadline_at: Option<Instant>) -> Option<StopReason> {
    deadline_at
        .is_some_and(|d| Instant::now() >= d)
        .then_some(StopReason::Deadline)
}

/// The sequential A* loop. With no seed and no deadline this is exactly the
/// legacy solver loop: same expansion order, same interning order, same
/// statistics.
pub(crate) fn solve_seq<D: Domain>(
    domain: &D,
    engine: &EngineConfig,
    deadline_at: Option<Instant>,
    heuristic: &dyn LowerBound,
    seed: Option<(usize, Vec<D::Move>)>,
) -> Result<RawOutcome<D::Move>, ExactError> {
    let start = domain.start_words();
    let h0 = domain.h(heuristic, &start);
    // Anytime bookkeeping (incumbent tracking + pruning) only switches on
    // for a seeded or deadline-bound solve, so the plain path stays
    // bit-for-bit the legacy search.
    let anytime = seed.is_some() || deadline_at.is_some();
    let mut incumbent: Option<(usize, Vec<D::Move>)> = seed;
    let mut incumbent_cost = incumbent.as_ref().map_or(usize::MAX, |&(c, _)| c);

    let mut tt: Transposition<D::Move> = Transposition::new(&start);
    let mut heap: BinaryHeap<Reverse<(usize, usize, u32)>> = BinaryHeap::new();
    heap.push(Reverse((h0, 0, 0)));

    let mut stats = SearchStats::default();
    let mut scratch: Vec<u64> = vec![0; start.len()];
    let gen_check = gen_check_interval(start.len());
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
        if let Some(reason) = stop_requested(deadline_at) {
            stopped = Some(reason);
            break 'search;
        }
        stats.expanded += 1;

        let completed = domain.expand(&cur, &mut scratch, &mut |words, mv, cost| {
            stats.generated += 1;
            if deadline_at.is_some() && stats.generated % gen_check == 0 {
                if let Some(reason) = stop_requested(deadline_at) {
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

    match (stopped, incumbent) {
        // Heap exhausted. With an incumbent the pruned search proved that
        // nothing cheaper exists; without one the instance has no pebbling
        // at all.
        (None, Some((cost, moves))) => Ok(RawOutcome {
            cost,
            moves,
            bound: cost,
            proven: true,
            stats,
            stop: StopReason::Completed,
        }),
        (None, None) => Err(ExactError::Unsolvable),
        // An early stop returns the best validated incumbent when one
        // exists, the matching error otherwise.
        (Some(reason), Some((cost, moves))) => Ok(RawOutcome {
            cost,
            moves,
            bound: h0,
            proven: cost == h0,
            stats,
            stop: reason,
        }),
        (Some(StopReason::Budget), None) => Err(ExactError::StateLimitExceeded {
            explored: stats.distinct,
        }),
        (Some(_), None) => Err(ExactError::Interrupted {
            explored: stats.distinct,
        }),
    }
}
