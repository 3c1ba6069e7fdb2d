//! Allocation-count regression probe for the interned state store.
//!
//! The engine's transposition table interns each distinct packed state as a
//! single shared `Arc<[u64]>` allocation; expansion writes candidate
//! successors into a reused scratch buffer and only allocates when a state
//! is genuinely new. The invariant this buys: the allocation count of a
//! solve scales with *distinct* states, not with *generated* ones (which
//! outnumber distinct by the branching factor). A regression to
//! per-candidate cloning multiplies allocations by that factor and trips
//! the bound below.
//!
//! The probe is a counting `#[global_allocator]` around a fixed instance —
//! kept in its own integration-test binary so no other test's allocations
//! pollute the count.

use pebble_dag::generators::fig1_full;
use pebble_game::engine::{solve_prbp, EngineConfig};
use pebble_game::exact::LoadCountHeuristic;
use pebble_game::prbp::PrbpConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn solve_allocations_scale_with_distinct_states_not_generated() {
    let f = fig1_full();
    let config = PrbpConfig::new(2);
    let engine = EngineConfig::default();

    // Warm-up run: pays for lazy one-time initialisation (thread-locals,
    // the DAG's own caches) so the measured run is the steady state.
    let warm = solve_prbp(&f.dag, config, &engine, &LoadCountHeuristic, None)
        .expect("fig1 solves at r = 2");

    let before = ALLOCATIONS.load(Relaxed);
    let solved = solve_prbp(&f.dag, config, &engine, &LoadCountHeuristic, None)
        .expect("fig1 solves at r = 2");
    let during = ALLOCATIONS.load(Relaxed) - before;

    assert_eq!(solved.cost, warm.cost, "repeat solve must be deterministic");
    let distinct = solved.stats.distinct;
    let generated = solved.stats.generated;
    // The probe only bites if duplication is real on this instance —
    // otherwise distinct ≈ generated and the bound proves nothing.
    assert!(
        generated >= 2 * distinct,
        "instance too easy to probe: generated {generated} vs distinct {distinct}"
    );
    // One interned Arc per distinct state, plus amortised container growth
    // and constant scratch. Per-candidate cloning would cost at least one
    // allocation per generated state and blow through this.
    let budget = 2 * distinct + 1024;
    assert!(
        during <= budget,
        "solve allocated {during} times for {distinct} distinct states \
         (budget {budget}); per-state single-allocation interning regressed"
    );
}
