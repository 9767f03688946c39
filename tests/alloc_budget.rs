//! The warm trigger path's allocation budget.
//!
//! Once a session is warm, a chase step should cost no heap allocation
//! beyond the facts it adds: the executor's registers, the trigger keys,
//! the delta-match and revalidation collections and the fired trigger's
//! assignment all live in reused scratch. This test loads the
//! `big_tenant` travel shape (100k facts over 2,500 cities, 1000-fact
//! batches, flights first, then rails) into one [`ChaseSession`] and
//! counts the heap allocations each `apply` makes, per applied fact,
//! separately for the `fly` batches (mostly satisfied triggers: probes
//! only) and the `rail` batches (one chase step per fact).
//!
//! The counting allocator counts per thread, so the test harness's other
//! threads do not add to the count. Both a fresh allocation and a
//! `realloc` count as one.
//!
//! The budget holds on optimized builds only (`cargo test --release --test
//! alloc_budget`). A debug build checks, at every satisfied stop, that the
//! instance satisfies Σ through the backtracking searcher
//! (`ConstraintSet::satisfied_by`), an oracle kept independent of the
//! matcher under test; its allocations, about 250 per `fly` fact and 810
//! per `rail` fact here, are the oracle's and not the trigger path's.

use chase_core::{Atom, ConstraintSet, Sym};
use chase_corpus::random::{random_travel_instance, RandomTravelConfig};
use chase_serve::ChaseSession;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches only
// a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations per applied fact: the counts measured when the trigger path
/// stopped allocating per step (2.77 per rail fact, 0.60 per fly fact),
/// plus 25%. What remains is the facts themselves: the atom each step
/// adds, the step's `added` list, and the store's and the pool's amortized
/// growth. Before, the same load read 30.65 and 9.34.
const RAIL_BUDGET: f64 = 3.5;
const FLY_BUDGET: f64 = 0.75;

#[derive(Default)]
struct Tally {
    allocs: u64,
    facts: u64,
}

impl Tally {
    fn per_fact(&self) -> f64 {
        self.allocs as f64 / self.facts as f64
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug builds run the allocating satisfied-stop oracle; run with --release"
)]
fn a_warm_apply_allocates_within_its_budget_per_fact() {
    let sigma = ConstraintSet::parse(
        "fly(C1,C2,D) -> hasAirport(C1), hasAirport(C2); rail(C1,C2,D) -> rail(C2,C1,D)",
    )
    .unwrap();
    let base = random_travel_instance(&RandomTravelConfig {
        cities: 2500,
        flights: 50_000,
        rails: 50_000,
        seed: 7,
    });
    let batches: Vec<Vec<Atom>> = base.atoms().chunks(1000).map(<[Atom]>::to_vec).collect();
    let (fly, rail) = (Sym::new("fly"), Sym::new("rail"));
    let mut session = ChaseSession::new(sigma);
    let (mut flights, mut rails) = (Tally::default(), Tally::default());
    for batch in batches {
        // A batch straddling the fly/rail boundary counts toward neither.
        let tally = if batch.iter().all(|a| a.pred() == fly) {
            Some(&mut flights)
        } else if batch.iter().all(|a| a.pred() == rail) {
            Some(&mut rails)
        } else {
            None
        };
        let facts = batch.len() as u64;
        let before = allocs();
        let out = session.apply(batch).expect("a travel batch applies");
        let spent = allocs() - before;
        assert!(out.steps <= out.new_facts, "at most one step per fact");
        if let Some(tally) = tally {
            tally.allocs += spent;
            tally.facts += facts;
        }
    }
    assert!(flights.facts >= 40_000 && rails.facts >= 40_000);
    println!(
        "allocations per applied fact: fly {:.2} (budget {FLY_BUDGET}), rail {:.2} (budget {RAIL_BUDGET})",
        flights.per_fact(),
        rails.per_fact()
    );
    assert!(
        flights.per_fact() <= FLY_BUDGET,
        "fly batches: {:.2} allocations per fact, budget {FLY_BUDGET}",
        flights.per_fact()
    );
    assert!(
        rails.per_fact() <= RAIL_BUDGET,
        "rail batches: {:.2} allocations per fact, budget {RAIL_BUDGET}",
        rails.per_fact()
    );
}
