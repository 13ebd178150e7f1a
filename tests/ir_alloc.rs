//! Pins how often the schedule IR and the dispatch path touch the heap. A
//! scatter/gather list holding at most one range stores it inline, so
//! building, cloning, slicing and concatenating such lists allocates
//! nothing, and cloning a lowered plan allocates its step vector plus one
//! vector per list of two or more ranges — nothing per single-range list. A
//! warm `registry::execute` allocates its output and nothing else.

use exacoll::collectives::registry::{candidates, execute, lower};
use exacoll::collectives::schedule::{Schedule, SgList, Step};
use exacoll::collectives::{Algorithm, CollArgs, CollectiveOp};
use exacoll::comm::run_ranks;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the calling thread's allocations (the
/// test harness runs tests on parallel threads).
struct Counting;

thread_local! {
    // `const`-initialised and without a destructor: reading it never
    // allocates, so the allocator may touch it.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method passes its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; counting touches no memory it hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and how many allocations it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn single_range_lists_never_allocate() {
    let (a, n) = allocations(|| SgList::from(0..64));
    assert_eq!(n, 0, "SgList::from");
    let (b, n) = allocations(|| a.clone());
    assert_eq!(n, 0, "clone");
    let (s, n) = allocations(|| b.slice(8, 16));
    assert_eq!(n, 0, "slice inside one range");
    assert_eq!(s, SgList::from(8..24));
    let c = SgList::from(64..96);
    let (j, n) = allocations(|| SgList::concat([&a, &c]));
    assert_eq!(n, 0, "concat of touching ranges");
    assert_eq!(j, SgList::from(0..96));
    let (e, n) = allocations(|| SgList::concat([&SgList::empty(), &SgList::from(5..5)]));
    assert_eq!((e.is_empty(), n), (true, 0), "empty lists");
}

#[test]
fn a_second_disjoint_range_is_the_first_allocation() {
    let mut s = SgList::from(0..8);
    let ((), n) = allocations(|| s.push(8..12));
    assert_eq!(n, 0, "a touching range coalesces in place");
    let ((), n) = allocations(|| s.push(16..20));
    assert_eq!(n, 1, "a disjoint second range moves the list to the heap");
    assert_eq!(s.ranges(), [0..12, 16..20]);
}

/// Every scatter/gather list a plan holds: its views and each step's
/// operands.
fn lists(s: &Schedule) -> Vec<&SgList> {
    let mut out = vec![&s.input, &s.output];
    for step in &s.steps {
        match step {
            Step::Send { src, .. } => out.push(src),
            Step::Recv { dst, .. } => out.push(dst),
            Step::SendRecv { src, dst, .. } | Step::Compute { src, dst, .. } => {
                out.extend([src, dst])
            }
            Step::RoundMark { .. } => {}
        }
    }
    out
}

/// Clone `plan`, check the copy and its allocation count, and return how
/// many of its lists hold two or more ranges.
fn check_clone(plan: &Schedule, what: &str) -> usize {
    let multi = lists(plan).iter().filter(|l| l.ranges().len() >= 2).count();
    let (copy, n) = allocations(|| plan.clone());
    assert_eq!(&copy, plan);
    assert_eq!(
        n,
        1 + multi,
        "{what}: 1 step vector + {multi} multi-range lists"
    );
    multi
}

#[test]
fn cloning_a_plan_allocates_its_steps_and_its_multi_range_lists() {
    let p = 8;
    let args = CollArgs::new(
        CollectiveOp::Allreduce,
        Algorithm::RecursiveMultiplying { k: 2 },
    );
    for rank in 0..p {
        // Every list of this plan is a single range: one allocation.
        let multi = check_clone(
            &lower(&args, p, rank, 4096),
            &format!("recmult:2 rank {rank}"),
        );
        assert_eq!(multi, 0, "rank {rank}");
    }
    // The same count over every candidate of every collective at p = 8,
    // some of which do hold multi-range lists (Bruck rotations, v-rank
    // unshuffles, interleaved layouts).
    let mut multi_total = 0;
    for op in CollectiveOp::ALL {
        for alg in candidates(op, p, 4) {
            for rank in 0..p {
                let plan = lower(&CollArgs::new(op, alg), p, rank, 4096);
                multi_total += check_clone(&plan, &format!("{op} {alg:?} rank {rank}"));
            }
        }
    }
    assert!(multi_total > 0, "no multi-range list anywhere at p = 8");
}

/// DESIGN §16.4(3): a steady-state dispatch reuses the plan the cache holds
/// and this thread's executor — its scratch buffer and arenas — so the one
/// allocation left is the output.
#[test]
fn a_warm_execute_allocates_only_its_output() {
    let args = CollArgs::new(
        CollectiveOp::Allreduce,
        Algorithm::RecursiveMultiplying { k: 2 },
    );
    let counts = run_ranks(1, |c| {
        let input: Vec<u8> = (0..=255).collect();
        assert_eq!(execute(c, &args, &input)?, input, "warm-up");
        let (out, n) = allocations(|| execute(c, &args, &input));
        assert_eq!(out?, input);
        Ok(n)
    });
    assert_eq!(counts, [1]);
}
