// Real-thread integration test: excluded from the `memtree_loom` model
// build, where sync primitives only work inside a minloom model.
#![cfg(not(memtree_loom))]

//! Allocation counts of the threaded executor's dispatch path
//! (DESIGN.md §6.4), in the image of `crates/sim/tests/alloc_count.rs`:
//! the driver core is allocation-free (§6.11), and worker stepping must
//! not spend that on the way to the other workers. The staging buffers
//! and the queue are sized once per run; per task the executor allocates
//! exactly one thing, the gang's shared `Arc<GangState>`, and per step
//! nothing.
//!
//! The shim lives in its own integration-test binary because a global
//! allocator is process-wide, and everything is one `#[test]` so no
//! concurrent test can perturb the counter between snapshots. Other
//! threads of the test process still can (the test harness's own), so
//! the single-threaded queue half reads a per-thread count; the executor
//! half spans worker threads and reads the process-wide one, with slack.

// `GlobalAlloc` is an unsafe trait by definition; this impl only forwards
// to `System` around a counter (the same sanctioned shim as in
// memtree_sim's alloc_count.rs — DESIGN.md §6.13, unsafe inventory).
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`-initialised and drop-free, so touching it from inside the
    // allocator neither allocates nor registers a destructor.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    // `try_with`: a thread being torn down may still allocate.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth realloc is an allocation for the purpose of the claim.
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use memtree_runtime::dispatch::BatchQueue;
use memtree_runtime::{execute, Workload};
use memtree_sched::MemBooking;
use memtree_sim::DriveConfig;
use memtree_tree::{TaskSpec, TaskTree};

const WORKERS: usize = 4;

/// Allocations by every thread of the process.
fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocations by the calling thread.
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Allocation count of one threaded no-op run (pool start-up and
/// scheduler state included — both are per-run constants).
fn allocs_for_run(tree: &TaskTree) -> u64 {
    let ao = memtree_order::mem_postorder(tree);
    let memory = ao.sequential_peak(tree) * 2;
    let before = allocs();
    let sched = MemBooking::try_new(tree, &ao, &ao, memory).expect("feasible");
    let cfg = DriveConfig {
        workers: WORKERS,
        memory,
    };
    let (_, stats) = execute(tree, cfg, sched, Workload::Noop, None).expect("run completes");
    let after = allocs();
    assert_eq!(stats.completed, tree.len());
    after - before
}

#[test]
fn dispatch_steady_state_does_not_allocate() {
    // The queue's side of one step, on the executor's own sizing: stage a
    // machine's worth of unit members and a whole-machine gang's counted
    // entry, flush them under one lock, pop each member as the workers
    // do, and withdraw a gang's leftover mates as its exiting member
    // does. After the first cycle nothing here may allocate. All of it
    // runs on this thread, so this thread's count is exact.
    let tasks = BatchQueue::<u32>::with_capacity(WORKERS);
    let mut staged: Vec<(u32, usize)> = Vec::with_capacity(WORKERS);
    let mut step = |round: u32| {
        staged.extend((0..WORKERS as u32).map(|k| (round + k, 1)));
        tasks.push_batch(&mut staged).expect("open");
        for _ in 0..WORKERS {
            tasks.pop().expect("flushed");
        }
        staged.push((round, WORKERS));
        tasks.push_batch(&mut staged).expect("open");
        tasks.pop().expect("flushed");
        assert_eq!(tasks.withdraw(|&gang| gang == round), WORKERS - 1);
    };
    step(0);
    let before = thread_allocs();
    for round in 1..10_000 {
        step(round);
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "the staging buffer or the queue reallocated in steady state"
    );

    // The whole executor: 10x the tasks must cost 10x the per-task gang
    // allocations and nothing else — no registry entry (no rescheduler is
    // attached), no staging-buffer or queue growth, no per-step scratch.
    // Caterpillar: bursts of parallel leaves plus a serial spine, so steps
    // launching every count from 0 to `WORKERS` tasks occur.
    let spine = TaskSpec::new(2, 6, 1.0);
    let leg = TaskSpec::new(1, 3, 1.0);
    let small = memtree_gen::shapes::caterpillar(250, 3, spine, leg);
    let big = memtree_gen::shapes::caterpillar(2_500, 3, spine, leg);
    allocs_for_run(&small); // absorbs one-time lazy init
    let a_small = allocs_for_run(&small);
    let a_big = allocs_for_run(&big);
    let extra_tasks = (big.len() - small.len()) as u64;
    let delta = a_big.saturating_sub(a_small);
    assert!(
        delta >= extra_tasks,
        "counting allocator not engaged: {delta} allocations for {extra_tasks} gangs"
    );
    assert!(
        delta <= extra_tasks + 8,
        "{a_big} vs {a_small} allocations: {delta} for {extra_tasks} extra tasks — \
         the dispatch path allocates beyond one GangState per task"
    );
}
