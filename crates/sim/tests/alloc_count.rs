//! The allocation-counting shim behind the zero-allocation claim
//! (DESIGN.md §6.11): the event loop's steady state must not allocate.
//!
//! A counting `#[global_allocator]` wraps the system allocator; the test
//! runs the same policy on a small and a 10×-larger tree and asserts the
//! allocation *count* difference stays below a small constant. Any
//! per-event allocation in the driver, the sim backend or a scheduler
//! would show up ~`events` times (tens of thousands here) — a O(1)
//! threshold makes the property unmissable. Setup allocations (tree
//! construction, scheduler state, pre-sized buffers) are per-run
//! constants and cancel out in the comparison.
//!
//! The shim lives in its own integration-test binary because a global
//! allocator is process-wide, and everything is one `#[test]` so no
//! concurrent test can perturb the counter between snapshots.

// The single sanctioned `unsafe` in the workspace (every lib crate is
// `#![forbid(unsafe_code)]`): `GlobalAlloc` is an unsafe trait by
// definition, and this impl only forwards to `System` around a counter.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth realloc is an allocation for the purpose of the claim:
        // a per-event buffer growth would still scale with events.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use memtree_runtime::{Platform, SimPlatform};
use memtree_sched::{AllotmentCaps, HeuristicKind, PolicySpec, ProportionalRescheduler};
use memtree_sim::{simulate, simulate_summary, SimConfig};
use memtree_tree::{TaskSpec, TaskTree};

/// Allocation count of one full sim run (scheduler minting included —
/// its state is a per-run constant too).
fn allocs_for_run(tree: &TaskTree, kind: HeuristicKind, p: usize) -> u64 {
    let spec = PolicySpec::new(kind, 0);
    let memory = spec.min_feasible(tree).saturating_mul(2);
    let spec = spec.with_memory(memory);
    let instance = spec.instantiate(tree).expect("spec instantiates");
    let before = ALLOCS.load(Ordering::Relaxed);
    let sched = instance.scheduler(tree).expect("feasible");
    let trace = simulate(tree, SimConfig::new(p, memory), sched).expect("run completes");
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(trace.records.len(), tree.len());
    after - before
}

/// Allocation count of one `SimPlatform` run: relayout into activation
/// order (a dozen arrays, whatever the size), scheduler minting and the
/// event loop — plus, in debug builds, the recorded trace and its
/// re-validation. With `cap`, the spec is moldable (uniform caps): gangs
/// of up to `cap` processors on the same loop.
fn allocs_for_platform_run(
    tree: &TaskTree,
    kind: HeuristicKind,
    p: usize,
    cap: Option<u32>,
) -> u64 {
    let mut spec = PolicySpec::new(kind, 0);
    if let Some(cap) = cap {
        spec = spec.with_caps(AllotmentCaps::uniform(tree, cap));
    }
    let memory = spec.min_feasible(tree).saturating_mul(2);
    let instance = spec
        .with_memory(memory)
        .instantiate(tree)
        .expect("spec instantiates");
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = SimPlatform::new(p)
        .run_instance(tree, &instance)
        .expect("run completes");
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(report.tasks_run, tree.len());
    after - before
}

/// Allocation count of one malleable run as release builds of
/// `SimPlatform` make it: moldable MemBooking under a
/// `ProportionalRescheduler`, aggregates only (rescheduler state and
/// scheduler minting included — both per-run constants).
fn allocs_for_malleable_run(tree: &TaskTree, p: usize, cap: u32) -> u64 {
    let spec =
        PolicySpec::new(HeuristicKind::MemBooking, 0).with_caps(AllotmentCaps::uniform(tree, cap));
    let memory = spec.min_feasible(tree).saturating_mul(2);
    let instance = spec
        .with_memory(memory)
        .instantiate(tree)
        .expect("spec instantiates");
    let before = ALLOCS.load(Ordering::Relaxed);
    let sched = instance.scheduler(tree).expect("feasible");
    let mut resched = ProportionalRescheduler::new(tree);
    let cfg = SimConfig::new(p, memory);
    let (_, stats) = simulate_summary(tree, cfg, sched, Some(&mut resched)).expect("run completes");
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(stats.completed, tree.len());
    after - before
}

#[test]
fn steady_state_is_allocation_free() {
    // Caterpillar: bursts of parallel leaves plus a serial spine — both
    // ready-set regimes, bounded height (so debug-profile MemBooking
    // stays fast at 20k nodes).
    let spine_spec = TaskSpec::new(2, 6, 1.0);
    let leg_spec = TaskSpec::new(1, 3, 1.0);
    let small = memtree_gen::shapes::caterpillar(500, 3, spine_spec, leg_spec);
    let big = memtree_gen::shapes::caterpillar(5_000, 3, spine_spec, leg_spec);
    assert!(big.len() >= 10 * small.len() - 10);

    for kind in [HeuristicKind::Activation, HeuristicKind::MemBooking] {
        for p in [1usize, 4] {
            // Warm-up run absorbs one-time lazy init (thread-local
            // buffers, etc.) so the measured runs compare clean.
            allocs_for_run(&small, kind, p);
            let a_small = allocs_for_run(&small, kind, p);
            let a_big = allocs_for_run(&big, kind, p);
            // The shim is engaged: minting scheduler state (ledgers,
            // counters, the ready set) must allocate a nonzero handful.
            assert!(a_small > 0, "counting allocator not engaged");
            // ~10× the events must not mean one extra allocation beyond
            // per-run setup noise: the loop itself allocates nothing.
            let delta = a_big.saturating_sub(a_small);
            assert!(
                delta <= 16,
                "{kind} p={p}: {a_big} allocs at 10x events vs {a_small} \
                 (delta {delta}) — the driver loop is allocating per event"
            );
            // And the absolute count stays a small per-run constant.
            assert!(
                a_big <= 256,
                "{kind} p={p}: {a_big} allocations for one run — setup \
                 should be a handful of arena/ledger vectors"
            );

            // The platform path runs the same loop on the relaid tree:
            // keying ties by label must not cost an allocation per event.
            allocs_for_platform_run(&small, kind, p, None);
            let r_small = allocs_for_platform_run(&small, kind, p, None);
            let r_big = allocs_for_platform_run(&big, kind, p, None);
            assert!(r_small > a_small, "the relayout allocates its arrays");
            let delta = r_big.saturating_sub(r_small);
            assert!(
                delta <= 16,
                "{kind} p={p}: relaid platform run took {r_big} allocs at 10x \
                 events vs {r_small} (delta {delta})"
            );
        }
    }

    // Gangs ride the very same loop: a capped (moldable) static run keeps
    // its running-task state in the p-sized lane table and records
    // allotment segments only when a rescheduler is attached, so q > 1
    // costs no allocation per event either.
    for (p, cap) in [(4usize, 2u32), (8, 4)] {
        let kind = HeuristicKind::MemBooking;
        allocs_for_platform_run(&small, kind, p, Some(cap));
        let g_small = allocs_for_platform_run(&small, kind, p, Some(cap));
        let g_big = allocs_for_platform_run(&big, kind, p, Some(cap));
        let delta = g_big.saturating_sub(g_small);
        assert!(
            delta <= 16,
            "caps {cap} p={p}: capped platform run took {g_big} allocs at 10x \
             events vs {g_small} (delta {delta})"
        );

        // Malleable: the rescheduler ticks every event and resizes gangs,
        // and neither its scratch nor the snapshot nor the resize path
        // allocates per tick.
        allocs_for_malleable_run(&small, p, cap);
        let m_small = allocs_for_malleable_run(&small, p, cap);
        let m_big = allocs_for_malleable_run(&big, p, cap);
        let delta = m_big.saturating_sub(m_small);
        assert!(
            delta <= 16,
            "caps {cap} p={p}: malleable run took {m_big} allocs at 10x \
             events vs {m_small} (delta {delta})"
        );
    }
}
