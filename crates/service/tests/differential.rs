//! Differential tests: a single-tenant, no-contention service run must be
//! the direct `Platform::run` — same completion set, same policy
//! decisions, same booking peaks (DESIGN.md §6.9).
//!
//! Admission grants `min(requested, available)`, so a lone tenant is
//! granted exactly the bound it requested, and the spec the session
//! thread executes is the very spec a direct run would execute. On the deterministic regimes —
//! the simulator at any `p`, the threaded and async executors at one
//! worker — the comparison is bit-for-bit on makespan and both peaks; on
//! multi-worker regimes execution interleaving moves bookings around, so
//! the contract is completion set, policy and envelope.
//!
//! Worker counts are pinned per CI job through `MEMTREE_TEST_WORKERS`,
//! like every other differential suite in the workspace.

use memtree_runtime::{AsyncPlatform, Platform, SimPlatform, ThreadedPlatform, Workload};
use memtree_sched::{HeuristicKind, PolicySpec};
use memtree_service::{ServicePlatform, SessionBackend};
use memtree_testkit::{counts_from_env, roomy, WORKERS};

/// Bit-for-bit: identical policy decisions, completion set, event count
/// and both booking peaks. The executors' makespan is wall-clock (only
/// the simulator's is virtual time), so it is compared only where
/// `virtual_time` holds; wall-clock fields are allowed to differ.
fn assert_bit_for_bit(
    ctx: &str,
    direct: &memtree_runtime::RunReport,
    via: &memtree_runtime::RunReport,
    virtual_time: bool,
) {
    assert_eq!(via.platform, "service", "{ctx}: report relabelled");
    assert_eq!(direct.policy, via.policy, "{ctx}: policy");
    assert_eq!(direct.tasks_run, via.tasks_run, "{ctx}: tasks");
    if virtual_time {
        assert_eq!(direct.makespan, via.makespan, "{ctx}: makespan");
    }
    assert_eq!(direct.peak_booked, via.peak_booked, "{ctx}: peak booked");
    assert_eq!(direct.peak_actual, via.peak_actual, "{ctx}: peak actual");
    assert_eq!(direct.events, via.events, "{ctx}: events");
}

/// The simulator is deterministic at any processor count: a lone service
/// tenant reproduces the direct run bit-for-bit for every policy kind.
#[test]
fn sim_single_tenant_is_bit_for_bit() {
    for seed in [3, 31] {
        let tree = memtree_gen::synthetic::paper_tree(160, seed);
        let m = roomy(&tree);
        for p in [1, 4] {
            for kind in HeuristicKind::all() {
                let spec = PolicySpec::new(kind, m);
                let direct = SimPlatform::new(p).run(&tree, &spec).unwrap();
                let via = ServicePlatform::new(SessionBackend::sim(p))
                    .run(&tree, &spec)
                    .unwrap();
                assert_bit_for_bit(&format!("sim p={p} {kind}"), &direct, &via, true);
            }
        }
    }
}

/// One worker makes the threaded executor deterministic; the service is
/// bit-for-bit there. With more workers the completion set, policy and
/// envelope still match.
#[test]
fn threaded_single_tenant_matches_direct_runs() {
    let tree = memtree_gen::synthetic::paper_tree(120, 8);
    let m = roomy(&tree);
    for workers in counts_from_env(WORKERS, &[1, 2, 4]) {
        let backend = SessionBackend::Threaded {
            workers,
            workload: Workload::Noop,
        };
        for kind in HeuristicKind::all() {
            let spec = PolicySpec::new(kind, m);
            let direct = ThreadedPlatform::new(workers).run(&tree, &spec).unwrap();
            let via = ServicePlatform::new(backend).run(&tree, &spec).unwrap();
            let ctx = format!("threaded w={workers} {kind}");
            if workers == 1 {
                assert_bit_for_bit(&ctx, &direct, &via, false);
            } else {
                assert_eq!(direct.tasks_run, via.tasks_run, "{ctx}: tasks");
                assert_eq!(direct.policy, via.policy, "{ctx}: policy");
                assert!(via.peak_booked <= m, "{ctx}: envelope");
                assert!(via.peak_actual <= via.peak_booked, "{ctx}: envelope");
            }
        }
    }
}

/// Same contract on the async executor.
#[test]
fn async_single_tenant_matches_direct_runs() {
    let tree = memtree_gen::synthetic::paper_tree(100, 12);
    let m = roomy(&tree);
    for workers in counts_from_env(WORKERS, &[1, 2, 4]) {
        let backend = SessionBackend::Async {
            workers,
            threads: 2,
            workload: Workload::Noop,
        };
        for kind in HeuristicKind::all() {
            let spec = PolicySpec::new(kind, m);
            let direct = AsyncPlatform {
                workers,
                threads: 2,
                workload: Workload::Noop,
                reschedule: None,
            }
            .run(&tree, &spec)
            .unwrap();
            let via = ServicePlatform::new(backend).run(&tree, &spec).unwrap();
            let ctx = format!("async w={workers} {kind}");
            if workers == 1 {
                assert_bit_for_bit(&ctx, &direct, &via, false);
            } else {
                assert_eq!(direct.tasks_run, via.tasks_run, "{ctx}: tasks");
                assert_eq!(direct.policy, via.policy, "{ctx}: policy");
                assert!(via.peak_booked <= m, "{ctx}: envelope");
                assert!(via.peak_actual <= via.peak_booked, "{ctx}: envelope");
            }
        }
    }
}

/// Refusal parity: the service refuses an infeasible spec with the same
/// distinguishable error a direct run produces — admission never converts
/// a feasibility refusal into a hang or a panic.
#[test]
fn infeasible_specs_are_refused_identically() {
    let tree = memtree_gen::synthetic::paper_tree(70, 4);
    let min = memtree_sched::min_feasible_memory(&tree);
    let spec = PolicySpec::new(HeuristicKind::MemBooking, min - 1);
    let direct_err = SimPlatform::new(4).run(&tree, &spec).unwrap_err();
    let via_err = ServicePlatform::new(SessionBackend::sim(4))
        .run(&tree, &spec)
        .unwrap_err();
    assert!(direct_err.is_infeasible());
    assert!(via_err.is_infeasible(), "got {via_err}");
}
