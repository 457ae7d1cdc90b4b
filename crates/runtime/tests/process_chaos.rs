// Real-thread integration tests: excluded from the `memtree_loom` model
// build, where sync primitives only work inside a minloom model.
#![cfg(not(memtree_loom))]

//! Chaos and differential suite for `ProcessPlatform`: real worker
//! processes killed mid-shard, death-requeue, retry exhaustion, stall
//! closure, and observational equivalence against the in-process
//! platforms.
//!
//! The worker binary is the one Cargo built alongside this test
//! (`CARGO_BIN_EXE_memtree-shard-worker`), so the suite always exercises
//! the worker from the same commit. Shard counts are pinned per CI job
//! through `MEMTREE_TEST_SHARDS`, like the thread-backed sharded suite.

use memtree_runtime::{
    ChaosKill, DriveError, Platform, PlatformError, ProcessPlatform, SimPlatform, Workload,
};
use memtree_sched::{AllotmentCaps, HeuristicKind, PolicySpec};
use memtree_testkit::{counts_from_env, roomy, shard_chaos_tree as chaos_tree, SHARDS};
use memtree_tree::partition::{partition, PartitionPolicy};
use std::time::Duration;

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_memtree-shard-worker")
}

fn process_platform(shards: usize) -> ProcessPlatform {
    ProcessPlatform::new(shards).with_worker_bin(worker_bin())
}

#[test]
fn chaos_tree_partitions_as_documented() {
    let tree = chaos_tree();
    let part = partition(&tree, &PartitionPolicy::balanced(4));
    assert_eq!(part.shard_count(), 3, "chaos coordinates rely on 3 shards");
}

/// The acceptance scenario: SIGKILL one worker process mid-shard. The
/// supervisor sees death-without-verdict, the coordinator requeues the
/// shard onto a fresh process, and the run **succeeds** — every task
/// executed, every reservation released (the coordinator's post-phase
/// ledger audit is a debug assertion on exactly this path).
#[test]
fn killed_worker_is_requeued_and_the_run_completes() {
    let tree = chaos_tree();
    let spec = PolicySpec::new(HeuristicKind::MemBooking, roomy(&tree));
    let platform = process_platform(4).with_chaos_kill(ChaosKill {
        shard: 1,
        attempt: 0,
    });
    let detailed = platform.run_detailed(&tree, &spec).unwrap();
    assert_eq!(detailed.report.tasks_run, tree.len());
    assert_eq!(detailed.report.platform, "process");
    assert_eq!(detailed.shard_reports.len(), 3);
    for (k, (r, &b)) in detailed
        .shard_reports
        .iter()
        .zip(&detailed.budgets)
        .enumerate()
    {
        assert!(r.peak_booked <= b, "shard {k} over its split budget");
        assert!(r.peak_actual <= r.peak_booked, "shard {k}");
    }
    assert!(detailed.shard_peak_sum() <= spec.memory);
    // Process death never quarantines: the requeued worker's predecessor
    // was reaped, and this run ended with nothing outstanding.
    assert_eq!(detailed.report.quarantined, 0);
}

/// With the retry budget exhausted (retries = 0), the same kill becomes
/// a clean `ShardFailed` naming the dead shard, and the platform value
/// stays reusable — nothing leaked across the failed run.
#[test]
fn retry_exhaustion_surfaces_shard_failed() {
    let tree = chaos_tree();
    let spec = PolicySpec::new(HeuristicKind::MemBooking, roomy(&tree));
    let platform = process_platform(4)
        .with_retries(0)
        .with_chaos_kill(ChaosKill {
            shard: 1,
            attempt: 0,
        });
    match platform.run(&tree, &spec).unwrap_err() {
        PlatformError::ShardFailed { shard, source } => {
            assert_eq!(shard, 1);
            assert!(
                matches!(*source, PlatformError::Process(_)),
                "expected a process-death failure, got {source}"
            );
        }
        other => panic!("expected ShardFailed, got {other}"),
    }
    let report = process_platform(4).run(&tree, &spec).unwrap();
    assert_eq!(report.tasks_run, tree.len());
}

/// A worker whose *payload* panics reports `failed backend …` — a clean,
/// deterministic verdict that is NOT retried: the shard fails with the
/// threaded pool's own `DriveError::Backend`, exactly like the
/// thread-backed platforms.
#[test]
fn payload_panic_is_a_clean_verdict_not_a_retry() {
    let tree = chaos_tree();
    let spec = PolicySpec::new(HeuristicKind::MemBooking, roomy(&tree));
    // Local index 15 exists in exactly one shard subtree.
    let platform = process_platform(4).with_workload(Workload::FailAt { node: 15 });
    match platform.run(&tree, &spec).unwrap_err() {
        PlatformError::ShardFailed { shard, source } => {
            assert!(
                matches!(
                    &*source,
                    PlatformError::Run(DriveError::Backend(msg)) if msg == "a worker thread panicked"
                ),
                "expected the pool's backend failure inside shard {shard}, got {source}"
            );
        }
        other => panic!("expected ShardFailed, got {other}"),
    }
}

/// Stall closure: with heartbeats disabled and every task sleeping past
/// the watchdog, the coordinator kills the workers, *waits* for each
/// exit, and releases every reservation — `quarantined` is exactly 0
/// (process isolation closes the race the thread backend can only
/// quarantine around), and a fresh run completes.
#[test]
fn stall_kills_waits_and_releases_everything() {
    let tree = chaos_tree();
    let spec = PolicySpec::new(HeuristicKind::MemBooking, roomy(&tree));
    let platform = process_platform(4)
        .with_workload(Workload::Sleep {
            nanos_per_time_unit: 1_000_000_000.0,
            max_nanos: 1_000_000_000,
        })
        .with_heartbeat(Duration::ZERO)
        .with_timeout(Duration::from_millis(150));
    match platform.run(&tree, &spec).unwrap_err() {
        PlatformError::ShardStalled {
            reported,
            total,
            quarantined,
        } => {
            assert!(reported < total, "{reported}/{total}");
            assert_eq!(total, 3);
            assert_eq!(quarantined, 0, "confirmed exits must not quarantine");
        }
        other => panic!("expected ShardStalled, got {other}"),
    }
    let report = platform
        .with_workload(Workload::Noop)
        .with_heartbeat(Duration::from_millis(50))
        .run(&tree, &spec)
        .unwrap();
    assert_eq!(report.tasks_run, tree.len());
}

/// Heartbeats keep a slow-but-alive worker off the watchdog: the whole
/// shard takes several watchdog periods, yet the run completes because
/// `heartbeat` lines keep resetting the idle clock.
#[test]
fn heartbeats_keep_the_watchdog_from_firing() {
    let tree = chaos_tree();
    let spec = PolicySpec::new(HeuristicKind::MemBooking, roomy(&tree));
    let report = process_platform(4)
        .with_workload(Workload::Sleep {
            nanos_per_time_unit: 30_000_000.0, // ~30 ms per task
            max_nanos: 30_000_000,
        })
        .with_heartbeat(Duration::from_millis(20))
        .with_timeout(Duration::from_millis(100))
        .run(&tree, &spec)
        .unwrap();
    assert_eq!(report.tasks_run, tree.len());
}

/// The overall deadline stops the phase even while heartbeats trickle:
/// liveness is not progress.
#[test]
fn deadline_bounds_the_phase_despite_heartbeats() {
    let tree = chaos_tree();
    let spec = PolicySpec::new(HeuristicKind::MemBooking, roomy(&tree));
    let started = std::time::Instant::now();
    let err = process_platform(4)
        .with_workload(Workload::Sleep {
            nanos_per_time_unit: 1_000_000_000.0,
            max_nanos: 1_000_000_000,
        })
        .with_heartbeat(Duration::from_millis(10))
        .with_deadline(Duration::from_millis(120))
        .run(&tree, &spec)
        .unwrap_err();
    assert!(
        matches!(err, PlatformError::ShardStalled { quarantined: 0, .. }),
        "got {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "deadline enforcement took {:?}",
        started.elapsed()
    );
}

/// Observational equivalence: every policy kind, moldable included,
/// completes the same task set through worker processes as on the
/// in-process simulator, inside the same global envelope.
#[test]
fn every_kind_equivalent_through_worker_processes() {
    let tree = memtree_gen::synthetic::paper_tree(150, 83);
    let m = memtree_sched::min_feasible_memory(&tree) * 1000;
    for kind in HeuristicKind::all() {
        let spec = PolicySpec::new(kind, m);
        let sim = SimPlatform::new(4).run(&tree, &spec).unwrap();
        for shards in counts_from_env(SHARDS, &[1, 2, 4]) {
            let detailed = process_platform(shards)
                .run_detailed(&tree, &spec)
                .unwrap_or_else(|e| panic!("{kind} s={shards}: {e}"));
            let ctx = format!("{kind} s={shards}");
            if kind == HeuristicKind::MemBookingRedTree {
                assert!(detailed.report.tasks_run >= tree.len(), "{ctx}");
            } else {
                assert_eq!(detailed.report.tasks_run, sim.tasks_run, "{ctx}");
                assert_eq!(detailed.report.tasks_run, tree.len(), "{ctx}");
            }
            assert_eq!(detailed.report.policy, sim.policy, "{ctx}");
            assert!(detailed.budgets.iter().sum::<u64>() <= m, "{ctx}");
            assert!(detailed.shard_peak_sum() <= m, "{ctx}");
            assert!(detailed.report.peak_booked <= m, "{ctx}");
            assert!(
                detailed.report.peak_actual <= detailed.report.peak_booked,
                "{ctx}"
            );
        }
    }
}

/// Moldable specs gang-schedule inside each worker process: caps project
/// onto shard id spaces across the pipe exactly as in-process.
#[test]
fn moldable_spec_runs_through_worker_processes() {
    let tree = memtree_gen::synthetic::paper_tree(120, 19);
    let m = memtree_sched::min_feasible_memory(&tree) * 1000;
    let caps = AllotmentCaps::uniform(&tree, 4);
    let spec = PolicySpec::new(HeuristicKind::MemBooking, m).with_caps(caps);
    let detailed = process_platform(2)
        .with_workers_per_shard(2)
        .run_detailed(&tree, &spec)
        .unwrap();
    assert_eq!(detailed.report.tasks_run, tree.len());
    assert!(detailed.report.peak_booked <= m);
}

/// A missing worker binary is a loud, actionable error — not a hang.
#[test]
fn missing_worker_binary_fails_loudly() {
    let tree = chaos_tree();
    let spec = PolicySpec::new(HeuristicKind::MemBooking, roomy(&tree));
    let err = ProcessPlatform::new(2)
        .with_worker_bin("/nonexistent/memtree-shard-worker")
        .run(&tree, &spec)
        .unwrap_err();
    match err {
        PlatformError::ShardFailed { source, .. } => {
            assert!(matches!(*source, PlatformError::Process(_)), "{source}");
        }
        PlatformError::Process(_) => {}
        other => panic!("expected a process error, got {other}"),
    }
}
