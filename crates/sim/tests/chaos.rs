//! Chaos testing: drive the engine with a randomized-but-legal scheduler
//! (`memtree_testkit::Chaos`, and `MoldChaos` for gangs) and check that the engine's incremental bookkeeping always agrees with
//! the independent trace validator — for unit allotments (sequential
//! tasks) and gangs alike, on the one engine.
//!
//! The `shard_chaos` module extends the suite to the sharded platform:
//! kill or stall a shard worker mid-run and assert the coordinator
//! surfaces a clean `PlatformError` — no deadlock, no leaked ledger
//! reservations — the same failure-path discipline the `Stalled`/`Ledger`
//! executor tests pin down for the threaded runtime.

use memtree_sim::{simulate, validate::validate_trace, SimConfig};
use memtree_testkit::{arb_tree, footprint, Chaos, MoldChaos};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Whatever legal order the chaos policy produces, the engine's trace
    /// passes full independent validation and the invariant quantities
    /// agree.
    #[test]
    fn chaos_traces_always_validate(tree in arb_tree(60), seed in 1u64..500, p in 1usize..6) {
        let bound = footprint(&tree);
        let trace = simulate(&tree, SimConfig::new(p, bound), Chaos::new(&tree, bound, seed))
            .unwrap();
        validate_trace(&tree, &trace).unwrap();
        prop_assert_eq!(trace.records.len(), tree.len());
        prop_assert!(trace.max_concurrency() <= p);
    }

    /// Chaos scheduling never beats the list-scheduling bound from below:
    /// makespan is at least the critical path and at least total/p.
    #[test]
    fn chaos_makespan_respects_classical_bounds(tree in arb_tree(50), seed in 1u64..200) {
        let p = 3;
        let bound = footprint(&tree);
        let trace = simulate(&tree, SimConfig::new(p, bound), Chaos::new(&tree, bound, seed))
            .unwrap();
        let stats = memtree_tree::TreeStats::compute(&tree);
        prop_assert!(trace.makespan >= stats.critical_path(&tree) - 1e-9);
        prop_assert!(trace.makespan >= tree.total_time() / p as f64 - 1e-9);
        prop_assert!(trace.makespan <= tree.total_time() + 1e-9);
    }

    /// Moldable chaos: randomized allotment caps, randomized gang sizes —
    /// whatever legal pattern comes out, the engine's trace passes the one
    /// independent validator (precedence, per-task duration under the
    /// speedup model, occupancy ≤ p, memory replay, every task ran).
    #[test]
    fn moldable_chaos_traces_always_validate(
        tree in arb_tree(50),
        seed in 1u64..400,
        p in 1usize..6,
        cap in 1usize..6,
    ) {
        let bound = footprint(&tree);
        let trace = simulate(
            &tree,
            SimConfig::new(p, bound),
            MoldChaos::new(&tree, bound, seed, cap),
        )
        .unwrap();
        validate_trace(&tree, &trace).unwrap();
        prop_assert_eq!(trace.records.len(), tree.len());
        prop_assert!(trace.records.iter().all(|r| (1..=cap.min(p)).contains(&(r.procs as usize))));
        prop_assert!(trace.peak_busy <= p);
    }

    /// Single-worker gangs are not a special case: with every cap at 1
    /// the moldable chaos policy replays the sequential one bit-for-bit
    /// on the one engine — same records, makespan, peaks and event count.
    #[test]
    fn unit_gangs_degenerate_to_the_sequential_path_bit_for_bit(
        tree in arb_tree(50),
        seed in 1u64..400,
        p in 1usize..6,
    ) {
        let bound = footprint(&tree);
        let seq = simulate(
            &tree,
            SimConfig::new(p, bound),
            Chaos::new(&tree, bound, seed),
        )
        .unwrap();
        let mold = simulate(
            &tree,
            SimConfig::new(p, bound),
            MoldChaos::new(&tree, bound, seed, 1),
        )
        .unwrap();
        prop_assert_eq!(mold.records.len(), seq.records.len());
        for i in tree.nodes() {
            let m = mold.record(i);
            let s = seq.record(i);
            prop_assert_eq!(m.procs, 1);
            // Bit-for-bit: same f64s, not same-within-epsilon.
            prop_assert_eq!(m.start, s.start, "start of {:?}", i);
            prop_assert_eq!(m.finish, s.finish, "finish of {:?}", i);
        }
        prop_assert_eq!(mold.makespan, seq.makespan);
        prop_assert_eq!(mold.peak_booked, seq.peak_booked);
        prop_assert_eq!(mold.peak_actual, seq.peak_actual);
        prop_assert_eq!(mold.events, seq.events);
    }
}

/// Chaos on the sharded platform: a shard worker killed or stalled
/// mid-run must surface a clean `PlatformError` with every budget
/// reservation released — never a deadlock, never a poisoned
/// coordinator.
mod shard_chaos {
    use memtree_runtime::{Platform, PlatformError, ShardedPlatform, Workload};
    use memtree_sched::{HeuristicKind, PolicySpec};
    use memtree_sim::validate::validate_shard_plan;
    use memtree_sim::DriveError;
    use memtree_testkit::{roomy, shard_chaos_tree as chaos_tree};
    use memtree_tree::partition::{partition, PartitionPolicy};

    /// Pins the partition shape the fault injection below relies on: the
    /// plan validates, and local index 15 exists in exactly one part.
    #[test]
    fn chaos_tree_partitions_as_documented() {
        let tree = chaos_tree();
        let part = partition(&tree, &PartitionPolicy::balanced(4));
        validate_shard_plan(&tree, &part.assignment, part.shard_count()).unwrap();
        assert_eq!(part.shard_count(), 3);
        let big: Vec<_> = part.shards.iter().filter(|s| s.tree.len() > 15).collect();
        assert_eq!(big.len(), 1, "exactly one shard holds local index 15");
        assert!(part.residual.tree.len() <= 15);
    }

    /// Kill: the injected payload panic takes down one shard worker; the
    /// coordinator reports `ShardFailed(Run(Backend))` cleanly and a
    /// subsequent run of the same platform value succeeds — no leaked
    /// reservations, no poisoned state (the post-phase ledger audit runs
    /// on the failure path too).
    #[test]
    fn killed_shard_worker_surfaces_shard_failed() {
        let tree = chaos_tree();
        let spec = PolicySpec::new(HeuristicKind::MemBooking, roomy(&tree));
        let platform = ShardedPlatform::new(4).with_workload(Workload::FailAt { node: 15 });
        let err = platform.run(&tree, &spec).unwrap_err();
        match err {
            PlatformError::ShardFailed { shard, source } => {
                assert!(
                    matches!(*source, PlatformError::Run(DriveError::Backend(_))),
                    "expected a backend failure inside shard {shard}, got {source}"
                );
            }
            other => panic!("expected ShardFailed, got {other}"),
        }
        // The platform value is reusable: nothing leaked across the run.
        let report = platform
            .with_workload(Workload::Noop)
            .run(&tree, &spec)
            .unwrap();
        assert_eq!(report.tasks_run, tree.len());
    }

    /// Two kills in one run: local index 5 exists in *every* shard
    /// subtree, so all three shard workers panic. Which completes first
    /// is OS scheduling, but `first_err` must deterministically pick the
    /// lowest shard index (the coordinator's `is_none_or` tie-break), and
    /// every budget must be released on the multi-failure path — a fresh
    /// run on the same platform value succeeds.
    #[test]
    fn two_failed_shards_pick_the_lowest_shard_index() {
        let tree = chaos_tree();
        let spec = PolicySpec::new(HeuristicKind::MemBooking, roomy(&tree));
        // Sanity: the fault index exists in at least two shards.
        let part = partition(&tree, &PartitionPolicy::balanced(4));
        let hit = part.shards.iter().filter(|s| s.tree.len() > 5).count();
        assert!(hit >= 2, "fault must land in several shards, hit {hit}");
        let platform = ShardedPlatform::new(4).with_workload(Workload::FailAt { node: 5 });
        for round in 0..5 {
            let err = platform.run(&tree, &spec).unwrap_err();
            match err {
                PlatformError::ShardFailed { shard, source } => {
                    assert_eq!(
                        shard, 0,
                        "round {round}: first_err must pick the lowest failed shard"
                    );
                    assert!(
                        matches!(*source, PlatformError::Run(DriveError::Backend(_))),
                        "round {round}: got {source}"
                    );
                }
                other => panic!("round {round}: expected ShardFailed, got {other}"),
            }
        }
        // No leaked reservations across five failed runs: the same
        // platform value still runs the whole tree (the coordinator's
        // post-phase ledger audit also re-checks this in debug builds).
        let report = platform
            .with_workload(Workload::Noop)
            .run(&tree, &spec)
            .unwrap();
        assert_eq!(report.tasks_run, tree.len());
    }

    /// Overall deadline: shards that keep *trickling* reports reset a
    /// per-message idle watchdog forever, so the phase must also respect
    /// a total deadline. Here every worker sleeps far past the deadline
    /// with no idle timeout configured at all — only the deadline can
    /// stop the wait.
    #[test]
    fn overall_deadline_bounds_the_shard_phase() {
        let tree = chaos_tree();
        let spec = PolicySpec::new(HeuristicKind::MemBooking, roomy(&tree));
        let platform = ShardedPlatform::new(4)
            .with_workload(Workload::Sleep {
                nanos_per_time_unit: 2e8, // 200 ms per task, every task
                max_nanos: 200_000_000,
            })
            .with_deadline(std::time::Duration::from_millis(60));
        let started = std::time::Instant::now();
        let err = platform.run(&tree, &spec).unwrap_err();
        assert!(
            matches!(err, PlatformError::ShardStalled { .. }),
            "got {err}"
        );
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "deadline enforcement took {:?}",
            started.elapsed()
        );
        // The still-running workers were quarantined, not stripped of
        // their budgets; the platform value stays reusable for fresh
        // runs (each run owns a fresh coordinator ledger).
        let report = platform
            .with_workload(Workload::Noop)
            .run(&tree, &spec)
            .unwrap();
        assert_eq!(report.tasks_run, tree.len());
    }

    /// Stall: a payload sleeping far past the watchdog makes the shard
    /// workers go silent; the coordinator must time out with
    /// `ShardStalled` instead of blocking forever. Still-running workers
    /// keep their budgets — quarantined until their exit is confirmed,
    /// never released while the worker can still report.
    #[test]
    fn stalled_shard_worker_trips_the_watchdog() {
        let tree = chaos_tree();
        let spec = PolicySpec::new(HeuristicKind::MemBooking, roomy(&tree));
        let platform = ShardedPlatform::new(4)
            .with_workload(Workload::Sleep {
                nanos_per_time_unit: 2e8, // 200 ms per task, every task
                max_nanos: 200_000_000,
            })
            .with_timeout(std::time::Duration::from_millis(40));
        let started = std::time::Instant::now();
        let err = platform.run(&tree, &spec).unwrap_err();
        match err {
            PlatformError::ShardStalled {
                reported,
                total,
                quarantined,
            } => {
                assert!(reported < total, "{reported}/{total}");
                assert_eq!(total, 3, "the three shards of the chaos tree");
                // All workers were mid-sleep: every unreported shard's
                // budget is held in quarantine, not released on a timer.
                assert!(quarantined > 0, "stalled budgets were released");
            }
            other => panic!("expected ShardStalled, got {other}"),
        }
        // Clean and prompt: the watchdog fired, the run did not wait for
        // the sleeping workers to finish their subtrees.
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "stall detection took {:?}",
            started.elapsed()
        );
        // A fresh run on the same platform value (fast payload) works.
        let report = platform
            .with_workload(Workload::Noop)
            .run(&tree, &spec)
            .unwrap();
        assert_eq!(report.tasks_run, tree.len());
    }

    /// An infeasible budget split refuses up front — the sharded
    /// analogue of the executor's `Ledger` failure path: the invariant
    /// machinery rejects the run instead of letting shards overcommit.
    #[test]
    fn infeasible_budget_split_refuses_without_launching() {
        let tree = chaos_tree();
        let min = memtree_sched::min_feasible_memory(&tree);
        let spec = PolicySpec::new(HeuristicKind::MemBooking, min);
        let err = ShardedPlatform::new(4).run(&tree, &spec).unwrap_err();
        assert!(err.is_infeasible(), "got {err}");
    }
}
