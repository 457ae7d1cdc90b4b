// Real-thread integration tests: excluded from the `memtree_loom` model
// build, where sync primitives only work inside a minloom model.
#![cfg(not(memtree_loom))]

//! Differential tests: `ShardedPlatform` against `SimPlatform` and
//! `ThreadedPlatform`.
//!
//! The sharded backend must be observationally equivalent to the
//! single-platform runs for every `PolicySpec`: the same completion set
//! (every original task exactly once; a transforming policy's fictitious
//! tasks on top), per-shard booking ledgers that respect their split
//! budgets, and a platform-level peak that never exceeds the global
//! bound — with the **sum** of the shard ledger peaks bounded by `M`, the
//! acceptance invariant of the shard merge.
//!
//! The shard counts swept here are pinned per CI job through
//! `MEMTREE_TEST_SHARDS` (comma-separated), mirroring how
//! `MEMTREE_TEST_WORKERS` pins executor worker counts.

use memtree_multifrontal::{assembly_corpus, CorpusSpec};
use memtree_runtime::{
    worker_counts_from_env, Platform, ShardedPlatform, SimPlatform, ThreadedPlatform,
};
use memtree_sched::{AllotmentCaps, HeuristicKind, PolicySpec};
use memtree_tree::TaskTree;

/// Shard counts the differential cases sweep: `MEMTREE_TEST_SHARDS` when
/// set (the CI matrix pins one count per job), {1, 2, 4, 8} otherwise.
fn shard_counts() -> Vec<usize> {
    match std::env::var("MEMTREE_TEST_SHARDS") {
        Ok(v) => {
            let counts: Vec<usize> = v
                .split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&s| s >= 1)
                .collect();
            assert!(!counts.is_empty(), "MEMTREE_TEST_SHARDS has no counts: {v}");
            counts
        }
        Err(_) => vec![1, 2, 4, 8],
    }
}

fn worker_counts() -> Vec<usize> {
    worker_counts_from_env(&[1, 2])
}

/// The differential contract for one (tree, spec) point: sharded runs
/// complete the same task set as both single platforms, inside the same
/// global envelope, with per-shard ledgers inside their split budgets.
fn assert_sharded_equivalence(name: &str, tree: &TaskTree, spec: &PolicySpec) {
    let m = spec.memory;
    let sim = SimPlatform::new(4).run(tree, spec).unwrap();
    let thr = ThreadedPlatform::new(4).run(tree, spec).unwrap();
    assert_eq!(sim.tasks_run, thr.tasks_run, "{name}: sim vs threaded");
    for shards in shard_counts() {
        for workers in worker_counts() {
            let platform = ShardedPlatform::new(shards).with_workers_per_shard(workers);
            let detailed = platform
                .run_detailed(tree, spec)
                .unwrap_or_else(|e| panic!("{name} s={shards} w={workers}: {e}"));
            let ctx = format!("{name} s={shards} w={workers}");

            // Completion set: non-transforming policies complete exactly
            // the single-platform task set; the transforming baseline
            // adds per-part fictitious tasks, so it covers at least it.
            if spec.kind == HeuristicKind::MemBookingRedTree {
                assert!(detailed.report.tasks_run >= tree.len(), "{ctx}");
                assert!(sim.tasks_run >= tree.len(), "{ctx}");
            } else {
                assert_eq!(detailed.report.tasks_run, sim.tasks_run, "{ctx}");
                assert_eq!(detailed.report.tasks_run, tree.len(), "{ctx}");
            }
            assert_eq!(detailed.report.policy, sim.policy, "{ctx}");

            // Ledger invariants: every shard inside its budget, budgets
            // sum within the bound, and the acceptance inequality — the
            // sum of shard peaks never exceeds the global budget.
            assert!(detailed.budgets.iter().sum::<u64>() <= m, "{ctx}");
            for (k, (r, &b)) in detailed
                .shard_reports
                .iter()
                .zip(&detailed.budgets)
                .enumerate()
            {
                assert!(r.peak_booked <= b, "{ctx}: shard {k} over its ledger");
                assert!(r.peak_actual <= r.peak_booked, "{ctx}: shard {k}");
            }
            assert!(detailed.shard_peak_sum() <= m, "{ctx}: Σ shard peaks > M");
            assert!(detailed.residual.peak_booked <= m, "{ctx}");
            assert!(detailed.report.peak_booked <= m, "{ctx}");
            assert!(
                detailed.report.peak_actual <= detailed.report.peak_booked,
                "{ctx}"
            );

            // Structural sanity of the merge: one proxy per shard, and
            // shard + residual tasks account for every original node.
            assert_eq!(detailed.proxy_tasks, detailed.shard_reports.len(), "{ctx}");
            if spec.kind != HeuristicKind::MemBookingRedTree {
                let shard_nodes: usize = detailed.shard_reports.iter().map(|r| r.tasks_run).sum();
                assert_eq!(
                    shard_nodes + detailed.residual.tasks_run - detailed.proxy_tasks,
                    tree.len(),
                    "{ctx}"
                );
            }
        }
    }
}

/// Roomy bound: headroom for the per-shard split of every kind, RedTree's
/// transformed minima included.
fn roomy(tree: &TaskTree) -> u64 {
    memtree_sched::min_feasible_memory(tree) * 1000
}

/// Every policy kind is observationally equivalent on synthetic trees
/// across the full shard-count sweep.
#[test]
fn every_kind_equivalent_on_synthetic_trees() {
    for seed in 0..2 {
        let tree = memtree_gen::synthetic::paper_tree(200, 60 + seed);
        let m = roomy(&tree);
        for kind in HeuristicKind::all() {
            let spec = PolicySpec::new(kind, m);
            assert_sharded_equivalence(&format!("synth-{seed}-{kind}"), &tree, &spec);
        }
    }
}

/// … and on assembly trees from the multifrontal pipeline.
#[test]
fn membooking_equivalent_on_assembly_trees() {
    let corpus = assembly_corpus(&CorpusSpec::small());
    assert!(corpus.len() >= 3, "small corpus unexpectedly empty");
    for (name, tree) in corpus.iter().take(3) {
        for kind in [HeuristicKind::MemBooking, HeuristicKind::Activation] {
            let spec = PolicySpec::new(kind, roomy(tree));
            assert_sharded_equivalence(&format!("{name}-{kind}"), tree, &spec);
        }
    }
}

/// Moldable MemBooking (gang-scheduled inside each shard worker) is
/// equivalent too: caps project onto each shard's id space.
#[test]
fn moldable_spec_equivalent_across_shard_counts() {
    let tree = memtree_gen::synthetic::paper_tree(150, 41);
    let m = roomy(&tree);
    let caps = AllotmentCaps::uniform(&tree, 4);
    let spec = PolicySpec::new(HeuristicKind::MemBooking, m).with_caps(caps);
    assert_sharded_equivalence("moldable", &tree, &spec);
}

/// The budget split preserves the invariants: every node runs, and
/// neither the budgets nor the shard peaks sum past the bound.
#[test]
fn all_budget_splits_equivalent() {
    let tree = memtree_gen::synthetic::paper_tree(180, 77);
    let spec = PolicySpec::new(HeuristicKind::MemBooking, roomy(&tree));
    let detailed = ShardedPlatform::new(4).run_detailed(&tree, &spec).unwrap();
    assert_eq!(detailed.report.tasks_run, tree.len());
    assert!(detailed.shard_peak_sum() <= spec.memory);
    assert!(detailed.budgets.iter().sum::<u64>() <= spec.memory);
}

/// Tight memory: when the split is infeasible the sharded platform
/// refuses exactly like a policy's construction refusal — the error is
/// `is_infeasible`, and the single platforms still run (sharding may
/// demand more memory than one ledger, never less correctness).
#[test]
fn infeasible_split_refuses_cleanly_where_single_platforms_run() {
    let tree = memtree_gen::synthetic::paper_tree(200, 9);
    let min = memtree_sched::min_feasible_memory(&tree);
    let spec = PolicySpec::new(HeuristicKind::MemBooking, min);
    SimPlatform::new(4).run(&tree, &spec).unwrap();
    ThreadedPlatform::new(2).run(&tree, &spec).unwrap();
    match ShardedPlatform::new(8).run(&tree, &spec) {
        Ok(report) => assert_eq!(report.tasks_run, tree.len(), "feasible split must run"),
        Err(e) => assert!(e.is_infeasible(), "got {e}"),
    }
}
