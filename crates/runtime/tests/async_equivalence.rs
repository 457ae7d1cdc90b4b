// Real-thread integration tests: excluded from the `memtree_loom` model
// build, where sync primitives only work inside a minloom model.
#![cfg(not(memtree_loom))]

//! Differential tests: `AsyncPlatform` against `SimPlatform` and
//! `ThreadedPlatform`.
//!
//! The futures-backed regime must be observationally equivalent to the
//! established platforms for every `PolicySpec`: the same completion set
//! (every task of the policy's exec tree exactly once — fictitious
//! RedTree tasks included), the same policy identity, and a booking peak
//! inside the same global envelope `peak_actual ≤ peak_booked ≤ M` —
//! across kinds × p ∈ {1, 2, 4} × executor thread counts, with the
//! single-threaded executor (the IO-bound configuration) a first-class
//! cell of the matrix.
//!
//! Executor thread counts are pinned per CI job through
//! `MEMTREE_TEST_WORKERS`, exactly as the threaded and sharded suites
//! pin their worker counts.

use memtree_runtime::{AsyncPlatform, Platform, SimPlatform, ThreadedPlatform, Workload};
use memtree_sched::{AllotmentCaps, HeuristicKind, PolicySpec};
use memtree_testkit::{counts_from_env, roomy, WORKERS};
use memtree_tree::TaskTree;

/// The differential contract for one (tree, spec) point: the async run
/// completes the same task set as both established platforms, inside the
/// same booking envelope, for every executor thread count.
fn assert_async_equivalence(name: &str, tree: &TaskTree, spec: &PolicySpec) {
    let m = spec.memory;
    let sim = SimPlatform::new(4).run(tree, spec).unwrap();
    let thr = ThreadedPlatform::new(4).run(tree, spec).unwrap();
    assert_eq!(sim.tasks_run, thr.tasks_run, "{name}: sim vs threaded");
    for threads in counts_from_env(WORKERS, &[1, 2]) {
        for p in [1usize, 2, 4] {
            let ctx = format!("{name} p={p} threads={threads}");
            let report = AsyncPlatform::new(p)
                .with_threads(threads)
                .run(tree, spec)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(report.tasks_run, sim.tasks_run, "{ctx}: completion set");
            assert_eq!(report.policy, sim.policy, "{ctx}: policy identity");
            assert!(report.peak_booked <= m, "{ctx}: booked over the bound");
            assert!(
                report.peak_actual <= report.peak_booked,
                "{ctx}: actual over booked"
            );
            assert_eq!(report.platform, "async", "{ctx}");
        }
    }
}

/// Every policy kind is observationally equivalent on synthetic trees
/// across the p × executor-thread matrix.
#[test]
fn every_kind_equivalent_on_synthetic_trees() {
    for seed in 0..2 {
        let tree = memtree_gen::synthetic::paper_tree(200, 80 + seed);
        let m = roomy(&tree);
        for kind in HeuristicKind::all() {
            let spec = PolicySpec::new(kind, m);
            assert_async_equivalence(&format!("synth-{seed}-{kind}"), &tree, &spec);
        }
    }
}

/// … and on assembly trees from the multifrontal pipeline.
#[test]
fn membooking_equivalent_on_assembly_trees() {
    let corpus = memtree_multifrontal::assembly_corpus(&memtree_multifrontal::CorpusSpec::small());
    assert!(corpus.len() >= 2, "small corpus unexpectedly empty");
    for (name, tree) in corpus.iter().take(2) {
        for kind in [HeuristicKind::MemBooking, HeuristicKind::Activation] {
            let spec = PolicySpec::new(kind, roomy(tree));
            assert_async_equivalence(&format!("{name}-{kind}"), tree, &spec);
        }
    }
}

/// Moldable MemBooking gang-schedules its allotments as member futures
/// and stays equivalent.
#[test]
fn moldable_spec_equivalent_across_thread_counts() {
    let tree = memtree_gen::synthetic::paper_tree(150, 43);
    let m = roomy(&tree);
    let caps = AllotmentCaps::uniform(&tree, 4);
    let spec = PolicySpec::new(HeuristicKind::MemBooking, m).with_caps(caps);
    assert_async_equivalence("moldable", &tree, &spec);
}

/// At the minimum feasible bound — the tightest booking regime — a
/// single-worker run is the simulator's run on every in-process backend:
/// the same event count, booking and actual peaks and task count, for the
/// sequential spec and for a moldable one (whose gangs p = 1 caps at one
/// processor). A pump that dropped or re-stepped a completion would
/// change the event count.
#[test]
fn tight_memory_single_worker_matches_sim_peak() {
    let tree = memtree_gen::synthetic::paper_tree(120, 13);
    let m = memtree_sched::min_feasible_memory(&tree);
    let sequential = PolicySpec::new(HeuristicKind::MemBooking, m);
    let moldable = sequential
        .clone()
        .with_caps(AllotmentCaps::uniform(&tree, 4));
    for spec in [sequential, moldable] {
        let sim = SimPlatform::new(1).run(&tree, &spec).unwrap();
        let want = (sim.events, sim.peak_booked, sim.peak_actual, sim.tasks_run);
        let backends: [&dyn Platform; 2] = [
            &AsyncPlatform::new(1).with_threads(1),
            &ThreadedPlatform::new(1),
        ];
        // One logical worker: completions are a deterministic sequence, so
        // the booking trajectory — hence every aggregate — matches exactly.
        for platform in backends {
            let r = platform.run(&tree, &spec).unwrap();
            let got = (r.events, r.peak_booked, r.peak_actual, r.tasks_run);
            assert_eq!(
                got,
                want,
                "{} vs sim, caps {:?}",
                platform.name(),
                spec.caps.is_some()
            );
        }
    }
}

/// The IO-bound payload changes timing, never the contract: the
/// completion set and the booking envelope are identical to the no-op
/// payload's.
#[test]
fn io_bound_payload_preserves_the_contract() {
    let tree = memtree_gen::synthetic::paper_tree(100, 29);
    let m = roomy(&tree);
    let spec = PolicySpec::new(HeuristicKind::MemBooking, m);
    let noop = AsyncPlatform::new(4).run(&tree, &spec).unwrap();
    let io = AsyncPlatform::new(4)
        .with_threads(1)
        .with_workload(Workload::quick_io())
        .run(&tree, &spec)
        .unwrap();
    assert_eq!(io.tasks_run, noop.tasks_run);
    assert!(io.peak_booked <= m);
    assert!(io.peak_actual <= io.peak_booked);
}
