//! Cross-validation between the discrete-event simulator and the real
//! threaded runtime, plus moldable (gang-allotment) integration.

use memtree::gen::synthetic::paper_tree;
use memtree::multifrontal::{assembly_corpus, CorpusSpec};
use memtree::order::{cp_order, mem_postorder, OrderKind};
use memtree::runtime::{execute, Platform, SimPlatform, ThreadedPlatform, Workload};
use memtree::sched::{AllotmentCaps, HeuristicKind, MemBooking, MoldableMemBooking, PolicySpec};
use memtree::sim::validate::validate_trace;
use memtree::sim::{simulate, DriveConfig, SimConfig, SpeedupModel};
use memtree::tree::TaskTree;
use memtree_testkit::{counts_from_env, WORKERS};

/// The moldable cross-platform contract for one tree: the same spec runs
/// the identical task set on the simulator and on gang-scheduled threads;
/// both stay inside the booking envelope; and with one worker — where the
/// completion order is forced — the booking trajectories coincide exactly.
fn assert_moldable_equivalence(name: &str, tree: &TaskTree, m: u64) {
    for p in counts_from_env(WORKERS, &[1, 2, 4]) {
        let caps = AllotmentCaps::uniform(tree, p as u32);
        let spec = PolicySpec::new(HeuristicKind::MemBooking, m).with_caps(caps);
        let sim = SimPlatform::new(p).run(tree, &spec).unwrap();
        let thr = ThreadedPlatform::new(p).run(tree, &spec).unwrap();
        assert_eq!(sim.tasks_run, tree.len(), "{name} p={p}");
        assert_eq!(
            sim.tasks_run, thr.tasks_run,
            "{name} p={p}: identical task sets on both platforms"
        );
        assert_eq!(sim.policy, thr.policy, "{name} p={p}");
        assert!(sim.peak_booked <= m && thr.peak_booked <= m, "{name} p={p}");
        assert!(thr.peak_actual <= thr.peak_booked, "{name} p={p}");
        if p == 1 {
            // Single worker: the event sequence is identical on both
            // platforms, so the booked and actual peaks are too.
            assert_eq!(sim.peak_booked, thr.peak_booked, "{name}: p=1 peaks");
            assert_eq!(sim.peak_actual, thr.peak_actual, "{name}: p=1 peaks");
        }
    }
}

/// Moldable specs are first-class on both platforms across synthetic
/// trees and worker counts.
#[test]
fn moldable_spec_equivalent_on_synthetic_trees() {
    for seed in 0..3 {
        let tree = paper_tree(200, 40 + seed);
        let m = mem_postorder(&tree).sequential_peak(&tree) * 2;
        assert_moldable_equivalence(&format!("synth-{seed}"), &tree, m);
    }
}

/// … and across assembly trees from the multifrontal pipeline, at the
/// minimum feasible memory (the tight Theorem-1 regime).
#[test]
fn moldable_spec_equivalent_on_assembly_trees() {
    let corpus = assembly_corpus(&CorpusSpec::small());
    assert!(corpus.len() >= 4, "small corpus unexpectedly empty");
    for (name, tree) in corpus.iter().take(4) {
        let m = mem_postorder(tree).sequential_peak(tree);
        assert_moldable_equivalence(name, tree, m);
    }
}

/// Both execution vehicles must run the full tree under the same memory
/// bound; the threaded run obeys the same booking invariants the simulator
/// enforces (its ledger aborts otherwise).
#[test]
fn threaded_and_simulated_agree_on_feasibility() {
    for seed in 0..4 {
        let tree = paper_tree(300, 500 + seed);
        let ao = mem_postorder(&tree);
        let eo = cp_order(&tree);
        let m = ao.sequential_peak(&tree);

        let sim_trace = simulate(
            &tree,
            SimConfig::new(4, m),
            MemBooking::try_new(&tree, &ao, &eo, m).unwrap(),
        )
        .unwrap();
        assert_eq!(sim_trace.records.len(), tree.len());

        let (_, stats) = execute(
            &tree,
            DriveConfig {
                workers: 4,
                memory: m,
            },
            MemBooking::try_new(&tree, &ao, &eo, m).unwrap(),
            Workload::Noop,
            None,
        )
        .unwrap();
        assert_eq!(stats.completed, tree.len());
        // The simulator's booking peak is a valid upper bound domain for
        // the threaded run too: both ≤ M.
        assert!(sim_trace.peak_booked <= m);
        assert!(stats.peak_booked <= m);
    }
}

/// The unified Platform API: the same `PolicySpec` runs on the simulator
/// and on real threads, completes the same task set, and — with one
/// worker, where the completion order is forced — books identical peak
/// memory under `Workload::Noop`.
#[test]
fn same_spec_on_both_platforms_agrees() {
    for seed in 0..4 {
        let tree = paper_tree(250, 700 + seed);
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree);
        for kind in [
            HeuristicKind::MemBooking,
            HeuristicKind::Activation,
            HeuristicKind::Sequential,
        ] {
            let spec = PolicySpec::new(kind, m)
                .with_orders(OrderKind::MemPostorder, OrderKind::CriticalPath);
            // One worker: the event sequence is identical on both
            // platforms, so the booking trajectory is too.
            let sim = SimPlatform::new(1).run(&tree, &spec).unwrap();
            let thr = ThreadedPlatform::new(1).run(&tree, &spec).unwrap();
            assert_eq!(sim.tasks_run, thr.tasks_run, "seed {seed} {kind}");
            assert_eq!(
                sim.peak_booked, thr.peak_booked,
                "seed {seed} {kind}: single-worker peak booked must match"
            );
            // Many workers: completion order is up to the OS, but both
            // platforms must finish the tree inside the same envelope.
            let sim4 = SimPlatform::new(4).run(&tree, &spec).unwrap();
            let thr4 = ThreadedPlatform::new(4).run(&tree, &spec).unwrap();
            assert_eq!(sim4.tasks_run, thr4.tasks_run, "seed {seed} {kind}");
            assert!(sim4.peak_booked <= m && thr4.peak_booked <= m);
            assert!(thr4.peak_actual <= thr4.peak_booked);
        }
    }
}

/// The reduction-tree baseline is a first-class spec on both platforms:
/// the transform happens inside `instantiate`, once, identically.
#[test]
fn redtree_spec_runs_on_both_platforms() {
    let tree = paper_tree(200, 31);
    let ao = mem_postorder(&tree);
    let m = ao.sequential_peak(&tree) * 40;
    let spec = PolicySpec::new(HeuristicKind::MemBookingRedTree, m);
    let sim = SimPlatform::new(1).run(&tree, &spec).unwrap();
    let thr = ThreadedPlatform::new(1).run(&tree, &spec).unwrap();
    assert_eq!(sim.tasks_run, thr.tasks_run);
    assert!(sim.tasks_run > tree.len(), "fictitious leaves run too");
    assert_eq!(
        sim.peak_booked, thr.peak_booked,
        "single-worker determinism"
    );
}

/// The moldable policy degenerates to the sequential-task one when every
/// cap is 1: identical makespans.
#[test]
fn moldable_with_unit_caps_equals_sequential_tasks() {
    for seed in 0..4 {
        let tree = paper_tree(250, 900 + seed);
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree) * 2;
        let p = 6;

        let seq = simulate(
            &tree,
            SimConfig::new(p, m),
            MemBooking::try_new(&tree, &ao, &ao, m).unwrap(),
        )
        .unwrap();

        let caps = AllotmentCaps::uniform(&tree, 1);
        let mold = MoldableMemBooking::try_new(&tree, &ao, &ao, m, caps).unwrap();
        let trace = simulate(&tree, SimConfig::new(p, m), mold).unwrap();
        validate_trace(&tree, &trace).unwrap();
        assert!(
            (trace.makespan - seq.makespan).abs() < 1e-9,
            "seed {seed}: moldable/unit {} vs sequential {}",
            trace.makespan,
            seq.makespan
        );
    }
}

/// Amdahl speedup interpolates between unit caps and linear scaling.
#[test]
fn amdahl_between_serial_and_linear() {
    let tree = paper_tree(250, 1234);
    let ao = mem_postorder(&tree);
    let m = ao.sequential_peak(&tree) * 2;
    let p = 8;
    let run = |model: SpeedupModel| {
        let caps = AllotmentCaps::uniform(&tree, p as u32);
        let s = MoldableMemBooking::try_new(&tree, &ao, &ao, m, caps).unwrap();
        let cfg = SimConfig::new(p, m).with_speedup(model);
        simulate(&tree, cfg, s).unwrap().makespan
    };
    let linear = run(SpeedupModel::Linear);
    let amdahl = run(SpeedupModel::Amdahl {
        serial_fraction: 0.3,
    });
    let serial_caps = {
        let caps = AllotmentCaps::uniform(&tree, 1);
        let s = MoldableMemBooking::try_new(&tree, &ao, &ao, m, caps).unwrap();
        simulate(&tree, SimConfig::new(p, m), s).unwrap().makespan
    };
    assert!(
        linear <= amdahl + 1e-9,
        "linear {linear} vs amdahl {amdahl}"
    );
    assert!(
        amdahl <= serial_caps + 1e-9,
        "amdahl {amdahl} vs unit-cap {serial_caps}"
    );
}
