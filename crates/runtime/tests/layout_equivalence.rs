// Excluded from the `memtree_loom` model build like every other
// integration suite of this crate.
#![cfg(not(memtree_loom))]

//! Differential suite for activation-order numbering (DESIGN.md §6.11):
//! a [relaid](memtree_sched::PolicyInstance::relaid) instance must
//! produce the caller-space schedule **record for record**.
//!
//! For every `HeuristicKind` × order pair × memory bound × processor
//! count over a corpus of shapes, `simulate` on the relaid instance —
//! mapped back through `TaskTree::label` — is compared with `simulate` on
//! the plain instance: `start`, `finish`, `processor` and both epochs of
//! every task, plus makespan, peaks and event count. Then
//! `SimPlatform::run_instance`, which always relays, is compared field
//! for field with the caller-space run.
//!
//! Moldable and malleable instances run relaid too, so the same holds
//! with allotment caps (uniform 2 and 4, `sqrt_of_time`), static and
//! under a `ProportionalRescheduler`: records including `procs`, the
//! allotment segments (through `label`), `peak_busy`, and the platform
//! report. The rescheduler sees caller ids on both sides — the driver
//! publishes `LiveStats` by `label`.
//!
//! `ThreadedPlatform` relays too. On one worker its completions arrive
//! in the simulator's order, so its relaid runs, from a plain or an
//! already relaid instance, book exactly what `execute` books on the
//! plain instance in caller ids.
//!
//! The order pairs cover the cases that matter to the renumbering:
//! AO = EO (one shared identity order), AO ≠ EO (EO mapped through AO's
//! ranks), an AO that is not a postorder (OptSeq), and an AO whose child
//! order differs from the ids' (naturalPO vs perfPO). Most of the corpus
//! has unit or equal processing times, so simultaneous completions — the
//! ties the caller-id tie keys exist for — are the common case.

use memtree_gen::large::{self, LargeShape};
use memtree_order::OrderKind;
use memtree_runtime::{execute, Platform, SimPlatform, ThreadedPlatform, Workload};
use memtree_sched::{
    AllotmentCaps, HeuristicKind, PolicyInstance, PolicySpec, ProportionalRescheduler,
    ReschedulePolicy,
};
use memtree_sim::{simulate, simulate_with, DriveConfig, Rescheduler, SimConfig, Trace};
use memtree_tree::{TaskSpec, TaskTree};

fn corpus() -> Vec<(String, TaskTree)> {
    let mut trees: Vec<(String, TaskTree)> = Vec::new();
    for (n, seed) in [(60, 1), (150, 17), (120, 23), (300, 5)] {
        trees.push((
            format!("paper-{n}-{seed}"),
            memtree_gen::synthetic::paper_tree(n, seed),
        ));
    }
    for seed in [9, 31] {
        trees.push((
            format!("random-400-{seed}"),
            memtree_gen::shapes::random_recursive(400, TaskSpec::new(1, 2, 1.0), seed),
        ));
    }
    trees.push((
        "large-random-3000".into(),
        large::build(LargeShape::Random, 3000, 42),
    ));
    trees.push((
        "large-caterpillar-600".into(),
        large::build(LargeShape::Caterpillar { legs: 4 }, 600, 0),
    ));
    trees.push((
        "caterpillar-20x3".into(),
        memtree_gen::shapes::caterpillar(20, 3, TaskSpec::new(1, 4, 2.0), TaskSpec::new(0, 3, 1.0)),
    ));
    trees.push((
        "chain-64".into(),
        memtree_gen::shapes::chain(64, TaskSpec::new(2, 5, 1.0)),
    ));
    trees
}

const ORDER_PAIRS: [(OrderKind, OrderKind); 4] = [
    (OrderKind::MemPostorder, OrderKind::MemPostorder),
    (OrderKind::MemPostorder, OrderKind::CriticalPath),
    (OrderKind::OptSeq, OrderKind::CriticalPath),
    (OrderKind::NaturalPostorder, OrderKind::PerfPostorder),
];

/// One cell; returns the number of task records compared.
fn assert_cell(ctx: &str, tree: &TaskTree, spec: &PolicySpec, p: usize) -> usize {
    let plain = spec.instantiate(tree).unwrap();
    let exec = plain.exec_tree(tree);
    let cfg = SimConfig::new(p, spec.memory);
    let caller = simulate(exec, cfg, plain.scheduler(tree).unwrap())
        .unwrap_or_else(|e| panic!("{ctx} (caller ids): {e}"));

    let relaid = plain.relaid(tree).unwrap();
    let layout = relaid.exec_tree(tree);
    let trace = simulate(layout, cfg, relaid.scheduler(tree).unwrap())
        .unwrap_or_else(|e| panic!("{ctx} (relaid): {e}"));
    assert_eq!(trace.records.len(), caller.records.len(), "{ctx}");
    for k in layout.nodes() {
        assert_eq!(
            trace.record(k),
            caller.record(layout.label(k)),
            "{ctx}: task {:?} (layout {k:?})",
            layout.label(k)
        );
    }
    let mut stats = trace.stats();
    stats.scheduling_seconds = caller.scheduling_seconds; // wall clock
    assert_eq!(stats, caller.stats(), "{ctx}");
    assert_eq!(trace.makespan, caller.makespan, "{ctx}");

    let report = SimPlatform::new(p)
        .run_instance(tree, &plain)
        .unwrap_or_else(|e| panic!("{ctx} (platform): {e}"));
    assert_eq!(report.policy, caller.scheduler, "{ctx}");
    assert_eq!(report.makespan, caller.makespan, "{ctx}");
    assert_eq!(report.peak_booked, caller.peak_booked, "{ctx}");
    assert_eq!(report.peak_actual, caller.peak_actual, "{ctx}");
    assert_eq!(report.events, caller.events, "{ctx}");
    assert_eq!(report.tasks_run, exec.len(), "{ctx}");
    assert_eq!(report.quarantined, 0, "{ctx}");
    caller.records.len()
}

#[test]
fn relaid_runs_reproduce_caller_space_schedules_record_for_record() {
    let mut cells = 0usize;
    let mut records = 0usize;
    for (name, tree) in corpus() {
        for kind in HeuristicKind::all() {
            // The reference engine rescans every node per decision:
            // quadratic, so it sits out the one big tree.
            if kind == HeuristicKind::MemBookingRef && tree.len() > 1000 {
                continue;
            }
            for (ao, eo) in ORDER_PAIRS {
                let spec = PolicySpec::new(kind, 0).with_orders(ao, eo);
                let min = spec.min_feasible(&tree);
                for memory in [min, min + min / 2, min.saturating_mul(1000)] {
                    let spec = spec.clone().with_memory(memory);
                    for p in [1usize, 3, 8] {
                        let ctx = format!("{name} {kind} {ao}/{eo} M={memory} p={p}");
                        records += assert_cell(&ctx, &tree, &spec, p);
                        cells += 1;
                    }
                }
            }
        }
    }
    // 10 trees × 5 kinds × 4 pairs × 3 bounds × 3 p, minus the skipped
    // reference-engine cells on the 3000-node tree.
    assert_eq!(cells, 10 * 5 * 36 - 36);
    assert!(records > 500_000, "{records} records compared");
}

/// One capped cell, static (`reschedule` = `None`) or malleable; returns
/// the number of task records and allotment segments compared.
fn assert_capped_cell(
    ctx: &str,
    tree: &TaskTree,
    spec: &PolicySpec,
    p: usize,
    reschedule: Option<ReschedulePolicy>,
) -> (usize, usize) {
    let cfg = SimConfig::new(p, spec.memory);
    let run = |instance: &PolicyInstance| -> Trace {
        let exec = instance.exec_tree(tree);
        let mut resched = reschedule.map(|policy| ProportionalRescheduler::new(exec, policy));
        let resched = resched.as_mut().map(|r| r as &mut dyn Rescheduler);
        simulate_with(exec, cfg, instance.scheduler(tree).unwrap(), resched)
            .unwrap_or_else(|e| panic!("{ctx}: {e}"))
    };
    let plain = spec.instantiate(tree).unwrap();
    let caller = run(&plain);
    let relaid = plain.relaid(tree).unwrap();
    let layout = relaid.exec_tree(tree);
    let trace = run(&relaid);

    assert_eq!(trace.records.len(), caller.records.len(), "{ctx}");
    for k in layout.nodes() {
        assert_eq!(
            trace.record(k),
            caller.record(layout.label(k)),
            "{ctx}: task {:?} (layout {k:?})",
            layout.label(k)
        );
    }
    assert_eq!(trace.segments.len(), caller.segments.len(), "{ctx}");
    assert_eq!(trace.segments.is_empty(), reschedule.is_none(), "{ctx}");
    for (mine, theirs) in trace.segments.iter().zip(&caller.segments) {
        let mut mine = *mine;
        mine.node = layout.label(mine.node);
        assert_eq!(mine, *theirs, "{ctx}");
    }
    let mut stats = trace.stats();
    stats.scheduling_seconds = caller.scheduling_seconds; // wall clock
    assert_eq!(stats, caller.stats(), "{ctx} (peak_busy included)");
    assert_eq!(trace.makespan, caller.makespan, "{ctx}");

    let mut platform = SimPlatform::new(p);
    platform.reschedule = reschedule;
    for instance in [&plain, &relaid] {
        let report = platform
            .run_instance(tree, instance)
            .unwrap_or_else(|e| panic!("{ctx} (platform): {e}"));
        assert_eq!(report.policy, caller.scheduler, "{ctx}");
        assert_eq!(report.makespan, caller.makespan, "{ctx}");
        assert_eq!(report.peak_booked, caller.peak_booked, "{ctx}");
        assert_eq!(report.peak_actual, caller.peak_actual, "{ctx}");
        assert_eq!(report.events, caller.events, "{ctx}");
        assert_eq!(report.tasks_run, tree.len(), "{ctx}");
    }
    (caller.records.len(), caller.segments.len())
}

#[test]
fn relaid_moldable_and_malleable_runs_reproduce_caller_space_schedules() {
    let (mut cells, mut records, mut segments, mut gangs) = (0usize, 0usize, 0usize, 0usize);
    for (name, tree) in corpus() {
        let caps = [
            ("uniform2", AllotmentCaps::uniform(&tree, 2)),
            ("uniform4", AllotmentCaps::uniform(&tree, 4)),
            ("sqrt", AllotmentCaps::sqrt_of_time(&tree, 8)),
        ];
        for (caps_name, caps) in caps {
            for (ao, eo) in ORDER_PAIRS {
                let spec = PolicySpec::new(HeuristicKind::MemBooking, 0)
                    .with_orders(ao, eo)
                    .with_caps(caps.clone());
                let min = spec.min_feasible(&tree);
                for memory in [min, min + min / 2, min.saturating_mul(1000)] {
                    let spec = spec.clone().with_memory(memory);
                    for p in [1usize, 3, 8] {
                        for reschedule in [None, Some(ReschedulePolicy::new())] {
                            let mode = if reschedule.is_some() {
                                "malleable"
                            } else {
                                "static"
                            };
                            let ctx =
                                format!("{name} {caps_name} {mode} {ao}/{eo} M={memory} p={p}");
                            let (r, s) = assert_capped_cell(&ctx, &tree, &spec, p, reschedule);
                            records += r;
                            segments += s;
                            gangs += usize::from(s > r);
                            cells += 1;
                        }
                    }
                }
            }
        }
    }
    // 10 trees × 3 caps × 4 pairs × 3 bounds × 3 p × {static, malleable}.
    assert_eq!(cells, 10 * 3 * 36 * 2);
    assert!(records > 500_000, "{records} records compared");
    // The malleable half is not vacuous: gangs were resized mid-flight.
    assert!(gangs > 100, "{gangs} cells with a resized gang");
    assert!(segments > records / 2, "{segments} segments compared");
}

/// The platform accepts an already relaid instance (what a sweep caches)
/// and reports exactly what it reports for the plain one.
#[test]
fn platform_reports_agree_for_plain_and_relaid_instances() {
    let tree = memtree_gen::synthetic::paper_tree(200, 3);
    for kind in HeuristicKind::all() {
        let spec = PolicySpec::new(kind, 0).with_orders(OrderKind::OptSeq, OrderKind::CriticalPath);
        let spec = spec.clone().with_memory(spec.min_feasible(&tree) * 2);
        let plain = spec.instantiate(&tree).unwrap();
        let relaid = plain.relaid(&tree).unwrap();
        let a = SimPlatform::new(4).run_instance(&tree, &plain).unwrap();
        let b = SimPlatform::new(4).run_instance(&tree, &relaid).unwrap();
        assert_eq!(
            (&a.policy, a.makespan, a.peak_booked, a.peak_actual),
            (&b.policy, b.makespan, b.peak_booked, b.peak_actual),
            "{kind}"
        );
        assert_eq!((a.events, a.tasks_run), (b.events, b.tasks_run), "{kind}");
        // A bound stamped onto the cached relaid instance behaves like a
        // fresh instantiation at that bound.
        let tight = relaid.with_memory(spec.min_feasible(&tree));
        let fresh = spec.clone().with_memory(tight.memory());
        let c = SimPlatform::new(4).run_instance(&tree, &tight).unwrap();
        let d = SimPlatform::new(4).run(&tree, &fresh).unwrap();
        assert_eq!(
            (c.makespan, c.peak_booked, c.events),
            (d.makespan, d.peak_booked, d.events),
            "{kind}"
        );
    }
}

/// The threaded column: on one worker, `ThreadedPlatform` (which relays)
/// and `execute` in caller ids agree on peaks, tasks and events.
#[test]
fn threaded_relaid_runs_book_like_caller_space_runs() {
    let mut cells = 0usize;
    for (name, tree) in corpus() {
        for kind in HeuristicKind::all() {
            if kind == HeuristicKind::MemBookingRef && tree.len() > 1000 {
                continue;
            }
            for (ao, eo) in ORDER_PAIRS {
                let spec = PolicySpec::new(kind, 0).with_orders(ao, eo);
                let min = spec.min_feasible(&tree);
                for memory in [min, min + min / 2, min.saturating_mul(1000)] {
                    let ctx = format!("{name} {kind} {ao}/{eo} M={memory}");
                    let plain = spec.clone().with_memory(memory).instantiate(&tree).unwrap();
                    let (_, caller) = execute(
                        plain.exec_tree(&tree),
                        DriveConfig::new(1, memory),
                        plain.scheduler(&tree).unwrap(),
                        Workload::Noop,
                        None,
                    )
                    .unwrap_or_else(|e| panic!("{ctx} (caller ids): {e}"));
                    let relaid = plain.relaid(&tree).unwrap();
                    for instance in [&plain, &relaid] {
                        let report = ThreadedPlatform::new(1)
                            .run_instance(&tree, instance)
                            .unwrap_or_else(|e| panic!("{ctx} (threaded): {e}"));
                        assert_eq!(
                            (report.peak_booked, report.peak_actual),
                            (caller.peak_booked, caller.peak_actual),
                            "{ctx}"
                        );
                        assert_eq!(
                            (report.tasks_run, report.events),
                            (caller.completed, caller.events),
                            "{ctx}"
                        );
                    }
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 10 * 5 * 12 - 12);
}
