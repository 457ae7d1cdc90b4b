// Real-thread integration tests: excluded from the `memtree_loom` model
// build, where sync primitives only work inside a minloom model.
#![cfg(not(memtree_loom))]

//! Text inputs never panic (ROADMAP Y, text half): a seeded mutation
//! property over every text boundary a process crosses — the shard-worker
//! job and report lines (`wire::parse_job`, `wire::parse_report_line`),
//! the tree format (`tree_from_str`) and the spec format
//! (`PolicySpec::spec_from_str`).
//!
//! Each case picks an encoder's output, checks that it still parses back
//! to itself, then applies a few mutations — truncation, bit flips, byte
//! overwrites, duplicated or dropped lines, a number swapped for an edge
//! value — and feeds the result to the parser under `catch_unwind`. An
//! `Err` is the expected answer; a panic fails the test with the input. A
//! spec that parses is also resolved through `instantiate` and
//! `min_feasible`: a job's against the job's own (possibly mutated) tree,
//! a bare spec against its base's valid tree.
//!
//! Constructors are total too (ROADMAP Y, constructor half): for random
//! trees, orders of that tree or of another one, any memory bound and caps
//! of any length, every policy's `try_new`, `PolicySpec::instantiate` on
//! either tree or the reduction tree, `relaid` against a tree that may
//! not be the instance's own, and the scheduler an instance mints return
//! a value or an error, and never panic.
//!
//! The tier-1 tests run 500 cases per boundary; the ignored tests run
//! 10 000 per boundary:
//!
//! ```text
//! cargo test --release -p memtree_runtime --test boundaries -- --ignored
//! ```

use memtree_order::{make_order, OrderKind};
use memtree_runtime::process::wire::{self, WorkerMsg};
use memtree_runtime::{DriveError, PlatformError, RunReport, Workload};
use memtree_sched::{
    to_reduction_tree, Activation, AllotmentCaps, HeuristicKind, MemBooking, MemBookingRef,
    MoldableMemBooking, PolicySpec, RedTreeBooking, SchedError, Sequential,
};
use memtree_testkit::{arb_mutations, mutate, Mutation, SplitMix};
use memtree_tree::io::{tree_from_str, tree_to_string};
use memtree_tree::{TaskSpec, TaskTree};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Duration;

#[derive(Clone, Copy, Debug)]
enum Boundary {
    Job,
    Report,
    Tree,
    Spec,
}

/// A case: which encoder output to start from, and the mutations.
type Case = (usize, Vec<Mutation>);

fn arb_case() -> impl Strategy<Value = Case> {
    (0usize..=usize::MAX, arb_mutations(4))
}

fn trees() -> Vec<TaskTree> {
    vec![
        memtree_gen::synthetic::paper_tree(1, 3),
        memtree_gen::synthetic::paper_tree(12, 5),
        memtree_gen::synthetic::paper_tree(40, 7),
    ]
}

fn specs(tree: &TaskTree) -> Vec<PolicySpec> {
    let m = memtree_sched::min_feasible_memory(tree) * 2;
    let orders = [
        OrderKind::MemPostorder,
        OrderKind::CriticalPath,
        OrderKind::OptSeq,
    ];
    let mut out = Vec::new();
    for (i, &kind) in HeuristicKind::all().iter().enumerate() {
        let mut spec = PolicySpec::new(kind, m);
        spec.ao = orders[i % orders.len()];
        spec.eo = orders[(i + 1) % orders.len()];
        out.push(spec);
    }
    let mut moldable = PolicySpec::new(HeuristicKind::MemBooking, u64::MAX);
    moldable.caps = Some(AllotmentCaps::uniform(tree, 4));
    out.push(moldable);
    out
}

const WORKLOADS: [Workload; 5] = [
    Workload::Noop,
    Workload::Sleep {
        nanos_per_time_unit: 123.456,
        max_nanos: 9_999,
    },
    Workload::AllocTouch {
        bytes_per_output_unit: 16.5,
        max_bytes: 4096,
    },
    Workload::IoBound {
        nanos_per_time_unit: 0.5,
        max_nanos: 1_000,
        chunks: 3,
    },
    Workload::FailAt { node: 12 },
];

/// An encoder's output, paired with the valid tree a bare spec parsed
/// from it is resolved against.
type Base = (String, TaskTree);

/// The bases a case starts from, one list per boundary.
struct Bases {
    job: Vec<Base>,
    report: Vec<Base>,
    tree: Vec<Base>,
    spec: Vec<Base>,
}

fn bases() -> &'static Bases {
    static BASES: OnceLock<Bases> = OnceLock::new();
    BASES.get_or_init(|| {
        let trees = trees();
        let mut job = Vec::new();
        let mut spec = Vec::new();
        for (t, tree) in trees.iter().enumerate() {
            for (s, policy) in specs(tree).into_iter().enumerate() {
                let workload = WORKLOADS[(t + s) % WORKLOADS.len()];
                let heartbeat = Duration::from_millis(25 * s as u64);
                let text = wire::job_to_string(tree, &policy, 1 + s, workload, heartbeat);
                job.push((text, tree.clone()));
                spec.push((policy.spec_to_string(), tree.clone()));
            }
        }
        let report = RunReport {
            platform: "process-worker",
            policy: "MemBooking ao=memPO eo=memPO".into(),
            makespan: 1.5,
            wall_seconds: 0.25,
            peak_booked: 100,
            peak_actual: 90,
            events: 42,
            scheduling_seconds: 0.003,
            tasks_run: 40,
            quarantined: 1,
        };
        let report = [
            "ready".into(),
            "heartbeat".into(),
            wire::done_line(&report),
            wire::verdict_line(&Err(DriveError::Backend("a payload panicked".into()).into())),
            wire::verdict_line(&Err(PlatformError::Sched(SchedError::InfeasibleMemory {
                required: 70,
                available: 50,
            }))),
        ]
        .into_iter()
        .map(|line| (line, trees[0].clone()))
        .collect();
        let tree = trees
            .iter()
            .map(|t| (tree_to_string(t), t.clone()))
            .collect();
        Bases {
            job,
            report,
            tree,
            spec,
        }
    })
}

/// Resolves a parsed spec against a tree the way a worker does; either
/// answer is fine, a panic is not.
fn use_spec(spec: &PolicySpec, tree: &TaskTree) {
    let _ = spec.instantiate(tree);
    let _ = spec.min_feasible(tree);
}

/// Parses `text` at `boundary` and resolves a parsed spec the way its
/// reader would: a job's against the job's own tree, a bare spec against
/// `valid`. Returns the re-encoding of the parsed value, `None` for a
/// parse error.
fn parse(boundary: Boundary, text: &str, valid: &TaskTree) -> Option<String> {
    match boundary {
        Boundary::Job => {
            let job = wire::parse_job(text).ok()?;
            use_spec(&job.spec, &job.tree);
            Some(wire::job_to_string(
                &job.tree,
                &job.spec,
                job.workers,
                job.workload,
                job.heartbeat,
            ))
        }
        Boundary::Report => match wire::parse_report_line(text).ok()? {
            WorkerMsg::Ready => Some("ready".into()),
            WorkerMsg::Heartbeat => Some("heartbeat".into()),
            WorkerMsg::Done(report) => Some(wire::done_line(&report)),
            WorkerMsg::Failed(e) => Some(wire::verdict_line(&Err(e))),
            WorkerMsg::Died(why) => panic!("the parser never synthesises Died ({why})"),
        },
        Boundary::Tree => tree_from_str(text).ok().map(|t| tree_to_string(&t)),
        Boundary::Spec => {
            let spec = PolicySpec::spec_from_str(text).ok()?;
            use_spec(&spec, valid);
            Some(spec.spec_to_string())
        }
    }
}

/// The property: the case's base round-trips, and its mutation parses
/// or errs without a panic.
fn check(boundary: Boundary, (base, mutations): &Case) {
    let bases = bases();
    let list = match boundary {
        Boundary::Job => &bases.job,
        Boundary::Report => &bases.report,
        Boundary::Tree => &bases.tree,
        Boundary::Spec => &bases.spec,
    };
    let (text, valid) = &list[base % list.len()];
    assert_eq!(
        parse(boundary, text, valid).as_deref(),
        Some(text.as_str()),
        "{boundary:?}: the encoder's output does not parse back to itself"
    );
    let mutated = mutate(text, mutations);
    let outcome = catch_unwind(AssertUnwindSafe(|| parse(boundary, &mutated, valid)));
    assert!(
        outcome.is_ok(),
        "{boundary:?}: panicked on {mutated:?} (mutations {mutations:?})"
    );
}

/// Every order strategy.
const ORDER_KINDS: [OrderKind; 6] = [
    OrderKind::MemPostorder,
    OrderKind::OptSeq,
    OrderKind::CriticalPath,
    OrderKind::PerfPostorder,
    OrderKind::AvgMemPostorder,
    OrderKind::NaturalPostorder,
];

/// Data sizes a random tree's tasks draw from: empty, small, and large
/// enough that sums near `u64::MAX`.
const SIZES: [u64; 6] = [0, 1, 7, 1 << 20, u64::MAX >> 7, u64::MAX >> 5];

/// A tree of 1 to 24 tasks: a paper tree, or random parents with sizes
/// from `SIZES` (a paper tree of the same size when their total memory
/// overflows and the builder refuses them).
fn random_tree(d: &mut SplitMix) -> TaskTree {
    let n = 1 + d.below(24);
    let seed = d.next();
    if d.below(2) == 0 {
        return memtree_gen::synthetic::paper_tree(n, seed);
    }
    let parents: Vec<_> = (0..n).map(|i| (i > 0).then(|| d.below(i))).collect();
    let specs: Vec<_> = (0..n)
        .map(|_| TaskSpec::new(d.pick(&SIZES), d.pick(&SIZES), 1.0 + d.below(9) as f64))
        .collect();
    TaskTree::from_parents(&parents, &specs)
        .unwrap_or_else(|_| memtree_gen::synthetic::paper_tree(n, seed))
}

/// One constructor case: two random trees and the reduction tree of the
/// first; orders of any of the three, mostly of the first; a memory bound from the edges or
/// the first tree's floor; caps of any length, each ≥ 1. Every
/// constructor gets the first tree (or, one time in four, its reduction
/// tree) and answers with a value or an error.
fn construct(seed: u64) {
    let mut d = SplitMix(seed);
    let a = random_tree(&mut d);
    let b = random_tree(&mut d);
    let red = to_reduction_tree(&a).unwrap().tree;
    // Orders of the first tree half the time, so that some cases build.
    let trees = [&a, &a, &b, &red];
    let ao = make_order(d.pick(&trees), d.pick(&ORDER_KINDS));
    let eo = make_order(d.pick(&trees), d.pick(&ORDER_KINDS));
    let floor = memtree_sched::min_feasible_memory(&a);
    let any = d.next();
    let memory = d.pick(&[0, 1, floor.saturating_sub(1), floor, u64::MAX, any]);
    let any = 1 + d.below(2 * a.len() + 1);
    let len = d.pick(&[a.len(), red.len(), any]);
    let caps: Vec<u32> = (0..len)
        .map(|_| {
            let any = 1 + d.below(64) as u32;
            d.pick(&[1, 2, 4, u32::MAX, any])
        })
        .collect();
    let t = if d.below(4) == 0 { &red } else { &a };

    let _ = Activation::try_new(t, &ao, &eo, memory);
    let _ = MemBooking::try_new(t, &ao, &eo, memory);
    let _ = MemBookingRef::try_new(t, &ao, &eo, memory);
    let moldable = AllotmentCaps::from_caps(caps.clone());
    let _ = MoldableMemBooking::try_new(t, &ao, &eo, memory, moldable);
    let _ = RedTreeBooking::try_new(t, &ao, &eo, memory);
    let _ = Sequential::try_new(t, &ao, memory);

    let kind = d.pick(&HeuristicKind::all());
    let caps = (d.below(2) == 0).then(|| AllotmentCaps::from_caps(caps));
    let (ao, eo) = (ao.kind(), eo.kind());
    let spec = PolicySpec {
        kind,
        ao,
        eo,
        memory,
        caps,
    };
    let Ok(instance) = spec.instantiate(d.pick(&trees)) else {
        return;
    };
    let _ = instance.scheduler(&a);
    for original in [&a, &b] {
        if let Ok(relaid) = instance.relaid(original) {
            let _ = relaid.scheduler(original);
        }
    }
}

/// The constructor property: case `seed` builds or errs, never panics.
fn check_constructors(seed: u64) {
    let outcome = catch_unwind(AssertUnwindSafe(|| construct(seed)));
    assert!(outcome.is_ok(), "a constructor panicked on case {seed:#x}");
}

/// Moldable caps of the wrong length are an error, not a panic (two caps
/// for a three-task tree used to trip an `assert_eq!`).
#[test]
fn moldable_caps_of_the_wrong_length_are_refused() {
    let tree = memtree_gen::synthetic::paper_tree(3, 1);
    let ao = make_order(&tree, OrderKind::MemPostorder);
    let caps = AllotmentCaps::from_caps(vec![2, 2]);
    let err = MoldableMemBooking::try_new(&tree, &ao, &ao, u64::MAX, caps).err();
    assert!(
        matches!(err, Some(SchedError::InvalidSpec(_))),
        "got {err:?}"
    );
}

/// The job that first showed a spec resolved against its own extreme
/// tree: `OptSeq` orders over a tree whose root outputs `u64::MAX`. The
/// tree's total memory overflows `u64`, so the tree, and with it the job,
/// is refused before any peak is computed.
#[test]
fn a_job_whose_tree_outputs_u64_max_is_refused() {
    let tree = &trees()[1];
    let mut spec = PolicySpec::new(HeuristicKind::MemBooking, u64::MAX);
    spec.ao = OrderKind::OptSeq;
    spec.eo = OrderKind::OptSeq;
    let text = wire::job_to_string(tree, &spec, 2, Workload::Noop, Duration::ZERO);
    let root = tree.spec(tree.root());
    let line = format!("\n-1 {} {} ", root.exec, root.output);
    let huge = format!("\n-1 {} {} ", root.exec, u64::MAX);
    assert_eq!(text.matches(&line).count(), 1, "one root line in {text:?}");
    let text = text.replace(&line, &huge);
    assert!(wire::parse_job(&text).is_err(), "accepted {text:?}");
    let outcome = catch_unwind(AssertUnwindSafe(|| parse(Boundary::Job, &text, tree)));
    assert_eq!(outcome.ok(), Some(None), "panicked or accepted on {text:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn job_parser_never_panics(case in arb_case()) {
        check(Boundary::Job, &case);
    }

    #[test]
    fn report_line_parser_never_panics(case in arb_case()) {
        check(Boundary::Report, &case);
    }

    #[test]
    fn tree_parser_never_panics(case in arb_case()) {
        check(Boundary::Tree, &case);
    }

    #[test]
    fn spec_parser_never_panics(case in arb_case()) {
        check(Boundary::Spec, &case);
    }

    #[test]
    fn constructors_never_panic(seed in 0u64..=u64::MAX) {
        check_constructors(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    #[ignore = "10 000 mutated inputs per boundary; run in release"]
    fn every_boundary_never_panics_at_scale(case in arb_case()) {
        for boundary in [Boundary::Job, Boundary::Report, Boundary::Tree, Boundary::Spec] {
            check(boundary, &case);
        }
    }

    #[test]
    #[ignore = "10 000 constructor cases; run in release"]
    fn constructors_never_panic_at_scale(seed in 0u64..=u64::MAX) {
        check_constructors(seed);
    }
}
