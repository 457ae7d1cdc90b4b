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
//! spec that parses (alone or inside a job) is also resolved against its
//! base's valid tree through `instantiate` and `min_feasible`.
//!
//! The tier-1 tests run 500 cases per boundary; the ignored test runs
//! 10 000 per boundary:
//!
//! ```text
//! cargo test --release -p memtree_runtime --test boundaries -- --ignored
//! ```

use memtree_order::OrderKind;
use memtree_runtime::process::wire::{self, WorkerMsg};
use memtree_runtime::{DriveError, PlatformError, RunReport, Workload};
use memtree_sched::{AllotmentCaps, HeuristicKind, PolicySpec, SchedError};
use memtree_tree::io::{tree_from_str, tree_to_string};
use memtree_tree::TaskTree;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Duration;

/// What a number token may be swapped for: zero, the edges of `u32` and
/// `u64`, a negative and a float.
const EDGES: [&str; 6] = [
    "0",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "-1",
    "2.5",
];

/// Bytes an overwrite writes: separators, signs, comment and frame
/// characters, and a byte that is not ASCII.
const BYTES: [u8; 8] = [b' ', b'\n', b'\r', b'-', b'#', b'0', b'.', 0xC3];

#[derive(Clone, Copy, Debug)]
enum Boundary {
    Job,
    Report,
    Tree,
    Spec,
}

/// One mutation: its kind, where it lands and its argument, reduced
/// modulo whatever they index.
type Mutation = (u8, usize, usize);

/// A case: which encoder output to start from, and the mutations.
type Case = (usize, Vec<Mutation>);

fn arb_case() -> impl Strategy<Value = Case> {
    (0usize..=usize::MAX, 1usize..=4).prop_flat_map(|(base, n)| {
        (
            Just(base),
            proptest::collection::vec((0u8..6, 0usize..=usize::MAX, 0usize..=usize::MAX), n),
        )
    })
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

/// An encoder's output, paired with the valid tree a spec parsed from it
/// is resolved against.
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

/// `text` with `mutations` applied; invalid UTF-8 is replaced, as a
/// reader that decodes lossily would.
fn mutate(text: &str, mutations: &[Mutation]) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for &(kind, at, arg) in mutations {
        match kind {
            0 => bytes.truncate(at % (bytes.len() + 1)),
            1 | 2 if !bytes.is_empty() => {
                let i = at % bytes.len();
                bytes[i] = if kind == 1 {
                    bytes[i] ^ (1 << (arg % 8))
                } else {
                    BYTES[arg % BYTES.len()]
                };
            }
            3 | 4 => {
                let mut lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
                if !lines.is_empty() {
                    let i = at % lines.len();
                    if kind == 3 {
                        lines.insert(i, lines[i]);
                    } else {
                        lines.remove(i);
                    }
                }
                bytes = lines.concat();
            }
            5 => {
                let numbers = digit_runs(&bytes);
                if !numbers.is_empty() {
                    let (start, end) = numbers[at % numbers.len()];
                    let edge = EDGES[arg % EDGES.len()].as_bytes();
                    bytes.splice(start..end, edge.iter().copied());
                }
            }
            _ => {}
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The byte ranges of the maximal runs of ASCII digits in `bytes`.
fn digit_runs(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    let mut start = None;
    for (i, b) in bytes.iter().enumerate() {
        match (b.is_ascii_digit(), start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                runs.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        runs.push((s, bytes.len()));
    }
    runs
}

/// Resolves a parsed spec against a tree the way a worker does; either
/// answer is fine, a panic is not.
fn use_spec(spec: &PolicySpec, tree: &TaskTree) {
    let _ = spec.instantiate(tree);
    let _ = spec.min_feasible(tree);
}

/// Parses `text` at `boundary` and resolves a parsed spec against
/// `valid`; returns the re-encoding of the parsed value, `None` for a
/// parse error. A job's spec is resolved against `valid`, not against
/// the job's own (possibly mutated) tree: resolving a policy on a tree
/// with extreme sizes is ROADMAP Y's constructor half, not a text
/// boundary.
fn parse(boundary: Boundary, text: &str, valid: &TaskTree) -> Option<String> {
    match boundary {
        Boundary::Job => {
            let job = wire::parse_job(text).ok()?;
            use_spec(&job.spec, valid);
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
}
