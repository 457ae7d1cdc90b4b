//! The linear trace oracle against the sort-based one it replaced
//! (`reference`): on random simulator traces — sequential, moldable and
//! malleable, zero-duration tasks included — and on tampered copies of
//! them, both give the same verdict.

mod reference;

use memtree_sched::{AllotmentCaps, HeuristicKind, PolicySpec, ProportionalRescheduler};
use memtree_sim::validate::validate_trace;
use memtree_sim::{simulate, simulate_with, SimConfig, Trace};
use memtree_testkit::arb_tree;
use memtree_tree::TaskTree;
use proptest::prelude::*;

/// One simulator trace: `mode` picks Activation, MemBooking, RedTree, a
/// moldable MemBooking or a malleable one, at 1.5 × the policy's floor.
/// Returns the tree the trace is over with the trace.
fn run(tree: &TaskTree, mode: usize, p: usize) -> (TaskTree, Trace) {
    let kind = [
        HeuristicKind::Activation,
        HeuristicKind::MemBooking,
        HeuristicKind::MemBookingRedTree,
    ][mode.min(2)];
    let mut spec = PolicySpec::new(kind, 0);
    if mode >= 3 {
        spec = PolicySpec::new(HeuristicKind::MemBooking, 0)
            .with_caps(AllotmentCaps::sqrt_of_time(tree, p as u32));
    }
    let m = spec.min_feasible(tree) * 3 / 2;
    let instance = spec.with_memory(m).instantiate(tree).unwrap();
    let exec = instance.exec_tree(tree);
    let sched = instance.scheduler(tree).unwrap();
    let cfg = SimConfig::new(p, m);
    let trace = if mode == 4 {
        let mut resched = ProportionalRescheduler::new(exec);
        simulate_with(exec, cfg, sched, Some(&mut resched)).unwrap()
    } else {
        simulate(exec, cfg, sched).unwrap()
    };
    (exec.clone(), trace)
}

/// `trace` with one field broken (`what`, at the record `pick` names);
/// none of them moves a time or an epoch.
fn tampered(trace: &Trace, what: usize, pick: usize) -> Trace {
    let mut t = trace.clone();
    let k = pick % t.records.len();
    let other = (pick / 7) % t.records.len();
    match what {
        0 => t.memory = t.peak_actual.saturating_sub(1),
        1 => t.peak_actual += 1,
        2 => t.peak_busy += 1,
        3 => t.peak_busy = t.peak_busy.saturating_sub(1),
        4 => t.makespan += 1.0,
        5 => t.processors += 1,
        6 => t.processors = t.processors.saturating_sub(1).max(1),
        7 => t.records[k].processor = (t.records[k].processor + 1) % t.processors as u32,
        8 => t.records[k].procs += 1,
        9 => t.records[k].processor = t.records[other].processor,
        10 => {
            let s = pick % t.segments.len().max(1);
            if let Some(s) = t.segments.get_mut(s) {
                s.procs += 1;
            }
        }
        _ => t.memory += 1,
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn linear_oracle_agrees_with_the_sorting_one(
        tree in arb_tree(36),
        mode in 0usize..5,
        p in 1usize..5,
        pick in 0usize..1000,
    ) {
        let (exec, trace) = run(&tree, mode, p);
        prop_assert_eq!(validate_trace(&exec, &trace), Ok(()));
        prop_assert_eq!(reference::validate_trace(&exec, &trace), Ok(()));
        for what in 0..12 {
            let bad = tampered(&trace, what, pick);
            let (new, old) = (validate_trace(&exec, &bad), reference::validate_trace(&exec, &bad));
            prop_assert_eq!(
                new.is_ok(), old.is_ok(),
                "tamper {}: linear {:?} vs sorting {:?}", what, new, old
            );
        }
    }
}
