// Excluded from the `memtree_loom` model build like every other
// integration suite of this crate.
#![cfg(not(memtree_loom))]

//! One plan per tree and order pair (DESIGN.md §6.11): instances over the
//! same tree share their orders, `peak(AO)`, RedTree's transform and the
//! activation-order layout through the tree's plan registry, which holds
//! them weakly.
//!
//! - A plan served live and one built after every holder was dropped
//!   give the same orders, peak, layout and simulator trace, for every
//!   kind, the order pairs of `layout_equivalence.rs` and p ∈ {1, 4}.
//! - A derived tree (`map_specs`) starts with an empty registry, so it
//!   is never served its source's peak.
//! - Threads that instantiate one spec at once all get one plan.
//! - Counted reuse, shaped like the `sim-million` and `exec-*` harness
//!   ops: with one instance held, re-instantiating and running on the
//!   simulator and on threads builds memPO once and lays the tree out
//!   once, checked by pointer equality.

use memtree_gen::large::{self, LargeShape};
use memtree_order::OrderKind;
use memtree_runtime::{Platform, SimPlatform, ThreadedPlatform};
use memtree_sched::{HeuristicKind, PolicyInstance, PolicySpec};
use memtree_sim::{simulate, SimConfig, Trace};
use memtree_testkit::arb_tree;
use memtree_tree::{TaskSpec, TaskTree};
use proptest::prelude::*;

const ORDER_PAIRS: [(OrderKind, OrderKind); 4] = [
    (OrderKind::MemPostorder, OrderKind::MemPostorder),
    (OrderKind::MemPostorder, OrderKind::CriticalPath),
    (OrderKind::OptSeq, OrderKind::CriticalPath),
    (OrderKind::NaturalPostorder, OrderKind::PerfPostorder),
];

/// Everything an instance derives from its plan, in comparable form:
/// both orders, the floor, the layout (content, labels, orders) and a
/// relaid simulator run.
fn derived(tree: &TaskTree, inst: &PolicyInstance, p: usize) -> (Vec<u64>, u64, Vec<u64>, Trace) {
    let relaid = inst.relaid(tree).unwrap();
    let layout = relaid.exec_tree(tree);
    let ids = |seq: &[memtree_tree::NodeId]| seq.iter().map(|i| i.0 as u64).collect::<Vec<_>>();
    let mut orders = ids(inst.ao().sequence());
    orders.extend(ids(inst.eo().sequence()));
    let mut laid = vec![layout.content_hash()];
    laid.extend(layout.nodes().map(|k| layout.label(k).0 as u64));
    laid.extend(ids(relaid.eo().sequence()));
    let cfg = SimConfig::new(p, inst.memory());
    let mut trace = simulate(layout, cfg, relaid.scheduler(tree).unwrap()).unwrap();
    trace.scheduling_seconds = 0.0; // wall clock
    (orders, inst.ao_peak(), laid, trace)
}

fn same_trace(ctx: &str, a: &Trace, b: &Trace) {
    assert_eq!(a.records, b.records, "{ctx}");
    assert_eq!(a.stats(), b.stats(), "{ctx}");
    assert_eq!(a.makespan, b.makespan, "{ctx}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_live_plan_serves_what_a_fresh_build_computes(tree in arb_tree(40)) {
        for kind in HeuristicKind::all() {
            for (ao, eo) in ORDER_PAIRS {
                let spec = PolicySpec::new(kind, 0).with_orders(ao, eo);
                let spec = spec.clone().with_memory(spec.min_feasible(&tree) * 2);
                for p in [1, 4] {
                    let ctx = format!("{kind} {ao}/{eo} p={p}");
                    let holder = spec.instantiate(&tree).unwrap();
                    let live = spec.instantiate(&tree).unwrap();
                    prop_assert!(std::ptr::eq(live.ao(), holder.ao()), "{}", ctx);
                    let served = derived(&tree, &live, p);
                    drop((holder, live));
                    let fresh = spec.instantiate(&tree).unwrap();
                    let built = derived(&tree, &fresh, p);
                    prop_assert_eq!(&served.0, &built.0, "{}: orders", ctx);
                    prop_assert_eq!(served.1, built.1, "{}: peak", ctx);
                    prop_assert_eq!(&served.2, &built.2, "{}: layout", ctx);
                    same_trace(&ctx, &served.3, &built.3);
                }
            }
        }
    }
}

#[test]
fn a_derived_tree_is_not_served_its_sources_peak() {
    let tree = memtree_gen::synthetic::paper_tree(200, 4);
    let spec = PolicySpec::new(HeuristicKind::MemBooking, u64::MAX / 4);
    let held = spec.instantiate(&tree).unwrap();
    let doubled = tree
        .map_specs(|_, s| TaskSpec {
            output: s.output * 2,
            ..s
        })
        .unwrap();
    let fresh = memtree_order::mem_postorder(&doubled).sequential_peak(&doubled);
    assert_ne!(fresh, held.ao_peak(), "the outputs changed the peak");
    assert_eq!(spec.min_feasible(&doubled), fresh.max(1));
    assert_eq!(spec.instantiate(&doubled).unwrap().ao_peak(), fresh);
    assert_eq!(spec.min_feasible(&tree), held.ao_peak().max(1));
}

#[test]
fn threads_instantiating_at_once_share_one_plan() {
    let tree = large::build(LargeShape::Random, 20_000, 3);
    let spec = PolicySpec::new(HeuristicKind::MemBooking, u64::MAX / 4)
        .with_orders(OrderKind::OptSeq, OrderKind::CriticalPath);
    let start = std::sync::Barrier::new(8);
    let instances: Vec<PolicyInstance> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    spec.instantiate(&tree).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for inst in &instances {
        assert!(std::ptr::eq(inst.ao(), instances[0].ao()));
        assert!(std::ptr::eq(inst.eo(), instances[0].eo()));
    }
}

/// The harness's op with its set-up instance held: re-instantiate, then
/// run on the simulator and on threads, five times. Without the plan
/// registry, every op built memPO and laid the tree out again.
#[test]
fn a_held_instance_plans_once_for_every_op() {
    let tree = large::build(LargeShape::Random, 20_000, 42);
    let spec = PolicySpec::new(HeuristicKind::MemBooking, 0);
    let spec = spec.clone().with_memory(spec.min_feasible(&tree) * 2);
    let held = spec.instantiate(&tree).unwrap();
    let layout = held.relaid(&tree).unwrap();
    for op in 0..5 {
        let inst = spec.instantiate(&tree).unwrap();
        assert!(std::ptr::eq(inst.ao(), held.ao()), "op {op}: memPO rebuilt");
        let sim = SimPlatform::new(4).run_instance(&tree, &inst).unwrap();
        let threaded = ThreadedPlatform::new(2).run_instance(&tree, &inst).unwrap();
        assert_eq!(
            (sim.tasks_run, threaded.tasks_run),
            (tree.len(), tree.len())
        );
        let relaid = inst.relaid(&tree).unwrap();
        assert!(
            std::ptr::eq(relaid.exec_tree(&tree), layout.exec_tree(&tree)),
            "op {op}: laid out again"
        );
    }
}
