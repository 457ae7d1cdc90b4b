//! Theorem 1 over every completion order, not just the simulator's.
//!
//! The paper's guarantee — booked ≤ M at every instant, and no deadlock
//! when M is the activation order's sequential peak — is universally
//! quantified over the order in which running tasks complete. The
//! simulator checks one order per run: the virtual clock's. These
//! properties pump [`DriverCore`] directly, with no clock and no threads,
//! and at every step complete a seed-chosen non-empty subset of the
//! running tasks, handed over in a seed-chosen order. Every run must keep
//! booked ≤ M, actual ≤ booked and Σ allotments ≤ p at every step, and end
//! with every task completed — the worst-case-over-schedules stance of
//! "Parallel scheduling of task trees with limited memory" applied to the
//! driver itself.

use memtree_order::OrderKind;
use memtree_sched::{AllotmentCaps, HeuristicKind, PolicySpec};
use memtree_sim::{DriveConfig, DriverCore};
use memtree_testkit::{arb_tree, SplitMix};
use memtree_tree::{NodeId, TaskTree};
use proptest::prelude::*;

/// `spec` at its own feasibility floor, with memPO activation and CP
/// execution orders.
fn at_floor(tree: &TaskTree, kind: HeuristicKind, caps: Option<AllotmentCaps>) -> PolicySpec {
    let mut spec =
        PolicySpec::new(kind, 0).with_orders(OrderKind::MemPostorder, OrderKind::CriticalPath);
    if let Some(caps) = caps {
        spec = spec.with_caps(caps);
    }
    let floor = spec.min_feasible(tree);
    spec.with_memory(floor)
}

/// Pumps `spec` over `tree` on `p` processors, completing a seed-chosen
/// subset of the running tasks in a seed-chosen order at every step and
/// checking the memory and processor envelope after each. Returns the
/// number of steps the run took.
fn pump_in_chosen_order(tree: &TaskTree, spec: &PolicySpec, p: usize, seed: u64) -> usize {
    let instance = spec.instantiate(tree).expect("spec instantiates");
    let exec = instance.exec_tree(tree);
    let scheduler = instance.scheduler(tree).expect("feasible at its floor");
    let m = spec.memory;
    let cfg = DriveConfig::new(p, m);
    let mut core: DriverCore<'_, _> = DriverCore::new(exec, cfg, scheduler, None).unwrap();
    let mut running: Vec<(NodeId, usize)> = Vec::new();
    let mut batch: Vec<NodeId> = Vec::new();
    let mut choices = SplitMix(seed);
    let mut steps = 0;
    loop {
        let tick = core
            .step(&mut batch, |_| None)
            .unwrap_or_else(|e| panic!("{} on p = {p}, step {steps}: {e}", spec.kind));
        steps += 1;
        assert!(tick.booked <= m, "booked {} > M {m}", tick.booked);
        assert!(tick.actual <= tick.booked, "actual above booked");
        running.extend_from_slice(tick.launches);
        let busy: usize = running.iter().map(|&(_, q)| q).sum();
        assert!(busy <= p, "{busy} processors busy of {p}");
        if tick.done {
            break;
        }
        batch.clear();
        for _ in 0..=choices.below(running.len()) {
            let (task, _) = running.swap_remove(choices.below(running.len()));
            batch.push(task);
        }
    }
    assert!(running.is_empty(), "done with tasks still running");
    assert_eq!(core.stats().completed, exec.len(), "every task completed");
    steps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every kind, at its own floor, on unit gangs.
    #[test]
    fn every_completion_order_completes_within_the_bound(
        tree in arb_tree(40),
        seed in 0u64..u64::MAX,
        p in 1usize..5,
    ) {
        for kind in HeuristicKind::all() {
            let spec = at_floor(&tree, kind, None);
            let steps = pump_in_chosen_order(&tree, &spec, p, seed);
            let n = spec.instantiate(&tree).unwrap().exec_tree(&tree).len();
            // At least one completion per step after the first.
            prop_assert!(steps <= n + 1);
        }
    }

    /// MemBooking's moldable adaptation: gangs of up to `cap` processors.
    #[test]
    fn moldable_completion_orders_complete_within_the_bound(
        tree in arb_tree(40),
        seed in 0u64..u64::MAX,
        p in 1usize..6,
        cap in 1u32..4,
    ) {
        let caps = AllotmentCaps::uniform(&tree, cap);
        let spec = at_floor(&tree, HeuristicKind::MemBooking, Some(caps));
        let steps = pump_in_chosen_order(&tree, &spec, p, seed);
        prop_assert!(steps <= tree.len() + 1);
    }
}
