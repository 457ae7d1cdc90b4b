//! Every constructor refuses orders of another tree with an error, and a
//! `PolicyInstance` carries exactly its activation order's sequential
//! peak as its feasibility floor.

use memtree_order::{mem_postorder, OrderKind};
use memtree_sched::{
    Activation, AllotmentCaps, HeuristicKind, MemBooking, MemBookingRef, MoldableMemBooking,
    PolicyInstance, PolicySpec, RedTreeBooking, SchedError, Sequential,
};
use memtree_testkit::arb_tree;
use memtree_tree::memory::sequential_peak;
use memtree_tree::{TaskSpec, TaskTree};
use proptest::prelude::*;

fn assert_foreign<T>(what: &str, got: Result<T, SchedError>) {
    match got {
        Err(SchedError::InvalidSpec(msg)) => {
            assert!(msg.contains("do not belong to the tree"), "{what}: {msg}")
        }
        Err(e) => panic!("{what}: expected InvalidSpec, got {e}"),
        Ok(_) => panic!("{what}: accepted the orders of another tree"),
    }
}

/// A chain has one topological order; the memPO of a branching tree of
/// the same size is not it. Every constructor says so with an error.
#[test]
fn orders_of_another_tree_of_the_same_size_are_an_error() {
    let chain = memtree_gen::shapes::chain(60, TaskSpec::default());
    let other = memtree_gen::synthetic::paper_tree(60, 5);
    let ao = mem_postorder(&other);
    let own = mem_postorder(&chain);
    let m = u64::MAX / 4;
    // As AO, and as EO next to the chain's own AO.
    for (a, e) in [(&ao, &ao), (&own, &ao)] {
        assert_foreign("Activation", Activation::try_new(&chain, a, e, m));
        assert_foreign("MemBooking", MemBooking::try_new(&chain, a, e, m));
        assert_foreign("MemBookingRef", MemBookingRef::try_new(&chain, a, e, m));
        assert_foreign("RedTree", RedTreeBooking::try_new(&chain, a, e, m));
        let caps = AllotmentCaps::uniform(&chain, 2);
        assert_foreign(
            "MoldableMemBooking",
            MoldableMemBooking::try_new(&chain, a, e, m, caps),
        );
    }
    assert_foreign("Sequential", Sequential::try_new(&chain, &ao, m));
    // An instance of the other tree, relaid against the chain.
    let spec = PolicySpec::new(HeuristicKind::MemBooking, m);
    assert_foreign("relaid", spec.instantiate(&other).unwrap().relaid(&chain));
    // The chain's own order passes every check.
    MemBooking::try_new(&chain, &own, &own, m).unwrap();
}

/// The floor of an instance, checked against a replay of its AO on the
/// tree it schedules, and the bound one below it refused.
fn check_floor(tree: &TaskTree, inst: &PolicyInstance) {
    let exec = inst.exec_tree(tree);
    let floor = inst.ao_peak();
    prop_assert_eq!(floor, sequential_peak(exec, inst.ao().sequence()).unwrap());
    if inst.kind() != HeuristicKind::MemBookingRedTree {
        // RedTree's escrow can sit above the floor: only the refusal
        // below it holds for every kind.
        prop_assert!(inst.with_memory(floor).scheduler(tree).is_ok());
    }
    if floor > 0 {
        let below = inst.with_memory(floor - 1).scheduler(tree).err();
        prop_assert!(
            matches!(below, Some(SchedError::InfeasibleMemory { .. })),
            "{:?} at floor − 1",
            inst.kind()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every kind × {memPO, OptSeq, CP, naturalPO}: the instance carries
    /// AO's sequential peak, in caller ids and after `relaid` (RedTree on
    /// its transformed tree), and a plan whose AO was live only as
    /// another plan's EO replays it to the same floor.
    #[test]
    fn the_carried_floor_is_the_activation_orders_peak(tree in arb_tree(30)) {
        for kind in HeuristicKind::all() {
            for ao in [
                OrderKind::MemPostorder,
                OrderKind::OptSeq,
                OrderKind::CriticalPath,
                OrderKind::NaturalPostorder,
            ] {
                let spec = PolicySpec::new(kind, 0).with_orders(ao, OrderKind::CriticalPath);
                let inst = spec.instantiate(&tree).unwrap();
                check_floor(&tree, &inst);
                check_floor(&tree, &inst.relaid(&tree).unwrap());
                let copy = tree.clone();
                let eo_first = PolicySpec::new(kind, 0)
                    .with_orders(OrderKind::CriticalPath, ao)
                    .instantiate(&copy)
                    .unwrap();
                let replayed = spec.instantiate(&copy).unwrap();
                prop_assert!(std::ptr::eq(replayed.ao(), eo_first.eo()));
                prop_assert_eq!(replayed.ao_peak(), inst.ao_peak());
                check_floor(&copy, &replayed);
            }
        }
    }
}
