//! MemBooking optimised vs reference: bit-identical schedules, plus the
//! Theorem-1 termination guarantee and global memory invariants for every
//! policy.

use memtree_order::{cp_order, make_order, mem_postorder, OrderKind};
use memtree_sched::{
    to_reduction_tree, Activation, HeuristicKind, MemBooking, MemBookingRef, PolicySpec,
    RedTreeBooking, SchedError,
};
use memtree_sim::{simulate, validate::validate_trace, SimConfig};
use memtree_testkit::{arb_tree, footprint};
use memtree_tree::TaskSpec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Algorithms 2–4 and Algorithms 5–6 produce the same schedule,
    /// event for event, across processor counts and memory pressures.
    #[test]
    fn optimized_matches_reference(
        tree in arb_tree(40),
        p in 1usize..6,
        factor_pct in 100u64..300,
    ) {
        let ao = mem_postorder(&tree);
        let min_m = ao.sequential_peak(&tree);
        let m = (min_m * factor_pct).div_ceil(100).max(1);

        let fast = MemBooking::try_new(&tree, &ao, &ao, m).unwrap();
        let slow = MemBookingRef::try_new(&tree, &ao, &ao, m).unwrap();
        let cfg = SimConfig::new(p, m);
        let tf = simulate(&tree, cfg, fast).unwrap();
        let ts = simulate(&tree, cfg, slow).unwrap();

        prop_assert_eq!(tf.makespan, ts.makespan);
        prop_assert_eq!(tf.peak_booked, ts.peak_booked);
        for i in tree.nodes() {
            prop_assert_eq!(tf.record(i).start, ts.record(i).start, "node {:?}", i);
            prop_assert_eq!(tf.record(i).finish, ts.record(i).finish, "node {:?}", i);
        }
    }

    /// Theorem 1: with M exactly the sequential peak of AO, MemBooking
    /// completes the tree — on any number of processors.
    #[test]
    fn terminates_at_exactly_minimum_memory(tree in arb_tree(60), p in 1usize..9) {
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree).max(1);
        let s = MemBooking::try_new(&tree, &ao, &ao, m).unwrap();
        let trace = simulate(&tree, SimConfig::new(p, m), s).unwrap();
        validate_trace(&tree, &trace).unwrap();
    }

    /// Below the guarantee, construction must refuse (never deadlock).
    #[test]
    fn below_minimum_is_rejected(tree in arb_tree(40)) {
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree);
        prop_assume!(m > 0);
        for sched in [
            MemBooking::try_new(&tree, &ao, &ao, m - 1).err().map(|_| ()),
            MemBookingRef::try_new(&tree, &ao, &ao, m - 1).err().map(|_| ()),
            Activation::try_new(&tree, &ao, &ao, m - 1).err().map(|_| ()),
        ] {
            prop_assert_eq!(sched, Some(()));
        }
    }

    /// Both policies produce valid traces under every memory pressure and
    /// the booked memory never exceeds M (checked inside the engine) while
    /// actual stays under booked.
    #[test]
    fn traces_validate_across_pressures(
        tree in arb_tree(50),
        p in 1usize..5,
        factor_pct in 100u64..500,
    ) {
        let ao = mem_postorder(&tree);
        let eo = cp_order(&tree);
        let min_m = ao.sequential_peak(&tree);
        let m = (min_m * factor_pct).div_ceil(100).max(1);
        let cfg = SimConfig::new(p, m);

        let mb = simulate(&tree, cfg, MemBooking::try_new(&tree, &ao, &eo, m).unwrap()).unwrap();
        validate_trace(&tree, &mb).unwrap();
        let ac = simulate(&tree, cfg, Activation::try_new(&tree, &ao, &eo, m).unwrap()).unwrap();
        validate_trace(&tree, &ac).unwrap();

        // MemBooking books no more than it needs: peak booked ≤ M always
        // (engine-checked) and never exceeds the total footprint.
        prop_assert!(mb.peak_booked <= m);
    }

    /// `min_feasible` is the replayed sequential peak of the spec's
    /// activation order — for memPO read off Liu's peak sweep without
    /// building the order — or, for RedTree, the escrow minimum on the
    /// transformed tree; for every kind and every order.
    #[test]
    fn min_feasible_is_the_activation_orders_peak(tree in arb_tree(40)) {
        for kind in HeuristicKind::all() {
            for ao in [
                OrderKind::MemPostorder,
                OrderKind::OptSeq,
                OrderKind::CriticalPath,
                OrderKind::PerfPostorder,
                OrderKind::AvgMemPostorder,
                OrderKind::NaturalPostorder,
            ] {
                let expected = match kind {
                    HeuristicKind::MemBookingRedTree => {
                        let red = to_reduction_tree(&tree).unwrap().tree;
                        RedTreeBooking::min_memory(&red, &make_order(&red, ao))
                    }
                    _ => make_order(&tree, ao).sequential_peak(&tree),
                };
                let spec = PolicySpec::new(kind, 0).with_orders(ao, OrderKind::CriticalPath);
                prop_assert_eq!(spec.min_feasible(&tree), expected.max(1), "{} / {}", kind, ao);
            }
        }
    }

    /// MemBooking with one processor takes exactly the serial time.
    #[test]
    fn single_processor_serialises(tree in arb_tree(40)) {
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree).max(1);
        let s = MemBooking::try_new(&tree, &ao, &ao, m).unwrap();
        let trace = simulate(&tree, SimConfig::new(1, m), s).unwrap();
        prop_assert!((trace.makespan - tree.total_time()).abs() < 1e-9);
    }

    /// More memory never slows MemBooking down (monotonicity smoke check —
    /// not a theorem of the paper, but a strong regression signal for the
    /// booking logic on identical EO tie-breaking).
    #[test]
    fn huge_memory_reaches_greedy_parallelism(tree in arb_tree(40), p in 2usize..5) {
        // With unbounded memory every policy degenerates to plain list
        // scheduling by EO; MemBooking must reach it.
        let ao = mem_postorder(&tree);
        let total = footprint(&tree);
        let s = MemBooking::try_new(&tree, &ao, &ao, total).unwrap();
        let a = simulate(&tree, SimConfig::new(p, total), s).unwrap();
        let s2 = Activation::try_new(&tree, &ao, &ao, total).unwrap();
        let b = simulate(&tree, SimConfig::new(p, total), s2).unwrap();
        // With memory a non-constraint the two heuristics coincide.
        prop_assert_eq!(a.makespan, b.makespan);
    }
}

#[test]
fn infeasible_error_carries_requirements() {
    let tree = memtree_gen::shapes::chain(4, TaskSpec::new(2, 10, 1.0));
    let ao = mem_postorder(&tree);
    let need = ao.sequential_peak(&tree);
    match MemBooking::try_new(&tree, &ao, &ao, need - 1).err() {
        Some(SchedError::InfeasibleMemory {
            required,
            available,
        }) => {
            assert_eq!(required, need);
            assert_eq!(available, need - 1);
        }
        other => panic!("expected InfeasibleMemory, got {other:?}"),
    }
}

#[test]
fn order_kinds_all_work_as_ao_eo() {
    let tree = memtree_gen::synthetic::paper_tree(80, 9);
    for ao_kind in [
        OrderKind::MemPostorder,
        OrderKind::OptSeq,
        OrderKind::PerfPostorder,
    ] {
        for eo_kind in [OrderKind::CriticalPath, OrderKind::MemPostorder] {
            let ao = memtree_order::make_order(&tree, ao_kind);
            let eo = memtree_order::make_order(&tree, eo_kind);
            let m = ao.sequential_peak(&tree) * 2;
            let s = MemBooking::try_new(&tree, &ao, &eo, m).unwrap();
            let trace = simulate(&tree, SimConfig::new(4, m), s).unwrap();
            validate_trace(&tree, &trace).unwrap();
        }
    }
}
