// Real-thread integration tests: excluded from the `memtree_loom` model
// build, where sync primitives only work inside a minloom model.
#![cfg(not(memtree_loom))]

//! Property tests for the gang pool: whatever legal gang pattern a
//! moldable policy produces on whatever tree, the threaded executor
//! (a) never runs more concurrent gang members than it has workers —
//! the sum of live allotments stays within `p`, measured by the workers
//! themselves, not the driver's ledger; (b) releases every launched gang —
//! the run finishes the whole tree instead of deadlocking whenever the
//! largest allotment fits the machine; and (c) matches the paper policy's
//! booking envelope when the policy is MoldableMemBooking. Dispatch is
//! batched per driver tick (DESIGN.md §6.4), so (d) pins the tick
//! boundary: members a rescheduler adds in the very tick that launched
//! their gang reach the workers before the driver blocks.

use memtree_order::mem_postorder;
use memtree_runtime::{execute, Workload};
use memtree_sched::{AllotmentCaps, MoldableMemBooking};
use memtree_sim::{
    simulate_with, validate::validate_trace, DriveConfig, LiveStats, RescheduleAction, Rescheduler,
    SimConfig,
};
use memtree_testkit::{arb_tree, counts_from_env, footprint, MoldChaos, SplitMix, WORKERS};
use memtree_tree::{NodeId, TaskSpec};
use proptest::prelude::*;

/// Worker counts the properties draw from; the CI matrix narrows this to
/// one count per job via `MEMTREE_TEST_WORKERS`.
fn arb_workers() -> impl Strategy<Value = usize> {
    let pool = counts_from_env(WORKERS, &[1, 2, 3, 4]);
    (0..pool.len()).prop_map(move |k| pool[k])
}

/// A randomized-but-legal rescheduler: every tick it may shrink any
/// running gang (never to zero) or grow it out of the idle pool, with the
/// same sequential bookkeeping the driver applies — maximal grow/shrink
/// churn while staying inside the contract.
struct ChaosRescheduler(SplitMix);

impl Rescheduler for ChaosRescheduler {
    fn tick(&mut self, stats: &LiveStats, actions: &mut Vec<RescheduleAction>) {
        let mut idle = stats.idle;
        let mut cur: Vec<(NodeId, usize)> = stats
            .gangs
            .iter()
            .map(|g| (g.node, g.allotment as usize))
            .collect();
        // A couple of passes so a gang can shrink and another grow into
        // the freed processors within one tick.
        for _ in 0..2 {
            for slot in cur.iter_mut() {
                let (node, allot) = *slot;
                match self.0.below(4) {
                    0 if allot > 1 => {
                        let release = 1 + self.0.below(allot - 1);
                        actions.push(RescheduleAction::Shrink { node, release });
                        slot.1 -= release;
                        idle += release;
                    }
                    1 if idle > 0 => {
                        let extra = 1 + self.0.below(idle);
                        actions.push(RescheduleAction::Grow { node, extra });
                        slot.1 += extra;
                        idle -= extra;
                    }
                    _ => {}
                }
            }
        }
    }
}

/// Grows every gang to the whole machine in the very tick that launched
/// it, so the launch and the grow share one staging buffer and one flush.
struct GrowAtLaunch {
    seen: Vec<bool>,
    grows: usize,
}

impl Rescheduler for GrowAtLaunch {
    fn tick(&mut self, stats: &LiveStats, actions: &mut Vec<RescheduleAction>) {
        let mut idle = stats.idle;
        for gang in &stats.gangs {
            if idle > 0 && !std::mem::replace(&mut self.seen[gang.node.index()], true) {
                actions.push(RescheduleAction::Grow {
                    node: gang.node,
                    extra: idle,
                });
                self.grows += 1;
                idle = 0;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A chain under unit caps launches exactly one task per tick with
    /// `p − 1` processors idle, and the rescheduler grows it on the spot.
    /// The grown members are admitted to the gang's ledger immediately,
    /// so the task can only complete once every one of them has been
    /// delivered to a worker and has exited: a flush that left the grow
    /// behind would park the driver forever. Completion of every task is
    /// the proof that one flush carried both.
    #[test]
    fn grow_in_the_launch_tick_is_flushed_with_it(
        n in 1usize..40,
        p in arb_workers(),
    ) {
        let tree = memtree_gen::shapes::chain(n, TaskSpec::new(1, 2, 1.0));
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree);
        let caps = AllotmentCaps::uniform(&tree, 1);
        let sched = MoldableMemBooking::try_new(&tree, &ao, &ao, m, caps).unwrap();
        let mut grower = GrowAtLaunch { seen: vec![false; n], grows: 0 };
        let (_, stats) = execute(
            &tree,
            DriveConfig { workers: p, memory: m },
            sched,
            Workload::Noop,
            Some(&mut grower),
        )
        .unwrap();
        prop_assert_eq!(stats.completed, n);
        prop_assert!(stats.peak_busy <= p);
        // Every tick had idle processors to grow into (none when p = 1).
        prop_assert_eq!(grower.grows, if p > 1 { n } else { 0 });
    }

    /// Arbitrary legal gang patterns: the pool never runs more concurrent
    /// members than workers, and every gang is released — the tree always
    /// finishes (allotments are capped at the idle budget ≤ p).
    #[test]
    fn chaos_gangs_complete_without_oversubscription(
        tree in arb_tree(40),
        seed in 1u64..500,
        cap in 1usize..5,
        p in arb_workers(),
    ) {
        let bound = footprint(&tree);
        let (_, stats) = execute(
            &tree,
            DriveConfig { workers: p, memory: bound },
            MoldChaos::new(&tree, bound, seed, cap),
            Workload::Noop,
            None,
        )
        .unwrap();
        // Every launched gang was released: the whole tree completed.
        prop_assert_eq!(stats.completed, tree.len());
        // Live allotments never exceeded the worker count, as measured by
        // the workers' own occupancy counter.
        prop_assert!(
            stats.peak_busy <= p,
            "{} members busy on {} workers", stats.peak_busy, p
        );
        prop_assert!(stats.peak_busy >= 1);
    }

    /// The paper policy under gangs: MoldableMemBooking with any uniform
    /// cap ≤ p finishes at the minimum feasible memory (Theorem 1 carries
    /// over — allotments never change the completion history's legality),
    /// inside the booking envelope, without oversubscribing the pool.
    #[test]
    fn moldable_membooking_completes_at_minimum_memory(
        tree in arb_tree(40),
        cap in 1u32..5,
        p in arb_workers(),
    ) {
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree);
        // "No deadlock when max allotment ≤ p".
        let cap = cap.min(p as u32);
        let caps = AllotmentCaps::uniform(&tree, cap);
        prop_assert!(caps.max_cap() <= p as u32);
        let sched = MoldableMemBooking::try_new(&tree, &ao, &ao, m, caps).unwrap();
        let (_, stats) = execute(
            &tree,
            DriveConfig { workers: p, memory: m },
            sched,
            Workload::Noop,
            None,
        )
        .unwrap();
        prop_assert_eq!(stats.completed, tree.len());
        prop_assert!(stats.peak_busy <= p);
        prop_assert!(stats.peak_booked <= m);
        prop_assert!(stats.peak_actual <= stats.peak_booked);
    }

    /// Time-scaled caps (the sqrt-of-time heuristic) behave identically:
    /// complete, in-envelope, no oversubscription.
    #[test]
    fn sqrt_caps_complete_threaded(
        tree in arb_tree(30),
        p in arb_workers(),
    ) {
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree);
        let caps = AllotmentCaps::sqrt_of_time(&tree, p as u32);
        let sched = MoldableMemBooking::try_new(&tree, &ao, &ao, m, caps).unwrap();
        let (_, stats) = execute(
            &tree,
            DriveConfig { workers: p, memory: m },
            sched,
            Workload::Noop,
            None,
        )
        .unwrap();
        prop_assert_eq!(stats.completed, tree.len());
        prop_assert!(stats.peak_busy <= p);
    }

    /// Mid-run grow/shrink under maximal churn: a chaos policy crossed with
    /// a chaos rescheduler still finishes every tree, never exceeds `p`
    /// members of simultaneous occupancy (workers' own counter, so members
    /// joining via Grow and retiring via Shrink are neither lost nor
    /// double-counted in `busy`), and stays inside the booking envelope.
    #[test]
    fn chaos_reschedule_completes_without_oversubscription(
        tree in arb_tree(30),
        seed in 1u64..500,
        cap in 1usize..5,
        p in arb_workers(),
    ) {
        let bound = footprint(&tree);
        let mut chaos = ChaosRescheduler(SplitMix(seed.rotate_left(29)));
        let (_, stats) = execute(
            &tree,
            DriveConfig { workers: p, memory: bound },
            MoldChaos::new(&tree, bound, seed, cap),
            Workload::Noop,
            Some(&mut chaos),
        )
        .unwrap();
        prop_assert_eq!(stats.completed, tree.len());
        prop_assert!(
            stats.peak_busy <= p,
            "{} members busy on {} workers", stats.peak_busy, p
        );
        prop_assert!(stats.peak_busy >= 1);
        prop_assert!(stats.peak_booked <= bound);
        prop_assert!(stats.peak_actual <= stats.peak_booked);
    }

    /// The same churn through the simulator: the resulting malleable trace
    /// replays cleanly under the one oracle — work conservation per
    /// allotment segment, precedence, memory, and an epoch-ordered
    /// occupancy sweep over the segments that reproduces the driver's
    /// `peak_busy` ledger exactly (segment epochs order the same-instant
    /// launch/resize transients a time-only sweep cannot see).
    #[test]
    fn chaos_reschedule_sim_trace_replays_exactly(
        tree in arb_tree(30),
        seed in 1u64..500,
        cap in 1u32..5,
        p in arb_workers(),
    ) {
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree);
        let caps = AllotmentCaps::uniform(&tree, cap.min(p as u32));
        let sched = MoldableMemBooking::try_new(&tree, &ao, &ao, m, caps).unwrap();
        let mut chaos = ChaosRescheduler(SplitMix(seed));
        let trace = simulate_with(&tree, SimConfig::new(p, m), sched, Some(&mut chaos)).unwrap();
        validate_trace(&tree, &trace).unwrap();
        prop_assert!(trace.peak_busy <= p);
        prop_assert!(trace.peak_booked <= m);
        prop_assert!(trace.peak_actual <= trace.peak_booked);
    }
}
