//! MemBooking adapted to **moldable** tasks — the extension sketched in
//! the paper's conclusion.
//!
//! The booking machinery is unchanged: activation, `BookedBySubtree` and
//! ALAP dispatch never depended on how many processors a task uses, only
//! on completion events. What changes is the start decision: when fewer
//! runnable tasks than idle processors exist, the spare processors are
//! spread over the started tasks (bounded by a per-task allotment cap),
//! resolving the paper's stated trade-off between "allocating many
//! processors to big tasks (losing tree parallelism)" and "allocating many
//! tasks in parallel (threatening the memory bound)" with a simple
//! even-split rule that favours tree parallelism first.
//!
//! Memory accounting is inherited verbatim, so Theorem 1 still applies:
//! the sequence of completions is a legal MemBooking history regardless of
//! allotments, hence the tree still finishes whenever `M ≥ peak(AO)`.

use crate::error::SchedError;
use crate::membooking::MemBooking;
use memtree_order::Order;
use memtree_sim::Scheduler;
use memtree_tree::{NodeId, TaskTree};

/// Per-task allotment caps.
#[derive(Clone, Debug)]
pub struct AllotmentCaps {
    caps: Vec<u32>,
}

impl AllotmentCaps {
    /// Uniform cap for every task.
    pub fn uniform(tree: &TaskTree, cap: u32) -> Self {
        assert!(cap >= 1);
        AllotmentCaps {
            caps: vec![cap; tree.len()],
        }
    }

    /// Caps proportional to the square root of each task's sequential
    /// time — a standard proxy for the useful parallelism of dense-kernel
    /// tasks (fronts scale ~ quadratically in work, linearly in rank).
    pub fn sqrt_of_time(tree: &TaskTree, max_cap: u32) -> Self {
        assert!(max_cap >= 1);
        let mean = (tree.total_time() / tree.len() as f64).max(1e-12);
        let caps = tree
            .nodes()
            .map(|i| {
                let ratio = (tree.time(i) / mean).max(0.0);
                (ratio.sqrt().round() as u32).clamp(1, max_cap)
            })
            .collect();
        AllotmentCaps { caps }
    }

    /// Explicit per-task caps in node-index order — how a sharded
    /// platform projects a tree's caps onto a shard's local id space.
    ///
    /// # Panics
    /// When `caps` is empty or any cap is 0.
    pub fn from_caps(caps: Vec<u32>) -> Self {
        assert!(!caps.is_empty(), "one cap per task required");
        assert!(caps.iter().all(|&c| c >= 1), "caps must be ≥ 1");
        AllotmentCaps { caps }
    }

    /// Cap of task `i`.
    #[inline]
    pub fn cap(&self, i: NodeId) -> u32 {
        self.caps[i.index()]
    }

    /// The largest cap of any task — the minimum worker count a platform
    /// needs for every gang to be schedulable at its full allotment.
    pub fn max_cap(&self) -> u32 {
        self.caps.iter().copied().max().unwrap_or(1)
    }

    /// The caps in node-index order (read-only; used by spec
    /// fingerprinting).
    pub fn as_slice(&self) -> &[u32] {
        &self.caps
    }
}

/// MemBooking for moldable tasks: identical booking, even-split allotment.
pub struct MoldableMemBooking<'a> {
    inner: MemBooking<'a>,
    caps: AllotmentCaps,
}

impl<'a> MoldableMemBooking<'a> {
    /// Builds the policy; the feasibility condition is the same as
    /// sequential MemBooking's (`M ≥ peak(AO)`).
    pub fn try_new(
        tree: &'a TaskTree,
        ao: &'a Order,
        eo: &'a Order,
        memory: u64,
        caps: AllotmentCaps,
    ) -> Result<Self, SchedError> {
        Self::with_floor(tree, ao, eo, memory, caps, None)
    }

    /// [`MoldableMemBooking::try_new`], given `peak(AO)` when the caller
    /// carries it.
    pub(crate) fn with_floor(
        tree: &'a TaskTree,
        ao: &'a Order,
        eo: &'a Order,
        memory: u64,
        caps: AllotmentCaps,
        floor: Option<u64>,
    ) -> Result<Self, SchedError> {
        assert_eq!(caps.caps.len(), tree.len(), "one cap per task required");
        Ok(MoldableMemBooking {
            inner: MemBooking::with_floor(tree, ao, eo, memory, floor)?,
            caps,
        })
    }
}

impl Scheduler for MoldableMemBooking<'_> {
    fn name(&self) -> &str {
        "MoldableMemBooking"
    }

    fn on_event(&mut self, finished: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>) {
        // Let the sequential policy pick which tasks may start (each on
        // one processor): tree parallelism first.
        self.inner.on_event(finished, idle, to_start);
        if to_start.is_empty() {
            return;
        }
        // Spread the idle processors evenly, capped per task; leftovers go
        // to the earliest picks (they have the highest EO priority). The
        // allotments are rewritten in place.
        let base = idle / to_start.len();
        let mut extra = idle % to_start.len();
        let mut spare = 0usize;
        for (i, q) in to_start.iter_mut() {
            *q = base;
            if extra > 0 {
                *q += 1;
                extra -= 1;
            }
            let cap = self.caps.cap(*i) as usize;
            if *q > cap {
                spare += *q - cap;
                *q = cap;
            }
            *q = (*q).max(1);
        }
        // Second pass: hand the spare processors to uncapped tasks.
        for (i, q) in to_start.iter_mut() {
            if spare == 0 {
                break;
            }
            let room = (self.caps.cap(*i) as usize).saturating_sub(*q);
            let give = room.min(spare);
            *q += give;
            spare -= give;
        }
    }

    fn booked(&self) -> u64 {
        self.inner.booked()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_order::mem_postorder;
    use memtree_sim::validate::validate_trace;
    use memtree_sim::{simulate, SimConfig, SpeedupModel};
    use memtree_tree::TaskSpec;

    #[test]
    fn moldable_never_slower_than_sequential_tasks_linear() {
        for seed in 0..6 {
            let tree = memtree_gen::synthetic::paper_tree(200, seed);
            let ao = mem_postorder(&tree);
            let m = ao.sequential_peak(&tree) * 2;
            let p = 8;

            let seq_trace = simulate(
                &tree,
                SimConfig::new(p, m),
                MemBooking::try_new(&tree, &ao, &ao, m).unwrap(),
            )
            .unwrap();

            let caps = AllotmentCaps::uniform(&tree, p as u32);
            let mold = MoldableMemBooking::try_new(&tree, &ao, &ao, m, caps).unwrap();
            let mold_trace = simulate(&tree, SimConfig::new(p, m), mold).unwrap();
            validate_trace(&tree, &mold_trace).unwrap();
            assert!(
                mold_trace.makespan <= seq_trace.makespan + 1e-9,
                "seed {seed}: moldable {} vs sequential-task {}",
                mold_trace.makespan,
                seq_trace.makespan
            );
        }
    }

    #[test]
    fn chain_is_the_win_case() {
        // A chain has zero tree parallelism: sequential-task scheduling
        // cannot beat the serial time, moldable with linear speedup can.
        let tree = memtree_gen::shapes::chain(50, TaskSpec::new(1, 3, 2.0));
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree);
        let p = 4;
        let caps = AllotmentCaps::uniform(&tree, p as u32);
        let mold = MoldableMemBooking::try_new(&tree, &ao, &ao, m, caps).unwrap();
        let trace = simulate(&tree, SimConfig::new(p, m), mold).unwrap();
        validate_trace(&tree, &trace).unwrap();
        assert!((trace.makespan - tree.total_time() / p as f64).abs() < 1e-9);
    }

    #[test]
    fn amdahl_caps_the_gain() {
        let tree = memtree_gen::shapes::chain(30, TaskSpec::new(1, 3, 2.0));
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree);
        let p = 8;
        let model = SpeedupModel::Amdahl {
            serial_fraction: 0.5,
        };
        let caps = AllotmentCaps::uniform(&tree, p as u32);
        let mold = MoldableMemBooking::try_new(&tree, &ao, &ao, m, caps).unwrap();
        let trace = simulate(&tree, SimConfig::new(p, m).with_speedup(model), mold).unwrap();
        validate_trace(&tree, &trace).unwrap();
        // Amdahl with f = 0.5 cannot double the speed no matter what.
        assert!(trace.makespan >= tree.total_time() / 2.0 - 1e-9);
        assert!(trace.makespan < tree.total_time());
    }

    #[test]
    fn caps_respected() {
        let tree = memtree_gen::shapes::chain(10, TaskSpec::new(0, 1, 1.0));
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree);
        let caps = AllotmentCaps::uniform(&tree, 2);
        let mold = MoldableMemBooking::try_new(&tree, &ao, &ao, m, caps).unwrap();
        let trace = simulate(&tree, SimConfig::new(8, m), mold).unwrap();
        assert!(trace.records.iter().all(|r| r.procs <= 2));
    }

    #[test]
    fn sqrt_caps_scale_with_time() {
        let tree = memtree_tree::TaskTree::from_parents(
            &[None, Some(0), Some(0)],
            &[
                TaskSpec::new(0, 1, 1.0),
                TaskSpec::new(0, 1, 100.0),
                TaskSpec::new(0, 1, 0.01),
            ],
        )
        .unwrap();
        let caps = AllotmentCaps::sqrt_of_time(&tree, 16);
        assert!(caps.cap(memtree_tree::NodeId(1)) > caps.cap(memtree_tree::NodeId(2)));
        assert!(caps.cap(memtree_tree::NodeId(2)) >= 1);
    }

    #[test]
    fn memory_invariants_hold_at_minimum_memory() {
        // The Theorem-1 argument carries over: run at exactly peak(AO).
        for seed in 0..4 {
            let tree = memtree_gen::synthetic::paper_tree(150, 70 + seed);
            let ao = mem_postorder(&tree);
            let m = ao.sequential_peak(&tree);
            let caps = AllotmentCaps::sqrt_of_time(&tree, 8);
            let mold = MoldableMemBooking::try_new(&tree, &ao, &ao, m, caps).unwrap();
            let trace = simulate(&tree, SimConfig::new(8, m), mold).unwrap();
            validate_trace(&tree, &trace).unwrap();
            assert!(trace.peak_booked <= m);
            assert!(trace.peak_actual <= trace.peak_booked);
        }
    }
}
