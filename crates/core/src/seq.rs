//! Sequential baseline: execute the activation order on one processor.

use crate::activation::check_feasible;
use crate::error::SchedError;
use memtree_order::Order;
use memtree_sim::Scheduler;
use memtree_tree::{NodeId, TaskTree};

/// Runs the tasks one at a time in `AO` order, booking exactly the resident
/// memory. Uses at most one processor regardless of `p` — the baseline the
/// paper's "minimum memory" normalisation is defined against.
pub struct Sequential<'a> {
    tree: &'a TaskTree,
    order: Vec<NodeId>,
    next: usize,
    running: bool,
    booked: u64,
}

impl<'a> Sequential<'a> {
    /// Builds the policy; requires `M ≥ peak(AO)` like every other policy.
    pub fn try_new(tree: &'a TaskTree, ao: &'a Order, memory: u64) -> Result<Self, SchedError> {
        Self::with_floor(tree, ao, memory, None)
    }

    /// [`Sequential::try_new`], given `peak(AO)` when the caller carries
    /// it.
    pub(crate) fn with_floor(
        tree: &'a TaskTree,
        ao: &'a Order,
        memory: u64,
        floor: Option<u64>,
    ) -> Result<Self, SchedError> {
        check_feasible(tree, ao, ao, memory, floor)?;
        Ok(Sequential {
            tree,
            order: ao.sequence().to_vec(),
            next: 0,
            running: false,
            booked: 0,
        })
    }
}

impl Scheduler for Sequential<'_> {
    fn name(&self) -> &str {
        "Sequential"
    }

    fn on_event(&mut self, finished: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>) {
        // Free inputs and execution data of what just finished; the output
        // stays resident.
        for &j in finished {
            self.booked -= self.tree.exec(j) + self.tree.input_size(j);
            self.running = false;
        }
        if idle > 0 && !self.running && self.next < self.order.len() {
            let i = self.order[self.next];
            self.next += 1;
            self.running = true;
            self.booked += self.tree.exec(i) + self.tree.output(i);
            to_start.push((i, 1));
        }
    }

    fn booked(&self) -> u64 {
        self.booked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_order::mem_postorder;
    use memtree_sim::{simulate, SimConfig};

    #[test]
    fn runs_one_at_a_time_and_matches_peak() {
        for seed in 0..5 {
            let t = memtree_gen::synthetic::paper_tree(80, seed);
            let ao = mem_postorder(&t);
            let m = ao.sequential_peak(&t);
            let s = Sequential::try_new(&t, &ao, m).unwrap();
            let trace = simulate(&t, SimConfig::new(8, m), s).unwrap();
            memtree_sim::validate::validate_trace(&t, &trace).unwrap();
            assert_eq!(trace.max_concurrency(), 1);
            assert!((trace.makespan - t.total_time()).abs() < 1e-6);
            // Sequential booking is exact: peak booked = peak actual = peak(AO).
            assert_eq!(trace.peak_actual, m);
            assert_eq!(trace.peak_booked, m);
        }
    }

    #[test]
    fn infeasible_rejected() {
        let t = memtree_gen::synthetic::paper_tree(40, 1);
        let ao = mem_postorder(&t);
        let m = ao.sequential_peak(&t);
        assert!(Sequential::try_new(&t, &ao, m - 1).is_err());
    }
}
