//! Makespan lower bounds, including the paper's memory-aware bound.
//!
//! Section 6, Theorem 3: any schedule respecting the memory bound `M`
//! satisfies `Cmax ≥ (1/M) Σ_i MemNeeded(i)·t_i` — each task occupies
//! `MemNeeded(i)` memory for `t_i` time, and the schedule's total
//! memory-time product cannot exceed `Cmax·M`. Combined with the classical
//! bounds (average workload and critical path), this is what all
//! "normalized makespan" plots divide by.

use memtree_tree::stats::subtree_critical_paths;
use memtree_tree::{TaskTree, TreeStats};

/// The three makespan lower bounds for a tree on `p` processors with
/// memory `M`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LowerBounds {
    /// Average workload: `Σ t_i / p`.
    pub work: f64,
    /// Critical path: the heaviest leaf-to-root path.
    pub critical_path: f64,
    /// Theorem 3: `Σ MemNeeded(i)·t_i / M`.
    pub memory_aware: f64,
}

impl LowerBounds {
    /// Computes all three bounds; the critical path is one children-first
    /// sweep, not a full [`TreeStats`].
    pub fn compute(tree: &TaskTree, processors: usize, memory: u64) -> Self {
        let critical_path = subtree_critical_paths(tree)[tree.root().index()];
        Self::with_critical_path(tree, critical_path, processors, memory)
    }

    /// As [`LowerBounds::compute`] with precomputed statistics.
    pub fn compute_with_stats(
        tree: &TaskTree,
        stats: &TreeStats,
        processors: usize,
        memory: u64,
    ) -> Self {
        Self::with_critical_path(tree, stats.critical_path(tree), processors, memory)
    }

    fn with_critical_path(
        tree: &TaskTree,
        critical_path: f64,
        processors: usize,
        memory: u64,
    ) -> Self {
        assert!(processors > 0, "need at least one processor");
        assert!(memory > 0, "need a positive memory bound");
        let work = tree.total_time() / processors as f64;
        // Summed in id order: the order of a floating-point sum is part of
        // its value, and the bound is compared bit for bit across runs.
        let memory_aware = tree
            .nodes()
            .map(|i| tree.mem_needed(i) as f64 * tree.time(i))
            .sum::<f64>()
            / memory as f64;
        LowerBounds {
            work,
            critical_path,
            memory_aware,
        }
    }

    /// The classical bound: `max(work, critical_path)`.
    pub fn classical(&self) -> f64 {
        self.work.max(self.critical_path)
    }

    /// The combined bound: `max(classical, memory_aware)`.
    pub fn best(&self) -> f64 {
        self.classical().max(self.memory_aware)
    }

    /// Whether the new memory-aware bound strictly improves on the
    /// classical one (the statistic reported in Section 6: 22 % of
    /// assembly-tree cases at p = 8, 33 % of synthetic ones).
    pub fn memory_bound_improves(&self) -> bool {
        self.memory_aware > self.classical()
    }

    /// Relative improvement of the combined bound over the classical one
    /// (0 when the memory bound does not help).
    pub fn improvement_ratio(&self) -> f64 {
        if !self.memory_bound_improves() {
            return 0.0;
        }
        self.memory_aware / self.classical() - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_sim::{simulate, SimConfig};
    use memtree_tree::TaskSpec;

    #[test]
    fn bounds_on_a_fork() {
        // Root (t=1, needs 2+3+1=6), leaves t=2 (needs 2), t=3 (needs 3).
        let t = memtree_tree::TaskTree::from_parents(
            &[None, Some(0), Some(0)],
            &[
                TaskSpec::new(0, 1, 1.0),
                TaskSpec::new(0, 2, 2.0),
                TaskSpec::new(0, 3, 3.0),
            ],
        )
        .unwrap();
        let lb = LowerBounds::compute(&t, 2, 6);
        assert_eq!(lb.work, 3.0);
        assert_eq!(lb.critical_path, 4.0);
        // Σ needed*t = 6*1 + 2*2 + 3*3 = 19; /6 ≈ 3.1667.
        assert!((lb.memory_aware - 19.0 / 6.0).abs() < 1e-12);
        assert_eq!(lb.classical(), 4.0);
        assert_eq!(lb.best(), 4.0);
        assert!(!lb.memory_bound_improves());
        // Tighten memory: M = 4 -> memory bound = 4.75 > 4.
        let lb = LowerBounds::compute(&t, 2, 4);
        assert!(lb.memory_bound_improves());
        assert!((lb.improvement_ratio() - (4.75 / 4.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn memory_bound_independent_of_processors() {
        let t = memtree_gen::synthetic::paper_tree(100, 5);
        let a = LowerBounds::compute(&t, 2, 1000).memory_aware;
        let b = LowerBounds::compute(&t, 32, 1000).memory_aware;
        assert_eq!(a, b);
    }

    #[test]
    fn every_simulated_schedule_respects_the_bounds() {
        // Theorem 3 is about *any* correct schedule: check against real
        // MemBooking runs across memory pressures.
        for seed in 0..8 {
            let t = memtree_gen::synthetic::paper_tree(150, 100 + seed);
            let ao = memtree_order::mem_postorder(&t);
            let min_m = ao.sequential_peak(&t);
            for factor in [1.0f64, 1.5, 4.0] {
                let m = (min_m as f64 * factor) as u64;
                let s = crate::MemBooking::try_new(&t, &ao, &ao, m).unwrap();
                let trace = simulate(&t, SimConfig::new(4, m), s).unwrap();
                let lb = LowerBounds::compute(&t, 4, m);
                assert!(
                    trace.makespan >= lb.best() - 1e-6,
                    "seed {seed} factor {factor}: makespan {} below bound {}",
                    trace.makespan,
                    lb.best()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        let t = memtree_gen::shapes::chain(2, TaskSpec::default());
        LowerBounds::compute(&t, 0, 10);
    }
}
