//! Memory semantics: what is resident when, and sequential peak evaluation.
//!
//! The model (Section 2 of the paper): while task `i` runs, its inputs
//! (children outputs), execution data `n_i` and output `f_i` are resident.
//! When `i` completes, inputs and execution data are freed; the output stays
//! resident until `parent(i)` completes (the root's output stays forever).

use crate::node::NodeId;
use crate::tree::TaskTree;
use crate::Result;

/// `MemNeeded(i)` for every node, as a dense array.
pub fn mem_needed_slice(tree: &TaskTree) -> Vec<u64> {
    tree.nodes().map(|i| tree.mem_needed(i)).collect()
}

/// Incremental tracker of the **actual** resident memory of an execution.
///
/// Drive it with [`LiveSet::start`] / [`LiveSet::finish`] as tasks begin and
/// end (in any interleaving respecting precedence); [`LiveSet::current`]
/// reports the resident bytes, and [`LiveSet::peak`] the running maximum.
/// This is the ground truth the simulator validates schedules against.
#[derive(Clone, Debug)]
pub struct LiveSet<'a> {
    tree: &'a TaskTree,
    /// Outputs currently resident (produced, parent not completed).
    live_outputs: u64,
    /// Σ (n_i + f_i) over currently running tasks.
    running_extra: u64,
    /// Whether each node's output is currently resident — the precedence
    /// cross-check of debug builds. Release builds would only ever write
    /// it; a driver checks precedence on its own `finished` set.
    #[cfg(debug_assertions)]
    output_live: Vec<bool>,
    peak: u64,
}

impl<'a> LiveSet<'a> {
    /// An empty memory state for `tree`.
    pub fn new(tree: &'a TaskTree) -> Self {
        LiveSet {
            tree,
            live_outputs: 0,
            running_extra: 0,
            #[cfg(debug_assertions)]
            output_live: vec![false; tree.len()],
            peak: 0,
        }
    }

    /// Registers the start of task `i`. Panics (debug) if a child output is
    /// missing — that would be a precedence violation.
    pub fn start(&mut self, i: NodeId) {
        #[cfg(debug_assertions)]
        for &c in self.tree.children(i) {
            debug_assert!(
                self.output_live[c.index()],
                "starting {i:?} before child {c:?} completed"
            );
        }
        self.running_extra += self.tree.exec(i) + self.tree.output(i);
        self.bump();
    }

    /// Registers the completion of task `i`: frees its inputs and execution
    /// data, keeps its output resident.
    pub fn finish(&mut self, i: NodeId) {
        self.running_extra -= self.tree.exec(i) + self.tree.output(i);
        for &c in self.tree.children(i) {
            #[cfg(debug_assertions)]
            {
                debug_assert!(self.output_live[c.index()]);
                self.output_live[c.index()] = false;
            }
            self.live_outputs -= self.tree.output(c);
        }
        #[cfg(debug_assertions)]
        {
            self.output_live[i.index()] = true;
        }
        self.live_outputs += self.tree.output(i);
        self.bump();
    }

    /// Resident memory right now.
    #[inline]
    pub fn current(&self) -> u64 {
        self.live_outputs + self.running_extra
    }

    /// Largest value [`LiveSet::current`] has reached.
    #[inline]
    pub fn peak(&self) -> u64 {
        self.peak
    }

    #[inline]
    fn bump(&mut self) {
        self.peak = self.peak.max(self.current());
    }
}

/// One step of a sequential execution profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfileStep {
    /// The task processed at this step.
    pub node: NodeId,
    /// Resident memory while the task runs (its peak contribution).
    pub during: u64,
    /// Resident memory right after the task completes.
    pub after: u64,
}

/// The full memory profile of a sequential traversal.
#[derive(Clone, Debug)]
pub struct SequentialProfile {
    /// Per-task peaks and residuals, in execution order.
    pub steps: Vec<ProfileStep>,
    /// Peak over the whole traversal.
    pub peak: u64,
}

/// Computes the memory profile of executing `order` sequentially.
///
/// `order` must be a topological order of `tree` (children first); this is
/// checked and [`crate::TreeError::NotTopological`] is returned otherwise.
pub fn sequential_profile(tree: &TaskTree, order: &[NodeId]) -> Result<SequentialProfile> {
    tree.check_topological(order)?;
    let mut live = LiveSet::new(tree);
    let mut steps = Vec::with_capacity(order.len());
    for &i in order {
        live.start(i);
        let during = live.current();
        live.finish(i);
        steps.push(ProfileStep {
            node: i,
            during,
            after: live.current(),
        });
    }
    Ok(SequentialProfile {
        steps,
        peak: live.peak(),
    })
}

/// Peak memory of executing `order` sequentially.
///
/// This is the quantity the paper normalises memory bounds by: the minimum
/// feasible `M` for the one-processor schedule following `order`.
///
/// Every scheduler mint and feasibility probe asks for this one number, so
/// unlike [`sequential_profile`] it records no per-step profile.
pub fn sequential_peak(tree: &TaskTree, order: &[NodeId]) -> Result<u64> {
    tree.check_topological(order)?;
    let mut live = LiveSet::new(tree);
    for &i in order {
        live.start(i);
        live.finish(i);
    }
    Ok(live.peak())
}

/// The average memory of a sequential traversal (Appendix A):
/// `(1/Cmax) ∫ mem(t) dt`, where memory during task `i` counts for `t_i`
/// time units. Tasks with `t_i = 0` contribute nothing.
pub fn sequential_average_memory(tree: &TaskTree, order: &[NodeId]) -> Result<f64> {
    let profile = sequential_profile(tree, order)?;
    let mut weighted = 0f64;
    let mut total_time = 0f64;
    for s in &profile.steps {
        let t = tree.time(s.node);
        weighted += s.during as f64 * t;
        total_time += t;
    }
    if total_time == 0.0 {
        return Ok(0.0);
    }
    Ok(weighted / total_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TreeError;
    use crate::node::TaskSpec;
    use crate::traverse::postorder;

    /// Chain 0 <- 1 <- 2 with distinctive sizes.
    fn chain() -> TaskTree {
        TaskTree::from_parents(
            &[None, Some(0), Some(1)],
            &[
                TaskSpec::new(1, 10, 1.0), // root
                TaskSpec::new(2, 20, 1.0),
                TaskSpec::new(3, 30, 1.0), // leaf
            ],
        )
        .unwrap()
    }

    #[test]
    fn chain_profile_by_hand() {
        let t = chain();
        let order = [NodeId(2), NodeId(1), NodeId(0)];
        let p = sequential_profile(&t, &order).unwrap();
        // Leaf 2: during = n + f = 33, after = 30.
        assert_eq!(
            p.steps[0],
            ProfileStep {
                node: NodeId(2),
                during: 33,
                after: 30
            }
        );
        // Node 1: during = 30 (input) + 2 + 20 = 52, after = 20.
        assert_eq!(
            p.steps[1],
            ProfileStep {
                node: NodeId(1),
                during: 52,
                after: 20
            }
        );
        // Root: during = 20 + 1 + 10 = 31, after = 10 (root output stays).
        assert_eq!(
            p.steps[2],
            ProfileStep {
                node: NodeId(0),
                during: 31,
                after: 10
            }
        );
        assert_eq!(p.peak, 52);
        assert_eq!(sequential_peak(&t, &order).unwrap(), 52);
    }

    #[test]
    fn peak_matches_max_of_mem_needed_on_chain() {
        // On a chain, the sequential peak is exactly max MemNeeded.
        let t = chain();
        let order = postorder(&t);
        let needed = mem_needed_slice(&t);
        assert_eq!(
            sequential_peak(&t, &order).unwrap(),
            needed.into_iter().max().unwrap()
        );
    }

    #[test]
    fn fork_profile_accumulates_sibling_outputs() {
        // Root 0 with two leaf children 1, 2 (f = 5 and 7).
        let t = TaskTree::from_parents(
            &[None, Some(0), Some(0)],
            &[
                TaskSpec::new(0, 1, 1.0),
                TaskSpec::new(0, 5, 1.0),
                TaskSpec::new(0, 7, 1.0),
            ],
        )
        .unwrap();
        let p = sequential_profile(&t, &[NodeId(1), NodeId(2), NodeId(0)]).unwrap();
        assert_eq!(p.steps[0].during, 5);
        // While 2 runs, 1's output is live: 5 + 7 = 12.
        assert_eq!(p.steps[1].during, 12);
        // Root: 5 + 7 + 0 + 1 = 13.
        assert_eq!(p.steps[2].during, 13);
        assert_eq!(p.peak, 13);
    }

    #[test]
    fn non_topological_order_rejected() {
        let t = chain();
        let bad = [NodeId(0), NodeId(1), NodeId(2)];
        assert!(matches!(
            sequential_profile(&t, &bad),
            Err(TreeError::NotTopological { .. })
        ));
    }

    #[test]
    fn live_set_tracks_parallel_interleaving() {
        // Two independent leaves running at once.
        let t = TaskTree::from_parents(
            &[None, Some(0), Some(0)],
            &[
                TaskSpec::new(0, 1, 1.0),
                TaskSpec::new(2, 5, 1.0),
                TaskSpec::new(3, 7, 1.0),
            ],
        )
        .unwrap();
        let mut ls = LiveSet::new(&t);
        ls.start(NodeId(1));
        ls.start(NodeId(2));
        assert_eq!(ls.current(), (2 + 5) + (3 + 7));
        ls.finish(NodeId(1));
        assert_eq!(ls.current(), 5 + 10);
        ls.finish(NodeId(2));
        assert_eq!(ls.current(), 5 + 7);
        ls.start(NodeId(0));
        ls.finish(NodeId(0));
        assert_eq!(ls.current(), 1, "only the root output remains");
        assert_eq!(ls.peak(), 17);
    }

    #[test]
    fn average_memory_weights_by_time() {
        let t = TaskTree::from_parents(
            &[None, Some(0)],
            &[TaskSpec::new(0, 1, 3.0), TaskSpec::new(0, 10, 1.0)],
        )
        .unwrap();
        let avg = sequential_average_memory(&t, &[NodeId(1), NodeId(0)]).unwrap();
        // Step leaf: during 10 for 1 unit; root: during 10 + 1 = 11 for 3 units.
        assert!((avg - (10.0 + 33.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_total_time_average_is_zero() {
        let t = TaskTree::from_parents(&[None], &[TaskSpec::new(0, 1, 0.0)]).unwrap();
        assert_eq!(sequential_average_memory(&t, &[NodeId(0)]).unwrap(), 0.0);
    }
}
