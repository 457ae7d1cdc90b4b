//! `perfPO` — a postorder designed for parallel performance.
//!
//! Section 7.3.1: "another postorder traversal, designed for parallel
//! performance (subtrees with larger critical path are scheduled first,
//! which, in a parallel execution, is supposed to give higher priority to
//! nodes with large critical path)".

use crate::order::{Order, OrderKind};
use memtree_tree::traverse::postorder_with_child_order;
use memtree_tree::{TaskTree, TreeStats};

/// Builds the `perfPO` order: postorder with children expanded by
/// non-increasing subtree critical path.
pub fn perf_postorder(tree: &TaskTree) -> Order {
    let stats = TreeStats::compute(tree);
    // Larger critical path = smaller rank. Critical paths are non-negative
    // finite floats, so their bit patterns order like the values.
    let rank: Vec<u64> = tree
        .nodes()
        .map(|i| u64::MAX - stats.subtree_cp[i.index()].to_bits())
        .collect();
    let seq = postorder_with_child_order(tree, &rank);
    Order::new(tree, seq, OrderKind::PerfPostorder).expect("postorder is topological")
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_tree::{NodeId, TaskSpec, TaskTree};

    #[test]
    fn heavier_critical_path_first() {
        // Root 0; child 1 is a chain of total time 3 but cp 3; child 2 is a
        // single task of time 2.
        let t = TaskTree::from_parents(
            &[None, Some(0), Some(0), Some(1)],
            &[
                TaskSpec::new(0, 1, 1.0),
                TaskSpec::new(0, 1, 1.0),
                TaskSpec::new(0, 1, 2.0),
                TaskSpec::new(0, 1, 2.0),
            ],
        )
        .unwrap();
        // cp(1) = 1 + 2 = 3, cp(2) = 2 -> subtree 1 first.
        let o = perf_postorder(&t);
        assert_eq!(o.sequence(), &[NodeId(3), NodeId(1), NodeId(2), NodeId(0)]);
    }

    #[test]
    fn is_a_valid_postorder() {
        let t = memtree_gen::shapes::random_recursive(80, TaskSpec::new(1, 2, 1.5), 3);
        let o = perf_postorder(&t);
        t.check_topological(o.sequence()).unwrap();
    }
}
