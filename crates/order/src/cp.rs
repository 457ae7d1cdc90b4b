//! `CP` — the critical-path order: nodes by non-increasing bottom level.
//!
//! The bottom level of a node in an in-tree is the total processing time on
//! its unique path to the root (both endpoints included) — the remaining
//! work that must serialise after the node starts. Ordering by
//! non-increasing bottom level is the classical list-scheduling priority;
//! the paper reports it as the best execution order (Figures 8 and 14).

use crate::order::{Order, OrderKind};
use memtree_tree::stats::bottom_levels;
use memtree_tree::traverse::depths;
use memtree_tree::{NodeId, TaskTree};

/// Builds the `CP` order.
///
/// Ties are broken by depth (deeper first) and then id, which keeps the
/// order topological even when processing times are zero: on a root-to-leaf
/// path, bottom levels are non-decreasing with depth, so the deeper node
/// sorts first. This is [`memtree_tree::TreeStats::cp_before`]'s order.
///
/// Bottom levels and depths come from top-down sweeps, and the order from
/// one sort of packed integer keys: bottom levels are finite and `≥ +0.0`,
/// so their bit patterns order like the values.
pub fn cp_order(tree: &TaskTree) -> Order {
    let (bottom_level, depth) = (bottom_levels(tree), depths(tree));
    let mut keys: Vec<u128> = tree
        .nodes()
        .map(|i| {
            let (bl, d) = (bottom_level[i.index()], depth[i.index()]);
            (u128::from(!bl.to_bits()) << 64) | (u128::from(!d) << 32) | u128::from(i.0)
        })
        .collect();
    keys.sort_unstable();
    let seq = keys.into_iter().map(|k| NodeId(k as u32)).collect();
    Order::new(tree, seq, OrderKind::CriticalPath).expect("CP order is topological")
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_tree::{TaskSpec, TaskTree};

    #[test]
    fn orders_by_remaining_path_work() {
        // Root 0 (t=1); children: 1 (t=5), 2 (t=1); 2 has child 3 (t=10).
        let t = TaskTree::from_parents(
            &[None, Some(0), Some(0), Some(2)],
            &[
                TaskSpec::new(0, 1, 1.0),
                TaskSpec::new(0, 1, 5.0),
                TaskSpec::new(0, 1, 1.0),
                TaskSpec::new(0, 1, 10.0),
            ],
        )
        .unwrap();
        // Bottom levels: 3 -> 12, 1 -> 6, 2 -> 2, 0 -> 1.
        let o = cp_order(&t);
        assert_eq!(o.sequence(), &[NodeId(3), NodeId(1), NodeId(2), NodeId(0)]);
    }

    #[test]
    fn stays_topological_with_zero_times() {
        let t = TaskTree::from_parents(
            &[None, Some(0), Some(1), Some(1)],
            &[TaskSpec::new(0, 1, 0.0); 4],
        )
        .unwrap();
        let o = cp_order(&t);
        t.check_topological(o.sequence()).unwrap();
    }

    #[test]
    fn random_trees_topological() {
        for seed in 0..10 {
            let t = memtree_gen::shapes::random_recursive(64, TaskSpec::new(1, 2, 1.0), seed)
                .map_specs(|i, mut s| {
                    s.time = ((i.index() * 17) % 4) as f64; // include zeros
                    s
                })
                .unwrap();
            let o = cp_order(&t);
            t.check_topological(o.sequence()).unwrap();
        }
    }
}
