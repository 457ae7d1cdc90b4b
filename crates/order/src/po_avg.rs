//! Appendix A — the postorder minimising **average** memory.
//!
//! Theorem 4 of the paper: a postorder minimising the time-averaged memory
//! `AvgMem = (1/Cmax) ∫ mem(t) dt` is obtained by processing subtrees by
//! non-increasing `T_i / f_i`, where `T_i` is the total processing time of
//! the subtree rooted at `i` — Smith's rule applied to the weighted-flow
//! reformulation.

use crate::order::{Order, OrderKind};
use memtree_tree::traverse::postorder_with_child_order;
use memtree_tree::{TaskTree, TreeStats};

/// Builds the Appendix-A postorder: children expanded by non-increasing
/// `T_c / f_c`.
///
/// Children with `f_c = 0` have an infinite ratio and are processed first
/// (their output costs nothing to hold while the rest runs).
pub fn avg_mem_postorder(tree: &TaskTree) -> Order {
    let stats = TreeStats::compute(tree);
    let rank: Vec<u64> = tree
        .nodes()
        .map(|i| {
            let t = stats.subtree_time[i.index()];
            let f = tree.output(i);
            let ratio = if f == 0 { f64::INFINITY } else { t / f as f64 };
            // Non-increasing ratio: invert the IEEE order of non-negative
            // floats. INFINITY maps to rank 0 modulo the offset below.
            u64::MAX - ratio.to_bits()
        })
        .collect();
    let seq = postorder_with_child_order(tree, &rank);
    Order::new(tree, seq, OrderKind::AvgMemPostorder).expect("postorder is topological")
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_tree::memory::sequential_average_memory;
    use memtree_tree::{NodeId, TaskSpec, TaskTree};

    #[test]
    fn smith_rule_orders_by_time_over_output() {
        // Root with two leaves: leaf 1 (T=4, f=1, ratio 4) and
        // leaf 2 (T=1, f=4, ratio 0.25). Leaf 1 first.
        let t = TaskTree::from_parents(
            &[None, Some(0), Some(0)],
            &[
                TaskSpec::new(0, 1, 1.0),
                TaskSpec::new(0, 1, 4.0),
                TaskSpec::new(0, 4, 1.0),
            ],
        )
        .unwrap();
        let o = avg_mem_postorder(&t);
        assert_eq!(o.sequence(), &[NodeId(1), NodeId(2), NodeId(0)]);
        // And it indeed has lower average memory than the reverse.
        let fwd = sequential_average_memory(&t, o.sequence()).unwrap();
        let rev = sequential_average_memory(&t, &[NodeId(2), NodeId(1), NodeId(0)]).unwrap();
        assert!(fwd < rev, "Smith order {fwd} should beat reverse {rev}");
    }

    #[test]
    fn zero_output_children_first() {
        let t = TaskTree::from_parents(
            &[None, Some(0), Some(0)],
            &[
                TaskSpec::new(0, 1, 1.0),
                TaskSpec::new(0, 5, 1.0),
                TaskSpec::new(0, 0, 100.0), // f = 0: hold-free, go first
            ],
        )
        .unwrap();
        let o = avg_mem_postorder(&t);
        assert_eq!(o.sequence()[0], NodeId(2));
    }

    #[test]
    fn beats_or_ties_every_other_postorder_on_small_trees() {
        // Exhaustive check of Theorem 4 on all child permutations.
        use memtree_testkit::exhaustive::all_postorders;
        for seed in 0..15 {
            let t = memtree_gen::shapes::random_recursive(7, TaskSpec::new(0, 1, 1.0), seed)
                .map_specs(|i, mut s| {
                    s.output = 1 + (i.index() as u64 * 13) % 7;
                    s.time = 1.0 + ((i.index() * 29) % 5) as f64;
                    s
                })
                .unwrap();
            let best = avg_mem_postorder(&t);
            let best_avg = sequential_average_memory(&t, best.sequence()).unwrap();
            for po in all_postorders(&t, 5000) {
                let avg = sequential_average_memory(&t, &po).unwrap();
                assert!(
                    best_avg <= avg + 1e-9,
                    "seed {seed}: avgMemPO {best_avg} beaten by {avg} ({po:?})"
                );
            }
        }
    }
}
