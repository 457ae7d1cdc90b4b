//! `memPO` — Liu's peak-memory-minimising postorder (Liu 1986).
//!
//! Among all postorders, the peak memory of processing the subtree of `i`
//! satisfies
//!
//! ```text
//! P(i) = max( max_k ( Σ_{l<k} f_{c_l} + P(c_k) ),  MemNeeded(i) )
//! ```
//!
//! where children `c_1 … c_m` are processed in the chosen order. The classic
//! exchange argument shows the maximum is minimised by processing children
//! by **non-increasing `P(c) − f(c)`**: swapping two adjacent subtrees `a`
//! before `b` gives local cost `max(P_a, f_a + P_b)`, which is no larger
//! than the swapped cost exactly when `P_a − f_a ≥ P_b − f_b`.

use crate::order::{Order, OrderKind};
use memtree_tree::traverse::postorder_ranks;
use memtree_tree::{NodeId, TaskTree};

/// `P(i)` of every subtree, and every child list sorted by non-increasing
/// `P − f` — the order that achieves it — aligned with the tree's own
/// child lists ([`TaskTree::child_range`]). One children-first sweep.
fn peaks_and_child_order(tree: &TaskTree) -> (Vec<u64>, Vec<NodeId>) {
    let mut peaks = vec![0u64; tree.len()];
    let mut order = vec![NodeId(0); tree.len() - 1];
    for i in tree.children_first() {
        let sorted = &mut order[tree.child_range(i)];
        sorted.copy_from_slice(tree.children(i));
        // Stable, ties by id for determinism. P ≥ n + f ≥ f, so the
        // subtraction is safe.
        sorted.sort_by_key(|&c| std::cmp::Reverse(peaks[c.index()] - tree.output(c)));
        let mut outputs_so_far = 0u64;
        let mut peak = 0u64;
        for &c in sorted.iter() {
            peak = peak.max(outputs_so_far + peaks[c.index()]);
            outputs_so_far += tree.output(c);
        }
        peaks[i.index()] = peak.max(outputs_so_far + tree.exec(i) + tree.output(i));
    }
    (peaks, order)
}

/// Peak memory `P(i)` of the optimal postorder of every subtree.
///
/// `peaks[root]` is the minimum peak over all postorders of the whole tree —
/// the quantity the paper's "normalized memory bound" is a multiple of.
pub fn postorder_peaks(tree: &TaskTree) -> Vec<u64> {
    peaks_and_child_order(tree).0
}

/// The minimum sequential-postorder peak of the whole tree.
pub fn min_postorder_peak(tree: &TaskTree) -> u64 {
    postorder_peaks(tree)[tree.root().index()]
}

/// Builds the `memPO` order: a postorder whose children are expanded by
/// non-increasing `P(c) − f(c)`, placed by one top-down sweep.
pub fn mem_postorder(tree: &TaskTree) -> Order {
    mem_postorder_with_peak(tree).0
}

/// [`mem_postorder`] and its sequential peak, Liu's `P(root)` from the
/// same sweep: the order is built to achieve it, so no replay is needed.
pub fn mem_postorder_with_peak(tree: &TaskTree) -> (Order, u64) {
    // The peaks and child lists are freed before the order's own arrays
    // are allocated: transients left below a long-lived order would stay
    // resident as heap holes (≈ 4 MB of peak RSS at 10⁶ nodes).
    let (rank, peak) = {
        let (peaks, child_order) = peaks_and_child_order(tree);
        (
            postorder_ranks(tree, &child_order),
            peaks[tree.root().index()],
        )
    };
    let order =
        Order::from_ranks(tree, rank, OrderKind::MemPostorder).expect("postorder is topological");
    (order, peak)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_tree::memory::sequential_peak;
    use memtree_tree::TaskSpec;

    #[test]
    fn leaf_peak_is_exec_plus_output() {
        let t = TaskTree::from_parents(&[None], &[TaskSpec::new(3, 4, 1.0)]).unwrap();
        assert_eq!(min_postorder_peak(&t), 7);
    }

    #[test]
    fn chain_peak_is_max_mem_needed() {
        let t = TaskTree::from_parents(
            &[None, Some(0), Some(1)],
            &[
                TaskSpec::new(1, 10, 1.0),
                TaskSpec::new(2, 20, 1.0),
                TaskSpec::new(3, 30, 1.0),
            ],
        )
        .unwrap();
        let needed: Vec<u64> = t.nodes().map(|i| t.mem_needed(i)).collect();
        assert_eq!(min_postorder_peak(&t), needed.into_iter().max().unwrap());
    }

    #[test]
    fn child_order_matters_textbook_example() {
        // Root with two leaf children: a "big peak, small output" child
        // (P=100, f=1) and a "small peak, big output" child (P=10, f=10).
        // Optimal order runs the big-peak child first: peak =
        // max(100, 1 + 10, 1 + 10 + root) with root tiny.
        let t = TaskTree::from_parents(
            &[None, Some(0), Some(0)],
            &[
                TaskSpec::new(0, 1, 1.0),
                TaskSpec::new(99, 1, 1.0), // P = 100, f = 1
                TaskSpec::new(0, 10, 1.0), // P = 10, f = 10
            ],
        )
        .unwrap();
        assert_eq!(min_postorder_peak(&t), 100);
        let order = mem_postorder(&t);
        assert_eq!(
            order.sequence()[0],
            memtree_tree::NodeId(1),
            "big-peak child first"
        );
        assert_eq!(order.sequential_peak(&t), 100);
        // The reverse order would peak at 10 + 100 = 110.
        let rev = crate::order::Order::new(
            &t,
            vec![
                memtree_tree::NodeId(2),
                memtree_tree::NodeId(1),
                memtree_tree::NodeId(0),
            ],
            OrderKind::NaturalPostorder,
        )
        .unwrap();
        assert_eq!(rev.sequential_peak(&t), 110);
    }

    #[test]
    fn reported_peak_matches_replay() {
        // The analytic P(root) must equal the replayed peak of the
        // constructed order.
        for seed in 0..20 {
            let t = memtree_gen::shapes::random_recursive(60, TaskSpec::new(2, 5, 1.0), seed)
                .map_specs(|i, mut s| {
                    // Vary sizes deterministically per node.
                    s.exec = (i.index() as u64 * 7) % 13;
                    s.output = 1 + (i.index() as u64 * 11) % 17;
                    s
                })
                .unwrap();
            let order = mem_postorder(&t);
            assert_eq!(
                min_postorder_peak(&t),
                sequential_peak(&t, order.sequence()).unwrap(),
                "seed {seed}"
            );
        }
    }
}
