//! Brute-force oracles for small trees.
//!
//! These enumerate schedules exhaustively and are exponential; they guard
//! the clever algorithms of `memtree_order` (`memPO`, `OptSeq`, Appendix
//! A) against subtle mistakes. All functions assert a size cap rather
//! than silently crawling.

use memtree_tree::memory::sequential_peak;
use memtree_tree::{NodeId, TaskTree};
use std::collections::HashMap;

/// Minimum peak memory over **all** topological traversals, by dynamic
/// programming over completed-task subsets.
///
/// The resident memory between steps depends only on the *set* of completed
/// tasks (outputs whose parent is incomplete), so states are subsets and
/// the DP is exact. Panics if `tree.len() > 22`.
pub fn min_topological_peak(tree: &TaskTree) -> u64 {
    let n = tree.len();
    assert!(n <= 22, "exhaustive search capped at 22 nodes, got {n}");
    least_peak_from(tree, 0, &mut HashMap::new())
}

/// The least peak of finishing `tree` once the tasks in the bit set
/// `done` have completed.
fn least_peak_from(tree: &TaskTree, done: u32, memo: &mut HashMap<u32, u64>) -> u64 {
    if done.count_ones() as usize == tree.len() {
        return 0;
    }
    if let Some(&peak) = memo.get(&done) {
        return peak;
    }
    let has = |i: NodeId| done & (1 << i.index()) != 0;
    // Outputs of completed tasks whose parent is not (the root's, once done).
    let live: u64 = tree
        .nodes()
        .filter(|&i| has(i) && !tree.parent(i).is_some_and(has))
        .map(|i| tree.output(i))
        .sum();
    let mut best = u64::MAX;
    for v in tree.nodes() {
        if !has(v) && tree.children(v).iter().all(|&c| has(c)) {
            let during = live + tree.exec(v) + tree.output(v);
            best = best.min(during.max(least_peak_from(tree, done | 1 << v.index(), memo)));
        }
    }
    memo.insert(done, best);
    best
}

/// All postorder traversals of `tree` (every permutation of children at
/// every node, full cross product), stopping after `limit` orders. Panics
/// if the tree has more than 12 nodes — factorial blowup.
pub fn all_postorders(tree: &TaskTree, limit: usize) -> Vec<Vec<NodeId>> {
    assert!(tree.len() <= 12, "postorder enumeration capped at 12 nodes");
    postorders_of(tree, tree.root(), limit)
}

/// At most `limit` postorders of the subtree of `node`. Recursion is fine
/// on the tiny trees this enumerates.
fn postorders_of(tree: &TaskTree, node: NodeId, limit: usize) -> Vec<Vec<NodeId>> {
    let subs: Vec<_> = tree
        .children(node)
        .iter()
        .map(|&c| postorders_of(tree, c, limit))
        .collect();
    let mut out = Vec::new();
    let mut left: Vec<usize> = (0..subs.len()).collect();
    place(&subs, &mut left, &mut Vec::new(), node, &mut out, limit);
    out
}

/// Pushes onto `out`, up to `limit` in all, `prefix` followed by the
/// child subtrees `left` in every order, each as every one of its
/// postorders in `subs`, and then `node`.
fn place(
    subs: &[Vec<Vec<NodeId>>],
    left: &mut Vec<usize>,
    prefix: &mut Vec<NodeId>,
    node: NodeId,
    out: &mut Vec<Vec<NodeId>>,
    limit: usize,
) {
    if left.is_empty() {
        if out.len() < limit {
            out.push([&prefix[..], &[node]].concat());
        }
        return;
    }
    for k in 0..left.len() {
        let c = left.remove(k);
        for sub in &subs[c] {
            if out.len() >= limit {
                break;
            }
            prefix.extend_from_slice(sub);
            place(subs, left, prefix, node, out, limit);
            prefix.truncate(prefix.len() - sub.len());
        }
        left.insert(k, c);
    }
}

/// Minimum peak over the enumerated postorders (see [`all_postorders`] for
/// the enumeration scope).
pub fn min_enumerated_postorder_peak(tree: &TaskTree, limit: usize) -> u64 {
    all_postorders(tree, limit)
        .into_iter()
        .map(|po| sequential_peak(tree, &po).expect("enumerated orders are topological"))
        .min()
        .expect("at least one postorder exists")
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_tree::TaskSpec;

    #[test]
    fn dp_matches_hand_computation_on_fork() {
        // Root + two leaves, f = 5 and 7, root f = 1.
        let t = TaskTree::from_parents(
            &[None, Some(0), Some(0)],
            &[
                TaskSpec::new(0, 1, 1.0),
                TaskSpec::new(0, 5, 1.0),
                TaskSpec::new(0, 7, 1.0),
            ],
        )
        .unwrap();
        // Any order peaks at 5 + 7 + 1 = 13 during the root.
        assert_eq!(min_topological_peak(&t), 13);
    }

    #[test]
    fn dp_beats_or_equals_any_sampled_order() {
        for seed in 0..10 {
            let t = memtree_gen::shapes::random_recursive(9, TaskSpec::default(), seed)
                .map_specs(|i, mut s| {
                    s.exec = (i.index() as u64 * 7) % 6;
                    s.output = 1 + (i.index() as u64 * 3) % 9;
                    s
                })
                .unwrap();
            let best = min_topological_peak(&t);
            let po = memtree_tree::traverse::postorder(&t);
            let peak = sequential_peak(&t, &po).unwrap();
            assert!(best <= peak, "seed {seed}");
        }
    }

    #[test]
    fn postorder_enumeration_counts() {
        // Root with 3 leaf children: 3! = 6 postorders.
        let t = TaskTree::from_parents(
            &[None, Some(0), Some(0), Some(0)],
            &[TaskSpec::default(); 4],
        )
        .unwrap();
        let orders = all_postorders(&t, 1000);
        assert_eq!(orders.len(), 6);
        for o in &orders {
            t.check_topological(o).unwrap();
        }
    }
}
