//! Brute-force oracles for small trees, used by tests.
//!
//! These enumerate schedules exhaustively and are exponential; they guard
//! the clever algorithms (`memPO`, `OptSeq`, Appendix A) against subtle
//! mistakes. All functions assert a size cap rather than silently crawling.

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
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };

    // live(mask): outputs of completed nodes whose parent is incomplete
    // (the root's output counts once completed).
    let live = |mask: u32| -> u64 {
        let mut sum = 0u64;
        let mut m = mask;
        while m != 0 {
            let ix = m.trailing_zeros() as usize;
            m &= m - 1;
            let id = NodeId::from_index(ix);
            let parent_done = tree
                .parent(id)
                .is_some_and(|p| mask & (1 << p.index()) != 0);
            if !parent_done {
                sum += tree.output(id);
            }
        }
        sum
    };

    let mut memo: HashMap<u32, u64> = HashMap::new();

    // Iterative DFS over the state graph with an explicit stack; states are
    // processed after their successors.
    let mut stack: Vec<(u32, bool)> = vec![(0, false)];
    while let Some((mask, expanded)) = stack.pop() {
        if memo.contains_key(&mask) {
            continue;
        }
        if mask == full {
            memo.insert(mask, 0);
            continue;
        }
        let available: Vec<usize> = (0..n)
            .filter(|&v| {
                mask & (1 << v) == 0
                    && tree
                        .children(NodeId::from_index(v))
                        .iter()
                        .all(|c| mask & (1 << c.index()) != 0)
            })
            .collect();
        if expanded {
            let base = live(mask);
            let mut best = u64::MAX;
            for v in available {
                let id = NodeId::from_index(v);
                let during = base + tree.exec(id) + tree.output(id);
                let rest = memo[&(mask | (1 << v))];
                best = best.min(during.max(rest));
            }
            memo.insert(mask, best);
        } else {
            stack.push((mask, true));
            for v in available {
                stack.push((mask | (1 << v), false));
            }
        }
    }
    memo[&0]
}

/// All postorder traversals of the subtree rooted at `node`: the full
/// cross product of child permutations and child sub-enumerations, capped
/// at `limit` results. Recursion is acceptable — this is test-only code on
/// tiny trees.
fn enumerate_postorders(tree: &TaskTree, node: NodeId, limit: usize) -> Vec<Vec<NodeId>> {
    let children = tree.children(node);
    if children.is_empty() {
        return vec![vec![node]];
    }
    let per_child: Vec<Vec<Vec<NodeId>>> = children
        .iter()
        .map(|&c| enumerate_postorders(tree, c, limit))
        .collect();

    let mut out: Vec<Vec<NodeId>> = Vec::new();
    let k = children.len();
    let mut perm: Vec<usize> = (0..k).collect();
    // Heap's-algorithm-free plain enumeration via next_permutation-style
    // recursion on index selection.
    fn visit(
        perm: &mut Vec<usize>,
        depth: usize,
        per_child: &[Vec<Vec<NodeId>>],
        node: NodeId,
        out: &mut Vec<Vec<NodeId>>,
        limit: usize,
    ) {
        if out.len() >= limit {
            return;
        }
        if depth == perm.len() {
            // Cross product of the chosen permutation's sub-orders.
            let mut partials: Vec<Vec<NodeId>> = vec![Vec::new()];
            for &ci in perm.iter() {
                let mut next = Vec::new();
                for base in &partials {
                    for sub in &per_child[ci] {
                        let mut seq = base.clone();
                        seq.extend_from_slice(sub);
                        next.push(seq);
                        if next.len() + out.len() > limit.saturating_mul(2) {
                            break;
                        }
                    }
                }
                partials = next;
            }
            for mut seq in partials {
                if out.len() >= limit {
                    return;
                }
                seq.push(node);
                out.push(seq);
            }
            return;
        }
        for i in depth..perm.len() {
            perm.swap(depth, i);
            visit(perm, depth + 1, per_child, node, out, limit);
            perm.swap(depth, i);
        }
    }
    visit(&mut perm, 0, &per_child, node, &mut out, limit);
    out
}

/// All postorder traversals of `tree` (every permutation of children at
/// every node, full cross product), stopping after `limit` orders. Panics
/// if the tree has more than 12 nodes — factorial blowup.
pub fn all_postorders(tree: &TaskTree, limit: usize) -> Vec<Vec<NodeId>> {
    assert!(tree.len() <= 12, "postorder enumeration capped at 12 nodes");
    enumerate_postorders(tree, tree.root(), limit)
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
