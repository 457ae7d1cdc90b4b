//! Whole-tree consistency checks used by tests and debug assertions.

use crate::node::NodeId;
use crate::tree::TaskTree;

/// Exhaustively checks the internal CSR invariants of a built tree.
///
/// [`crate::TreeBuilder::build`] already guarantees these; this function is
/// the independent re-derivation used by property tests and by downstream
/// crates that transform trees (e.g. the reduction-tree transform).
pub fn check_consistency(tree: &TaskTree) -> Result<(), String> {
    let n = tree.len();
    if n == 0 {
        return Err("empty tree".into());
    }

    // Root is in range and has no parent.
    if tree.root().index() >= n {
        return Err("root out of range".into());
    }
    if tree.parent(tree.root()).is_some() {
        return Err("root has a parent".into());
    }

    // parent/children agree in both directions.
    for i in tree.nodes() {
        for &c in tree.children(i) {
            if tree.parent(c) != Some(i) {
                return Err(format!("child {c:?} of {i:?} disagrees on its parent"));
            }
        }
        if let Some(p) = tree.parent(i) {
            if !tree.children(p).contains(&i) {
                return Err(format!("{i:?} missing from children of {p:?}"));
            }
        } else if i != tree.root() {
            return Err(format!("non-root {i:?} has no parent"));
        }
    }

    // Every node reaches the root (no disconnected cycles), counted once.
    let reached = crate::traverse::breadth_first(tree).len();
    if reached != n {
        return Err(format!("only {reached}/{n} nodes reachable from the root"));
    }

    // Children groups sorted by id (determinism guarantee).
    for i in tree.nodes() {
        let ch = tree.children(i);
        if ch.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("children of {i:?} not strictly sorted"));
        }
    }

    Ok(())
}

/// Checks that `order` is a permutation of the nodes in which every node
/// appears after all of its children, and returns the position (rank) of
/// each node.
pub fn ranks_of_topological_order(tree: &TaskTree, order: &[NodeId]) -> Result<Vec<u32>, String> {
    tree.check_topological(order).map_err(|e| e.to_string())?;
    let mut rank = vec![0u32; tree.len()];
    for (k, &i) in order.iter().enumerate() {
        rank[i.index()] = k as u32;
    }
    Ok(rank)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TaskSpec;
    use crate::traverse::postorder;

    #[test]
    fn valid_tree_passes() {
        let t = TaskTree::from_parents(
            &[None, Some(0), Some(0), Some(1)],
            &[TaskSpec::default(); 4],
        )
        .unwrap();
        check_consistency(&t).unwrap();
    }

    #[test]
    fn ranks_invert_the_order() {
        let t = TaskTree::from_parents(
            &[None, Some(0), Some(0), Some(1)],
            &[TaskSpec::default(); 4],
        )
        .unwrap();
        let po = postorder(&t);
        let rank = ranks_of_topological_order(&t, &po).unwrap();
        for (k, &i) in po.iter().enumerate() {
            assert_eq!(rank[i.index()], k as u32);
        }
    }

    #[test]
    fn non_topological_rejected() {
        let t = TaskTree::from_parents(&[None, Some(0)], &[TaskSpec::default(); 2]).unwrap();
        assert!(ranks_of_topological_order(&t, &[NodeId(0), NodeId(1)]).is_err());
    }
}
