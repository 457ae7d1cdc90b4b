//! Incremental construction of [`TaskTree`]s.

use crate::error::TreeError;
use crate::node::{NodeId, TaskSpec};
use crate::tree::{csr_children, TaskTree, NO_PARENT};
use crate::Result;

/// Builds a [`TaskTree`] node by node.
///
/// Nodes may reference parents that have not been pushed yet (pass the
/// future id explicitly via [`TreeBuilder::push_with_parent_index`]), so
/// trees can be entered in any order. [`TreeBuilder::build`] validates the
/// structure: exactly one root, no cycles, in-range parents, finite
/// non-negative times, and a total memory Σᵢ(nᵢ + fᵢ) that fits in `u64`.
///
/// ```
/// use memtree_tree::{TreeBuilder, TaskSpec};
///
/// let mut b = TreeBuilder::new();
/// let root = b.push(None, TaskSpec::new(0, 4, 1.0));
/// let left = b.push(Some(root), TaskSpec::new(1, 2, 1.0));
/// let _right = b.push(Some(root), TaskSpec::new(1, 3, 2.0));
/// let _deep = b.push(Some(left), TaskSpec::new(0, 1, 0.5));
/// let tree = b.build().unwrap();
/// assert_eq!(tree.len(), 4);
/// assert_eq!(tree.root(), root);
/// ```
#[derive(Debug, Default, Clone)]
pub struct TreeBuilder {
    parent: Vec<u32>,
    exec: Vec<u64>,
    output: Vec<u64>,
    time: Vec<f64>,
}

impl TreeBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty builder with room for `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        TreeBuilder {
            parent: Vec::with_capacity(n),
            exec: Vec::with_capacity(n),
            output: Vec::with_capacity(n),
            time: Vec::with_capacity(n),
        }
    }

    /// Number of nodes pushed so far.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether no nodes have been pushed.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Appends a node with the given parent and returns its id.
    pub fn push(&mut self, parent: Option<NodeId>, spec: TaskSpec) -> NodeId {
        let id = NodeId::from_index(self.parent.len());
        self.parent.push(parent.map_or(NO_PARENT, |p| p.0));
        self.exec.push(spec.exec);
        self.output.push(spec.output);
        self.time.push(spec.time);
        id
    }

    /// Appends a node whose parent is given as a raw index which may not
    /// have been pushed yet (forward reference).
    pub fn push_with_parent_index(&mut self, parent: Option<usize>, spec: TaskSpec) -> NodeId {
        self.push(parent.map(NodeId::from_index), spec)
    }

    /// Finalises the tree, checking structural invariants.
    pub fn build(self) -> Result<TaskTree> {
        let n = self.parent.len();
        if n == 0 {
            return Err(TreeError::Empty);
        }

        // Locate the root and range-check parents.
        let mut root: Option<NodeId> = None;
        for (ix, &p) in self.parent.iter().enumerate() {
            let id = NodeId::from_index(ix);
            if p == NO_PARENT {
                if let Some(r) = root {
                    return Err(TreeError::MultipleRoots(r, id));
                }
                root = Some(id);
            } else if p as usize >= n {
                return Err(TreeError::ParentOutOfRange {
                    node: id,
                    parent: p,
                });
            } else if p as usize == ix {
                return Err(TreeError::Cycle(id));
            }
        }
        let root = root.ok_or(TreeError::NoRoot)?;

        check_specs(&self.exec, &self.output, &self.time)?;

        // Cycle detection: every node must reach the root. Iterative
        // colouring with path marking: 0 = unvisited, 1 = on current path,
        // 2 = proven to reach the root.
        let mut colour = vec![0u8; n];
        colour[root.index()] = 2;
        let mut path: Vec<usize> = Vec::new();
        for start in 0..n {
            if colour[start] != 0 {
                continue;
            }
            path.clear();
            let mut cur = start;
            loop {
                match colour[cur] {
                    0 => {
                        colour[cur] = 1;
                        path.push(cur);
                        cur = self.parent[cur] as usize;
                    }
                    1 => {
                        // Found a node already on the current path: cycle.
                        return Err(TreeError::Cycle(NodeId::from_index(cur)));
                    }
                    _ => break, // reaches the root
                }
            }
            for &p in &path {
                colour[p] = 2;
            }
        }

        let (child_ptr, children) = csr_children(&self.parent);

        Ok(TaskTree {
            parent: self.parent,
            child_ptr,
            children,
            exec: self.exec,
            output: self.output,
            time: self.time,
            root,
            labels: None,
            plans: Default::default(),
        })
    }
}

/// The per-task invariants every [`TaskTree`] keeps: times are finite
/// and non-negative, and the total memory Σᵢ(nᵢ + fᵢ) fits in `u64`.
/// Every memory peak of the tree is bounded by that total, so no peak a
/// traversal or a policy computes can overflow.
pub(crate) fn check_specs(exec: &[u64], output: &[u64], time: &[f64]) -> Result<()> {
    if let Some(ix) = time.iter().position(|&t| !t.is_finite() || t < 0.0) {
        return Err(TreeError::BadTime(NodeId::from_index(ix)));
    }
    exec.iter()
        .chain(output)
        .try_fold(0u64, |total, &m| total.checked_add(m))
        .ok_or(TreeError::MemoryOverflow)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_rejected() {
        assert_eq!(TreeBuilder::new().build().unwrap_err(), TreeError::Empty);
    }

    #[test]
    fn single_node_is_fine() {
        let mut b = TreeBuilder::new();
        let r = b.push(None, TaskSpec::default());
        let t = b.build().unwrap();
        assert_eq!(t.root(), r);
        assert_eq!(t.len(), 1);
        assert!(t.is_leaf(r));
    }

    #[test]
    fn multiple_roots_rejected() {
        let mut b = TreeBuilder::new();
        b.push(None, TaskSpec::default());
        b.push(None, TaskSpec::default());
        assert!(matches!(b.build(), Err(TreeError::MultipleRoots(..))));
    }

    #[test]
    fn cycle_rejected() {
        // 0 -> 1 -> 2 -> 1 is impossible with single parents, but
        // 1 -> 2, 2 -> 1 with root 0 elsewhere is a classic cycle.
        let mut b = TreeBuilder::new();
        b.push_with_parent_index(None, TaskSpec::default()); // 0, root
        b.push_with_parent_index(Some(2), TaskSpec::default()); // 1 -> 2
        b.push_with_parent_index(Some(1), TaskSpec::default()); // 2 -> 1
        assert!(matches!(b.build(), Err(TreeError::Cycle(_))));
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = TreeBuilder::new();
        b.push_with_parent_index(None, TaskSpec::default());
        b.push_with_parent_index(Some(1), TaskSpec::default());
        assert!(matches!(b.build(), Err(TreeError::Cycle(_))));
    }

    #[test]
    fn out_of_range_parent_rejected() {
        let mut b = TreeBuilder::new();
        b.push_with_parent_index(None, TaskSpec::default());
        b.push_with_parent_index(Some(99), TaskSpec::default());
        assert!(matches!(b.build(), Err(TreeError::ParentOutOfRange { .. })));
    }

    #[test]
    fn no_root_is_cycle() {
        let mut b = TreeBuilder::new();
        b.push_with_parent_index(Some(1), TaskSpec::default());
        b.push_with_parent_index(Some(0), TaskSpec::default());
        let e = b.build().unwrap_err();
        assert!(matches!(e, TreeError::NoRoot | TreeError::Cycle(_)));
    }

    #[test]
    fn bad_time_rejected() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut b = TreeBuilder::new();
            b.push(None, TaskSpec::new(0, 1, bad));
            assert!(
                matches!(b.build(), Err(TreeError::BadTime(_))),
                "time {bad} accepted"
            );
        }
    }

    #[test]
    fn memory_total_past_u64_rejected() {
        let mut b = TreeBuilder::new();
        let r = b.push(None, TaskSpec::new(1, u64::MAX - 1, 1.0));
        assert!(
            b.clone().build().is_ok(),
            "a total of exactly u64::MAX fits"
        );
        b.push(Some(r), TaskSpec::new(0, 1, 1.0));
        assert_eq!(b.build().unwrap_err(), TreeError::MemoryOverflow);
    }

    #[test]
    fn forward_parent_reference_works() {
        // Children pushed before their parent.
        let mut b = TreeBuilder::new();
        b.push_with_parent_index(Some(2), TaskSpec::default()); // 0
        b.push_with_parent_index(Some(2), TaskSpec::default()); // 1
        b.push_with_parent_index(None, TaskSpec::default()); // 2, root
        let t = b.build().unwrap();
        assert_eq!(t.root(), NodeId(2));
        assert_eq!(t.children(NodeId(2)), &[NodeId(0), NodeId(1)]);
    }

    #[test]
    fn children_are_sorted_by_id() {
        let mut b = TreeBuilder::new();
        let r = b.push(None, TaskSpec::default());
        for _ in 0..5 {
            b.push(Some(r), TaskSpec::default());
        }
        let t = b.build().unwrap();
        let ch = t.children(r);
        assert!(ch.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn deep_chain_builds_without_stack_overflow() {
        let n = 200_000;
        let mut b = TreeBuilder::with_capacity(n);
        b.push(None, TaskSpec::default());
        for i in 1..n {
            b.push_with_parent_index(Some(i - 1), TaskSpec::default());
        }
        let t = b.build().unwrap();
        assert_eq!(t.len(), n);
        assert!(t.is_leaf(NodeId::from_index(n - 1)));
    }
}
