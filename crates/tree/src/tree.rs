//! The immutable CSR task-tree representation.

use crate::error::TreeError;
use crate::node::{NodeId, TaskSpec};
use crate::traverse::ChildrenFirst;
use crate::Result;
use std::sync::Arc;

/// Sentinel parent value meaning "no parent" (the root).
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// A rooted in-tree of sequential tasks.
///
/// Dependencies point toward the root: a task may start only once all of its
/// children have completed, and its children's outputs stay in memory until
/// it completes.
///
/// The structure is stored in compressed form: a parent array plus a CSR
/// (offsets + flat array) adjacency of children, with per-node data-size and
/// time arrays. All accessors are `O(1)`; children of a node are a
/// contiguous, id-sorted slice.
#[derive(Clone, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TaskTree {
    /// `parent[i]` is the parent of node `i`, `NO_PARENT` for the root.
    pub(crate) parent: Vec<u32>,
    /// CSR offsets into `children`; length `n + 1`.
    pub(crate) child_ptr: Vec<u32>,
    /// Flattened children lists, grouped per node, each group sorted by id.
    pub(crate) children: Vec<NodeId>,
    /// Execution data sizes `n_i`.
    pub(crate) exec: Vec<u64>,
    /// Output data sizes `f_i`.
    pub(crate) output: Vec<u64>,
    /// Processing times `t_i`.
    pub(crate) time: Vec<f64>,
    /// The unique root.
    pub(crate) root: NodeId,
    /// `labels[i]` is the id node `i` had in the tree this one was
    /// [`renumbered`](TaskTree::renumbered) from; `None` for a tree whose
    /// ids are its caller's.
    #[cfg_attr(feature = "serde", serde(skip))]
    pub(crate) labels: Option<Arc<[NodeId]>>,
    /// What callers derived from this tree, held weakly ([`crate::Plans`]).
    #[cfg_attr(feature = "serde", serde(skip))]
    pub(crate) plans: crate::Plans,
}

/// The CSR children arrays of a parent array: `(child_ptr, children)`.
/// A counting sort over nodes in id order, so every group is id-sorted.
pub(crate) fn csr_children(parent: &[u32]) -> (Vec<u32>, Vec<NodeId>) {
    let n = parent.len();
    let mut child_ptr = vec![0u32; n + 1];
    for &p in parent {
        if p != NO_PARENT {
            child_ptr[p as usize + 1] += 1;
        }
    }
    for i in 0..n {
        child_ptr[i + 1] += child_ptr[i];
    }
    let mut cursor = child_ptr.clone();
    let mut children = vec![NodeId(0); n - 1];
    for (ix, &p) in parent.iter().enumerate() {
        if p != NO_PARENT {
            let slot = cursor[p as usize] as usize;
            children[slot] = NodeId::from_index(ix);
            cursor[p as usize] += 1;
        }
    }
    (child_ptr, children)
}

/// `src` read in the order `seq` lists: `out[k] = src[seq[k]]`.
fn gather<T: Copy>(src: &[T], seq: &[NodeId]) -> Vec<T> {
    seq.iter().map(|&i| src[i.index()]).collect()
}

impl TaskTree {
    /// Builds a tree from a parent array (`None` marks the root) and task
    /// descriptions. `parents.len()` must equal `specs.len()`.
    pub fn from_parents(parents: &[Option<usize>], specs: &[TaskSpec]) -> Result<Self> {
        assert_eq!(
            parents.len(),
            specs.len(),
            "parents and specs must have the same length"
        );
        let mut b = crate::builder::TreeBuilder::with_capacity(parents.len());
        for (ix, (&p, &s)) in parents.iter().zip(specs).enumerate() {
            let got = b.push(p.map(NodeId::from_index), s);
            debug_assert_eq!(got.index(), ix);
        }
        b.build()
    }

    /// Number of tasks in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree is empty. Built trees never are — this exists for
    /// API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The unique root of the tree.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The parent of `i`, or `None` for the root.
    #[inline]
    pub fn parent(&self, i: NodeId) -> Option<NodeId> {
        let p = self.parent[i.index()];
        (p != NO_PARENT).then_some(NodeId(p))
    }

    /// The children of `i`, sorted by id.
    #[inline]
    pub fn children(&self, i: NodeId) -> &[NodeId] {
        &self.children[self.child_range(i)]
    }

    /// Where the children of `i` sit in the flat array of all child lists
    /// (`len() - 1` entries, grouped per node in id order) — the slots a
    /// per-edge array aligned with [`TaskTree::children`] uses for `i`.
    #[inline]
    pub fn child_range(&self, i: NodeId) -> std::ops::Range<usize> {
        self.child_ptr[i.index()] as usize..self.child_ptr[i.index() + 1] as usize
    }

    /// Number of children of `i`.
    #[inline]
    pub fn degree(&self, i: NodeId) -> usize {
        (self.child_ptr[i.index() + 1] - self.child_ptr[i.index()]) as usize
    }

    /// Whether `i` is a leaf.
    #[inline]
    pub fn is_leaf(&self, i: NodeId) -> bool {
        self.degree(i) == 0
    }

    /// Execution data size `n_i`.
    #[inline]
    pub fn exec(&self, i: NodeId) -> u64 {
        self.exec[i.index()]
    }

    /// Output data size `f_i`.
    #[inline]
    pub fn output(&self, i: NodeId) -> u64 {
        self.output[i.index()]
    }

    /// Processing time `t_i`.
    #[inline]
    pub fn time(&self, i: NodeId) -> f64 {
        self.time[i.index()]
    }

    /// The full task description of `i`.
    #[inline]
    pub fn spec(&self, i: NodeId) -> TaskSpec {
        TaskSpec {
            exec: self.exec(i),
            output: self.output(i),
            time: self.time(i),
        }
    }

    /// Memory needed to process `i` (Equation (1) of the paper):
    /// `Σ_{j ∈ children(i)} f_j + n_i + f_i`.
    pub fn mem_needed(&self, i: NodeId) -> u64 {
        let inputs: u64 = self.children(i).iter().map(|&c| self.output(c)).sum();
        inputs + self.exec(i) + self.output(i)
    }

    /// Sum of the children's output sizes (the input data of `i`).
    pub fn input_size(&self, i: NodeId) -> u64 {
        self.children(i).iter().map(|&c| self.output(c)).sum()
    }

    /// Total processing time `Σ t_i`.
    pub fn total_time(&self) -> f64 {
        self.time.iter().sum()
    }

    /// Iterator over all node ids in index order.
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    /// Every node once, each child before its parent; `.rev()` is the
    /// top-down order. A bottom-up pass over it is one sweep of the
    /// per-node arrays, with no stack:
    /// - `0..n` when every parent id is above its children's (assembly
    ///   trees, [`renumbered`](TaskTree::renumbered) layouts);
    /// - `(0..n).rev()` when every parent id is below them (trees grown
    ///   root first, such as `memtree_gen`'s);
    /// - otherwise a reversed breadth-first order from the root.
    ///
    /// The direction is read off the parent array in one linear pass.
    pub fn children_first(&self) -> ChildrenFirst {
        crate::traverse::children_first(self)
    }

    /// Iterator over the leaves in index order.
    pub fn leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(|&i| self.is_leaf(i))
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves().count()
    }

    /// Walks from `i` up to the root (inclusive on both ends).
    pub fn ancestors(&self, i: NodeId) -> AncestorIter<'_> {
        AncestorIter {
            tree: self,
            cur: Some(i),
        }
    }

    /// Whether `a` is an ancestor of `b` (a node is not its own ancestor).
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        let mut cur = self.parent(b);
        while let Some(p) = cur {
            if p == a {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// Checks an order is a topological order (children before parents) and
    /// a permutation of the nodes.
    pub fn check_topological(&self, order: &[NodeId]) -> Result<()> {
        if order.len() != self.len() {
            return Err(TreeError::BadPermutation {
                expected: self.len(),
                got: order.len(),
            });
        }
        let mut seen = vec![false; self.len()];
        for &i in order {
            if i.index() >= self.len() || seen[i.index()] {
                return Err(TreeError::BadPermutation {
                    expected: self.len(),
                    got: order.len(),
                });
            }
            seen[i.index()] = true;
            for &c in self.children(i) {
                if !seen[c.index()] {
                    return Err(TreeError::NotTopological {
                        parent: i,
                        child: c,
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether every node is ranked below its parent: `rank[i] <
    /// rank[parent(i)]` for every non-root `i`, or, for `None`, every
    /// parent id above its children's.
    ///
    /// For a rank table that is a permutation of `0..n` — the inverse of
    /// a sequence — this accepts exactly what
    /// [`check_topological`](TaskTree::check_topological) accepts on that
    /// sequence, in one pass over the parent array instead of a scan of
    /// every child list in sequence order. `memtree_order::Order` detects
    /// the permutation while it fills its table and asks
    /// `check_topological` only for the error of an input this rejects.
    ///
    /// # Panics
    /// When `rank` does not hold one entry per node.
    pub fn ranks_children_first(&self, rank: Option<&[u32]>) -> bool {
        match rank {
            // The root's sentinel is above every id.
            None => (0..self.len() as u32)
                .zip(&self.parent)
                .all(|(i, &p)| i < p),
            Some(rank) => {
                assert_eq!(rank.len(), self.len(), "one rank per node");
                // The root's sentinel is out of range: nothing to compare.
                self.parent
                    .iter()
                    .zip(rank)
                    .all(|(&p, &r)| rank.get(p as usize).is_none_or(|&rp| r < rp))
            }
        }
    }

    /// The tree's plan registry: orders, transforms and layouts its
    /// callers derived from it, each shared for as long as one of them
    /// holds it.
    pub fn plans(&self) -> &crate::Plans {
        &self.plans
    }

    /// The id the caller knows node `i` by: `i` itself, unless this tree
    /// was [`renumbered`](TaskTree::renumbered), in which case it is the
    /// node's id in the tree the (first) renumbering started from.
    ///
    /// Anything that orders nodes *by id* inside an execution — the
    /// driver's completion batches, the simulator's event heap — orders by
    /// label, so a renumbered tree schedules exactly like its source.
    #[inline]
    pub fn label(&self, i: NodeId) -> NodeId {
        match &self.labels {
            Some(labels) => labels[i.index()],
            None => i,
        }
    }

    /// The same tree with node `seq[k]` renamed `k`.
    ///
    /// `seq` must be a topological order of the tree (children first), so
    /// in the result every parent id is larger than its children's and the
    /// root is last: laid out along `seq`, a traversal in that order walks
    /// every per-node array front to back. The result remembers the ids it
    /// was renumbered from ([`TaskTree::label`]); renumbering it again
    /// composes the labels. Linear time, CSR arrays built directly.
    ///
    /// # Errors
    /// [`TreeError::BadPermutation`] when `seq` is not a permutation of the
    /// nodes, [`TreeError::NotTopological`] when a parent precedes one of
    /// its children.
    pub fn renumbered(&self, seq: impl Into<Arc<[NodeId]>>) -> Result<TaskTree> {
        let seq: Arc<[NodeId]> = seq.into();
        let n = self.len();
        let bad_permutation = || TreeError::BadPermutation {
            expected: n,
            got: seq.len(),
        };
        if seq.len() != n {
            return Err(bad_permutation());
        }
        let mut new_id = vec![NO_PARENT; n];
        for (k, &i) in seq.iter().enumerate() {
            match new_id.get_mut(i.index()) {
                Some(slot) if *slot == NO_PARENT => *slot = k as u32,
                _ => return Err(bad_permutation()),
            }
        }
        self.renumbered_by_rank(seq, &new_id)
    }

    /// [`TaskTree::renumbered`] along `seq` when its inverse is already at
    /// hand: `rank[seq[k]] == k`, as an order's rank table is. Saves
    /// building that inverse; the inverse property and topology are still
    /// checked, inline in the pass that renames the parent array.
    ///
    /// # Errors
    /// [`TreeError::BadPermutation`] when `seq` and `rank` are not a
    /// permutation and its inverse, [`TreeError::NotTopological`] when a
    /// parent precedes one of its children.
    pub fn renumbered_by_rank(&self, seq: Arc<[NodeId]>, rank: &[u32]) -> Result<TaskTree> {
        let n = self.len();
        let bad_permutation = || TreeError::BadPermutation {
            expected: n,
            got: seq.len(),
        };
        if seq.len() != n || rank.len() != n {
            return Err(bad_permutation());
        }
        let mut parent = Vec::with_capacity(n);
        for (k, &i) in seq.iter().enumerate() {
            // `rank[i] == k` for every k makes `seq` injective, hence a
            // permutation, with `rank` its inverse.
            if rank.get(i.index()) != Some(&(k as u32)) {
                return Err(bad_permutation());
            }
            let p = self.parent[i.index()];
            // The root keeps the sentinel, which is above every position.
            let new_parent = if p == NO_PARENT {
                NO_PARENT
            } else {
                rank[p as usize]
            };
            if new_parent as usize <= k {
                return Err(TreeError::NotTopological {
                    parent: NodeId(p),
                    child: i,
                });
            }
            parent.push(new_parent);
        }
        let exec = gather(&self.exec, &seq);
        let output = gather(&self.output, &seq);
        let time = gather(&self.time, &seq);
        let (child_ptr, children) = csr_children(&parent);
        Ok(TaskTree {
            parent,
            child_ptr,
            children,
            exec,
            output,
            time,
            root: NodeId(rank[self.root.index()]),
            labels: Some(match &self.labels {
                None => seq,
                Some(old) => gather(old, &seq).into(),
            }),
            plans: Default::default(),
        })
    }

    /// Replaces every task description through `f(id, old) -> new`,
    /// preserving the structure. Useful to rescale corpora. The new specs
    /// are checked as [`crate::TreeBuilder::build`] checks them:
    /// [`TreeError::BadTime`] for a bad time, [`TreeError::MemoryOverflow`]
    /// when the total memory no longer fits in `u64`.
    pub fn map_specs(&self, mut f: impl FnMut(NodeId, TaskSpec) -> TaskSpec) -> Result<TaskTree> {
        let mut out = self.clone();
        for i in 0..self.len() {
            let id = NodeId::from_index(i);
            let s = f(id, self.spec(id));
            out.exec[i] = s.exec;
            out.output[i] = s.output;
            out.time[i] = s.time;
        }
        crate::builder::check_specs(&out.exec, &out.output, &out.time)?;
        Ok(out)
    }
}

/// Iterator over a node and its ancestors up to the root.
pub struct AncestorIter<'a> {
    tree: &'a TaskTree,
    cur: Option<NodeId>,
}

impl Iterator for AncestorIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.cur?;
        self.cur = self.tree.parent(cur);
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;

    /// The three-node chain `0 <- 1 <- 2` (2 is the leaf, 0 the root).
    fn chain3() -> TaskTree {
        let mut b = TreeBuilder::new();
        let r = b.push(None, TaskSpec::new(1, 10, 1.0));
        let m = b.push(Some(r), TaskSpec::new(2, 20, 2.0));
        let _l = b.push(Some(m), TaskSpec::new(3, 30, 3.0));
        b.build().unwrap()
    }

    /// Root 0 with children 1, 2; node 1 has children 3, 4.
    fn bushy() -> TaskTree {
        TaskTree::from_parents(
            &[None, Some(0), Some(0), Some(1), Some(1)],
            &[
                TaskSpec::new(0, 5, 1.0),
                TaskSpec::new(1, 6, 1.0),
                TaskSpec::new(2, 7, 1.0),
                TaskSpec::new(3, 8, 1.0),
                TaskSpec::new(4, 9, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let t = chain3();
        assert_eq!(t.len(), 3);
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.parent(NodeId(2)), Some(NodeId(1)));
        assert_eq!(t.children(NodeId(0)), &[NodeId(1)]);
        assert!(t.is_leaf(NodeId(2)));
        assert!(!t.is_leaf(NodeId(1)));
        assert_eq!(t.exec(NodeId(1)), 2);
        assert_eq!(t.output(NodeId(2)), 30);
        assert_eq!(t.time(NodeId(0)), 1.0);
        assert_eq!(t.total_time(), 6.0);
    }

    #[test]
    fn mem_needed_matches_equation_1() {
        let t = bushy();
        // Node 1: children 3 (f=8) and 4 (f=9), n=1, f=6.
        assert_eq!(t.mem_needed(NodeId(1)), 8 + 9 + 1 + 6);
        // Leaf 3: n=3, f=8.
        assert_eq!(t.mem_needed(NodeId(3)), 3 + 8);
        // Root: children 1 (f=6) and 2 (f=7), n=0, f=5.
        assert_eq!(t.mem_needed(NodeId(0)), 6 + 7 + 5);
        assert_eq!(t.input_size(NodeId(0)), 13);
    }

    #[test]
    fn leaves_and_degrees() {
        let t = bushy();
        let leaves: Vec<_> = t.leaves().collect();
        assert_eq!(leaves, vec![NodeId(2), NodeId(3), NodeId(4)]);
        assert_eq!(t.leaf_count(), 3);
        assert_eq!(t.degree(NodeId(0)), 2);
        assert_eq!(t.degree(NodeId(1)), 2);
    }

    #[test]
    fn ancestors_walk_to_root() {
        let t = bushy();
        let anc: Vec<_> = t.ancestors(NodeId(4)).collect();
        assert_eq!(anc, vec![NodeId(4), NodeId(1), NodeId(0)]);
        assert!(t.is_ancestor(NodeId(0), NodeId(4)));
        assert!(t.is_ancestor(NodeId(1), NodeId(3)));
        assert!(!t.is_ancestor(NodeId(4), NodeId(1)));
        assert!(
            !t.is_ancestor(NodeId(4), NodeId(4)),
            "a node is not its own ancestor"
        );
    }

    #[test]
    fn topological_check_accepts_postorder_rejects_reverse() {
        let t = bushy();
        let ok = [NodeId(3), NodeId(4), NodeId(1), NodeId(2), NodeId(0)];
        t.check_topological(&ok).unwrap();
        let bad = [NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        assert!(matches!(
            t.check_topological(&bad),
            Err(TreeError::NotTopological { .. })
        ));
        let short = [NodeId(0)];
        assert!(matches!(
            t.check_topological(&short),
            Err(TreeError::BadPermutation { .. })
        ));
        let dup = [NodeId(3), NodeId(3), NodeId(1), NodeId(2), NodeId(0)];
        assert!(t.check_topological(&dup).is_err());
    }

    #[test]
    fn map_specs_keeps_the_spec_invariants() {
        let t = chain3();
        let huge = t.map_specs(|_, mut s| {
            s.output = u64::MAX / 2;
            s
        });
        assert_eq!(huge.unwrap_err(), TreeError::MemoryOverflow);
        let nan = t.map_specs(|_, mut s| {
            s.time = f64::NAN;
            s
        });
        assert_eq!(nan.unwrap_err(), TreeError::BadTime(NodeId(0)));
    }

    #[test]
    fn map_specs_rescales() {
        let t = chain3();
        let t2 = t
            .map_specs(|_, mut s| {
                s.output *= 2;
                s
            })
            .unwrap();
        assert_eq!(t2.output(NodeId(2)), 60);
        assert_eq!(t2.exec(NodeId(2)), 3);
        assert_eq!(t2.parent(NodeId(2)), Some(NodeId(1)));
    }

    #[test]
    fn from_parents_matches_builder() {
        let a = chain3();
        let b = TaskTree::from_parents(
            &[None, Some(0), Some(1)],
            &[
                TaskSpec::new(1, 10, 1.0),
                TaskSpec::new(2, 20, 2.0),
                TaskSpec::new(3, 30, 3.0),
            ],
        )
        .unwrap();
        assert_eq!(a, b);
    }
}
