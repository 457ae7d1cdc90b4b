//! Structural statistics of task trees.

use crate::node::NodeId;
use crate::traverse::depths;
use crate::tree::TaskTree;

/// Precomputed structural statistics of a [`TaskTree`].
///
/// The paper characterises its corpora by node count, height and maximum
/// degree, and its orders rely on subtree totals (`T_i`), critical paths and
/// bottom levels; this struct computes all of them in linear id sweeps.
#[derive(Clone, Debug)]
pub struct TreeStats {
    /// Depth of each node; the root has depth 0.
    pub depth: Vec<u32>,
    /// Number of nodes in each subtree (a leaf counts 1).
    pub subtree_size: Vec<u32>,
    /// Total processing time of each subtree: `T_i = Σ_{j ∈ subtree(i)} t_j`.
    pub subtree_time: Vec<f64>,
    /// Critical path of each subtree: the longest (in time) leaf-to-`i`
    /// path, **including** `t_i`.
    pub subtree_cp: Vec<f64>,
    /// Bottom level: sum of processing times on the unique path from the
    /// node to the root, including both endpoints. In an in-tree this is the
    /// remaining work on the node's path, the classical list-scheduling
    /// priority.
    pub bottom_level: Vec<f64>,
    /// Height of the tree: number of *edges* on the longest root-to-leaf
    /// path (a single node has height 0).
    pub height: u32,
    /// Maximum number of children over all nodes.
    pub max_degree: u32,
}

impl TreeStats {
    /// Computes all statistics for `tree`: two top-down sweeps and two
    /// children-first sweeps ([`TaskTree::children_first`]).
    pub fn compute(tree: &TaskTree) -> Self {
        let n = tree.len();
        let depth = depths(tree);
        let bottom_level = bottom_levels(tree);
        let subtree_cp = subtree_critical_paths(tree);
        let height = depth.iter().copied().max().unwrap_or(0);
        let max_degree = tree
            .nodes()
            .map(|i| tree.degree(i) as u32)
            .max()
            .unwrap_or(0);

        let mut subtree_size = vec![1u32; n];
        let mut subtree_time = vec![0f64; n];
        for i in tree.children_first() {
            let ix = i.index();
            subtree_time[ix] += tree.time(i);
            for &c in tree.children(i) {
                subtree_size[ix] += subtree_size[c.index()];
                subtree_time[ix] += subtree_time[c.index()];
            }
        }

        TreeStats {
            depth,
            subtree_size,
            subtree_time,
            subtree_cp,
            bottom_level,
            height,
            max_degree,
        }
    }

    /// Critical path of the whole tree (the classical makespan lower bound
    /// component): the heaviest leaf-to-root path.
    pub fn critical_path(&self, tree: &TaskTree) -> f64 {
        self.subtree_cp[tree.root().index()]
    }

    /// Whether node `a` has a strictly larger bottom level than `b`,
    /// breaking ties by depth (deeper first) then id. Using this as an
    /// execution priority yields the paper's `CP` order.
    pub fn cp_before(&self, a: NodeId, b: NodeId) -> std::cmp::Ordering {
        let (ia, ib) = (a.index(), b.index());
        self.bottom_level[ib]
            .partial_cmp(&self.bottom_level[ia])
            .unwrap()
            .then(self.depth[ib].cmp(&self.depth[ia]))
            .then(a.cmp(&b))
    }
}

/// The critical path of every subtree ([`TreeStats::subtree_cp`]): one
/// children-first sweep, each subtree pushing its path up to its parent.
pub fn subtree_critical_paths(tree: &TaskTree) -> Vec<f64> {
    // Holds the longest path below a node until the sweep reaches it.
    let mut cp = vec![0f64; tree.len()];
    for i in tree.children_first() {
        let here = tree.time(i) + cp[i.index()];
        cp[i.index()] = here;
        if let Some(p) = tree.parent(i) {
            cp[p.index()] = cp[p.index()].max(here);
        }
    }
    cp
}

/// The bottom level of every node ([`TreeStats::bottom_level`]): one
/// top-down sweep.
pub fn bottom_levels(tree: &TaskTree) -> Vec<f64> {
    let mut bl = vec![0f64; tree.len()];
    for i in tree.children_first().rev() {
        let base = tree.parent(i).map_or(0.0, |p| bl[p.index()]);
        bl[i.index()] = base + tree.time(i);
    }
    bl
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TaskSpec;

    fn sample() -> TaskTree {
        // 0 root (t=1); children 1 (t=2), 2 (t=3); 1 has children 3 (t=4), 4 (t=5).
        TaskTree::from_parents(
            &[None, Some(0), Some(0), Some(1), Some(1)],
            &[
                TaskSpec::new(0, 1, 1.0),
                TaskSpec::new(0, 1, 2.0),
                TaskSpec::new(0, 1, 3.0),
                TaskSpec::new(0, 1, 4.0),
                TaskSpec::new(0, 1, 5.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn sizes_and_times() {
        let t = sample();
        let s = TreeStats::compute(&t);
        assert_eq!(s.subtree_size, vec![5, 3, 1, 1, 1]);
        assert_eq!(s.subtree_time[0], 15.0);
        assert_eq!(s.subtree_time[1], 11.0);
        assert_eq!(s.height, 2);
        assert_eq!(s.max_degree, 2);
    }

    #[test]
    fn critical_path_is_longest_leaf_root_path() {
        let t = sample();
        let s = TreeStats::compute(&t);
        // Longest path: 4 (5) -> 1 (2) -> 0 (1) = 8.
        assert_eq!(s.critical_path(&t), 8.0);
        assert_eq!(s.subtree_cp[1], 7.0);
    }

    #[test]
    fn bottom_levels_accumulate_to_root() {
        let t = sample();
        let s = TreeStats::compute(&t);
        assert_eq!(s.bottom_level[0], 1.0);
        assert_eq!(s.bottom_level[1], 3.0);
        assert_eq!(s.bottom_level[4], 8.0);
        // Deeper nodes on a path always have a larger-or-equal bottom level.
        for i in t.nodes() {
            if let Some(p) = t.parent(i) {
                assert!(s.bottom_level[i.index()] >= s.bottom_level[p.index()]);
            }
        }
    }

    #[test]
    fn cp_ordering_prefers_heavy_paths() {
        let t = sample();
        let s = TreeStats::compute(&t);
        // Node 4 (bl = 8) before node 3 (bl = 7) before node 2 (bl = 4).
        assert_eq!(s.cp_before(NodeId(4), NodeId(3)), std::cmp::Ordering::Less);
        assert_eq!(s.cp_before(NodeId(3), NodeId(2)), std::cmp::Ordering::Less);
        assert_eq!(s.cp_before(NodeId(2), NodeId(2)), std::cmp::Ordering::Equal);
    }

    #[test]
    fn single_node_stats() {
        let t = TaskTree::from_parents(&[None], &[TaskSpec::new(0, 1, 2.5)]).unwrap();
        let s = TreeStats::compute(&t);
        assert_eq!(s.height, 0);
        assert_eq!(s.max_degree, 0);
        assert_eq!(s.critical_path(&t), 2.5);
    }
}
