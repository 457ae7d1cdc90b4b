//! `memtree_tree::partition` as the library computed it before it became
//! id sweeps: postorder walks with an explicit stack, one `HashMap` per
//! extracted shard. The library must cut the same shards and build the
//! same parts, byte for byte, on any id layout.

use memtree_tree::partition::{Partition, PartitionPolicy, ResidualPart, ShardPart, RESIDUAL};
use memtree_tree::{NodeId, TaskSpec, TaskTree};

/// Smallest subtree (in nodes) that becomes a shard.
const MIN_SHARD_NODES: usize = 2;

/// Iterative postorder traversal (children before parents) of one subtree.
///
/// Children are visited in id order.
pub struct PostorderIter<'a> {
    tree: &'a TaskTree,
    /// Stack of (node, next child rank to expand).
    stack: Vec<(NodeId, u32)>,
}

impl<'a> PostorderIter<'a> {
    /// Postorder over the whole tree.
    pub fn new(tree: &'a TaskTree) -> Self {
        Self::rooted(tree, tree.root())
    }

    /// Postorder over the subtree rooted at `root`.
    pub fn rooted(tree: &'a TaskTree, root: NodeId) -> Self {
        PostorderIter {
            tree,
            stack: vec![(root, 0)],
        }
    }
}

impl Iterator for PostorderIter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            let &(node, next_child) = self.stack.last()?;
            let children = self.tree.children(node);
            if (next_child as usize) < children.len() {
                self.stack.last_mut().unwrap().1 += 1;
                self.stack.push((children[next_child as usize], 0));
            } else {
                self.stack.pop();
                return Some(node);
            }
        }
    }
}

/// Extracts the subtree rooted at `root` into its own compact tree.
fn extract_subtree(tree: &TaskTree, root: NodeId) -> (TaskTree, Vec<NodeId>) {
    let mut to_global: Vec<NodeId> = PostorderIter::rooted(tree, root).collect();
    to_global.sort_unstable();
    let mut local_of = std::collections::HashMap::with_capacity(to_global.len());
    for (local, &g) in to_global.iter().enumerate() {
        local_of.insert(g, local);
    }
    let parents: Vec<Option<usize>> = to_global
        .iter()
        .map(|&g| {
            if g == root {
                None
            } else {
                Some(local_of[&tree.parent(g).expect("non-root has a parent")])
            }
        })
        .collect();
    let specs: Vec<TaskSpec> = to_global.iter().map(|&g| tree.spec(g)).collect();
    let sub = TaskTree::from_parents(&parents, &specs).expect("subtree is a valid tree");
    (sub, to_global)
}

/// Cuts `tree` into up to `policy.shards` disjoint shard subtrees plus a
/// residual merge tree.
pub fn partition(tree: &TaskTree, policy: &PartitionPolicy) -> Partition {
    let n = tree.len();
    let mut assignment = vec![RESIDUAL; n];
    let mut roots: Vec<NodeId> = Vec::new();

    if policy.shards >= 1 && n >= 2 {
        let mut size = vec![1u32; n];
        for i in PostorderIter::new(tree) {
            let ix = i.index();
            for &c in tree.children(i) {
                size[ix] += size[c.index()];
            }
        }
        // The per-shard target weight, clamped to the heaviest proper
        // subtree: when `n / shards` exceeds every cuttable subtree
        // (shards = 1, or a heavy root), the clamp keeps a cut possible
        // instead of silently degenerating to an all-residual partition.
        let max_proper = tree
            .nodes()
            .filter(|&i| i != tree.root())
            .map(|i| size[i.index()] as usize)
            .max()
            .unwrap_or(0);
        let target = (n / policy.shards).min(max_proper).max(MIN_SHARD_NODES);
        // Leaf-up sweep: a node whose untainted subtree reaches the
        // target becomes a shard root and taints its ancestors (shards
        // are whole, disjoint subtrees).
        let mut tainted = vec![false; n];
        for i in PostorderIter::new(tree) {
            let ix = i.index();
            for &c in tree.children(i) {
                tainted[ix] |= tainted[c.index()];
            }
            if i != tree.root()
                && !tainted[ix]
                && (size[ix] as usize) >= target
                && roots.len() < policy.shards
            {
                roots.push(i);
                tainted[ix] = true;
            }
        }
        // Canonical shard order: ascending global root id, independent of
        // traversal order.
        roots.sort_unstable();
        for (k, &r) in roots.iter().enumerate() {
            for i in PostorderIter::rooted(tree, r) {
                assignment[i.index()] = k as u32;
            }
        }
    }

    let shards: Vec<ShardPart> = roots
        .iter()
        .map(|&r| {
            let (sub, to_global) = extract_subtree(tree, r);
            ShardPart {
                tree: sub,
                to_global,
                attach: tree.parent(r).expect("shard roots are never the tree root"),
            }
        })
        .collect();

    // Residual: real nodes in ascending global id, then one proxy leaf
    // per shard carrying the shard root's output size.
    let mut local_of = vec![usize::MAX; n];
    let mut origin: Vec<Option<NodeId>> = Vec::new();
    for i in tree.nodes() {
        if assignment[i.index()] == RESIDUAL {
            local_of[i.index()] = origin.len();
            origin.push(Some(i));
        }
    }
    let real = origin.len();
    let mut parents: Vec<Option<usize>> = origin
        .iter()
        .map(|g| {
            tree.parent(g.expect("real node"))
                .map(|p| local_of[p.index()])
        })
        .collect();
    let mut specs: Vec<TaskSpec> = origin
        .iter()
        .map(|g| tree.spec(g.expect("real node")))
        .collect();
    let mut proxies = Vec::with_capacity(shards.len());
    for shard in &shards {
        proxies.push(NodeId::from_index(origin.len()));
        origin.push(None);
        parents.push(Some(local_of[shard.attach.index()]));
        specs.push(TaskSpec::new(0, tree.output(shard.root_global()), 0.0));
    }
    debug_assert_eq!(real + shards.len(), origin.len());
    let residual_tree = TaskTree::from_parents(&parents, &specs).expect("residual is a valid tree");

    Partition {
        shards,
        residual: ResidualPart {
            tree: residual_tree,
            origin,
            proxies,
        },
        assignment,
    }
}
