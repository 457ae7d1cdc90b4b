//! Forest partitioning: cut a [`TaskTree`] at subtree-weight frontiers
//! into disjoint **shard** subtrees plus a **residual** merge tree
//! (DESIGN.md §6.7).
//!
//! A sharded platform splits one tree across workers the way Eyraud-Dubois
//! et al. (2014) parallelise independent subtrees: each shard is a whole
//! subtree whose root's parent stays behind in the residual tree, so the
//! only cross-shard dependency is "shard finished → its output is an input
//! of the residual". The cut rule: a **candidate** is a proper subtree of
//! at least the target weight (`n / shards` nodes, clamped to the heaviest
//! proper subtree and floored at two nodes), and the shard roots
//! are the **minimal** candidates — those with no candidate below them —
//! which cuts just below high fan-out nodes, where the heaviest disjoint
//! subtrees live. When there are more than `shards` of them, the first
//! `shards` in postorder (children in id order) win. A chain yields at
//! most one shard (its subtrees are all nested); that is structural, not
//! a heuristic failure.
//!
//! Everything is an id sweep along [`TaskTree::children_first`]: one
//! bottom-up sweep counts subtree sizes, a second finds the minimal
//! candidates, postorder ranks are placed only when candidates outnumber
//! shards, one top-down sweep hands every node its shard, and one
//! id-ascending pass gives every node its local id, from which each
//! part's arrays are gathered. No walk, stack or map.
//!
//! The partition is **lossless**: every global node lands in exactly one
//! shard or the residual tree, each part is a real [`TaskTree`] in its own
//! compact id space with a recorded local→global mapping, and
//! [`Partition::stitch`] rebuilds a tree that is `content_hash`-equal to
//! the original — the property the partitioner proptests pin down. In the
//! residual tree every shard is represented by a **proxy leaf** (`n = 0`,
//! `t = 0`, `f =` the shard root's output) attached to the shard root's
//! original parent, so the residual tree's memory semantics account for
//! the shard outputs exactly as the original tree did.
//!
//! Partitioning is deterministic: the same tree and policy always produce
//! byte-identical parts (shard trees hash stably), which sharded result
//! caching relies on.

use crate::builder::TreeBuilder;
use crate::node::{NodeId, TaskSpec};
use crate::traverse::{postorder_ranks, ChildrenFirst};
use crate::tree::TaskTree;

/// Shard-assignment sentinel: the node stays in the residual tree.
pub const RESIDUAL: u32 = u32::MAX;

/// Smallest subtree (in nodes) worth shipping to a worker; subtrees
/// below this never become shards.
const MIN_SHARD_NODES: usize = 2;

/// How aggressively to cut a tree into shards.
#[derive(Clone, Copy, Debug)]
pub struct PartitionPolicy {
    /// Maximum number of shards to cut (the partitioner may produce fewer
    /// when the structure does not admit that many disjoint subtrees).
    pub shards: usize,
}

impl PartitionPolicy {
    /// Up to `shards` shards of roughly `n / shards` nodes each.
    pub fn balanced(shards: usize) -> Self {
        PartitionPolicy { shards }
    }
}

/// One shard: a whole subtree of the original tree, re-indexed into its
/// own compact id space.
#[derive(Clone, Debug)]
pub struct ShardPart {
    /// The shard subtree (local ids `0..tree.len()`).
    pub tree: TaskTree,
    /// Local id → original global id; ascending (locals preserve the
    /// global relative order, so children stay id-sorted).
    pub to_global: Vec<NodeId>,
    /// Global id of the shard root's parent — always a residual node.
    pub attach: NodeId,
}

impl ShardPart {
    /// Global id of the shard's root.
    pub fn root_global(&self) -> NodeId {
        self.to_global[self.tree.root().index()]
    }
}

/// The residual merge tree: everything not in a shard, plus one proxy
/// leaf per shard standing in for the shard's output.
#[derive(Clone, Debug)]
pub struct ResidualPart {
    /// The residual tree (real nodes first, proxy leaves last).
    pub tree: TaskTree,
    /// Local id → original global id for real nodes, `None` for proxies.
    pub origin: Vec<Option<NodeId>>,
    /// Local id of shard `k`'s proxy leaf, indexed by shard.
    pub proxies: Vec<NodeId>,
}

/// A [`TaskTree`] cut into shard subtrees plus a residual merge tree.
#[derive(Clone, Debug)]
pub struct Partition {
    /// The shard subtrees, ordered by ascending global root id.
    pub shards: Vec<ShardPart>,
    /// The residual merge tree.
    pub residual: ResidualPart,
    /// Per-global-node home: the shard index, or [`RESIDUAL`].
    pub assignment: Vec<u32>,
}

impl Partition {
    /// Number of shards actually cut.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Reassembles the original tree from the parts alone (shard trees,
    /// mappings, attachment points, residual tree) — no reference to the
    /// source tree. The result is `content_hash`-equal to the original,
    /// proving the partition loses nothing.
    pub fn stitch(&self) -> TaskTree {
        let n = self.assignment.len();
        let mut parents: Vec<Option<usize>> = vec![None; n];
        let mut specs: Vec<TaskSpec> = vec![TaskSpec::default(); n];
        for (local, origin) in self.residual.origin.iter().enumerate() {
            let Some(g) = *origin else { continue };
            let local_id = NodeId::from_index(local);
            // A real residual node's parent is real too (proxies are
            // leaves), so the unwrap on its origin is safe.
            parents[g.index()] = self.residual.tree.parent(local_id).map(|p| {
                self.residual.origin[p.index()]
                    .expect("parent is real")
                    .index()
            });
            specs[g.index()] = self.residual.tree.spec(local_id);
        }
        for shard in &self.shards {
            for local in shard.tree.nodes() {
                let g = shard.to_global[local.index()];
                parents[g.index()] = match shard.tree.parent(local) {
                    Some(p) => Some(shard.to_global[p.index()].index()),
                    None => Some(shard.attach.index()),
                };
                specs[g.index()] = shard.tree.spec(local);
            }
        }
        TaskTree::from_parents(&parents, &specs).expect("stitched parts form the original tree")
    }
}

/// The shard roots in ascending id: the minimal candidates of the module
/// docs, the first `policy.shards` of them in postorder.
fn shard_roots(tree: &TaskTree, policy: &PartitionPolicy, sweep: &ChildrenFirst) -> Vec<NodeId> {
    let (n, root) = (tree.len(), tree.root());
    let mut size = vec![1u32; n];
    for i in sweep.clone() {
        if let Some(p) = tree.parent(i) {
            size[p.index()] += size[i.index()];
        }
    }
    // The per-shard target weight, clamped to the heaviest proper subtree
    // (one of the root's children): when `n / shards` exceeds every
    // cuttable subtree (shards = 1, or a heavy root), the clamp keeps a
    // cut possible instead of silently degenerating to an all-residual
    // partition.
    let max_proper = tree.children(root).iter().map(|c| size[c.index()]).max();
    let target = (n / policy.shards)
        .min(max_proper.unwrap_or(0) as usize)
        .max(MIN_SHARD_NODES);
    // `below[i]`: some candidate lies strictly below `i`.
    let mut below = vec![false; n];
    let mut roots = Vec::new();
    for i in sweep.clone() {
        let candidate = i != root && size[i.index()] as usize >= target;
        if candidate && !below[i.index()] {
            roots.push(i);
        }
        if let Some(p) = tree.parent(i) {
            below[p.index()] |= candidate || below[i.index()];
        }
    }
    if roots.len() > policy.shards {
        // Candidates are disjoint subtrees, so postorder ranks order them
        // as a leaf-up walk would meet them.
        let rank = postorder_ranks(tree, &tree.children);
        roots.select_nth_unstable_by_key(policy.shards - 1, |r| rank[r.index()]);
        roots.truncate(policy.shards);
    }
    // Canonical shard order: ascending global root id.
    roots.sort_unstable();
    roots
}

/// The part of `tree` on `nodes` (ascending global ids, numbered by
/// `local`) followed by the `extra` leaves `(local parent, spec)`. A node
/// whose parent has another `home` is the part's root.
fn part_tree(
    tree: &TaskTree,
    nodes: &[NodeId],
    local: &[u32],
    home: &[u32],
    extra: &[(u32, TaskSpec)],
) -> TaskTree {
    let mut b = TreeBuilder::with_capacity(nodes.len() + extra.len());
    for &g in nodes {
        let parent = tree
            .parent(g)
            .filter(|p| home[p.index()] == home[g.index()]);
        b.push(parent.map(|p| NodeId(local[p.index()])), tree.spec(g));
    }
    for &(parent, spec) in extra {
        b.push(Some(NodeId(parent)), spec);
    }
    b.build().expect("a part is a tree")
}

/// Cuts `tree` into up to `policy.shards` disjoint shard subtrees plus a
/// residual merge tree; see the module docs for the heuristic and the
/// invariants.
pub fn partition(tree: &TaskTree, policy: &PartitionPolicy) -> Partition {
    let n = tree.len();
    let mut assignment = vec![RESIDUAL; n];
    let mut roots = Vec::new();
    if policy.shards >= 1 && n >= 2 {
        let sweep = tree.children_first();
        roots = shard_roots(tree, policy, &sweep);
        for (k, &r) in roots.iter().enumerate() {
            assignment[r.index()] = k as u32;
        }
        // Top-down: every other node lives where its parent does.
        for i in sweep.rev() {
            if let Some(p) = tree.parent(i).filter(|_| assignment[i.index()] == RESIDUAL) {
                assignment[i.index()] = assignment[p.index()];
            }
        }
    }

    // Every part lists its nodes in ascending global id; the residual is
    // part `roots.len()`.
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); roots.len() + 1];
    let mut local = vec![0u32; n];
    for i in tree.nodes() {
        let part = &mut members[(assignment[i.index()] as usize).min(roots.len())];
        local[i.index()] = part.len() as u32;
        part.push(i);
    }
    let real = members.pop().expect("the residual part");
    let shards: Vec<ShardPart> = members
        .into_iter()
        .zip(&roots)
        .map(|(to_global, &r)| ShardPart {
            tree: part_tree(tree, &to_global, &local, &assignment, &[]),
            to_global,
            attach: tree.parent(r).expect("shard roots are never the tree root"),
        })
        .collect();

    // Residual: real nodes, then one proxy leaf per shard carrying the
    // shard root's output size.
    let proxy_leaves: Vec<(u32, TaskSpec)> = shards
        .iter()
        .map(|s| {
            let spec = TaskSpec::new(0, tree.output(s.root_global()), 0.0);
            (local[s.attach.index()], spec)
        })
        .collect();
    let residual_tree = part_tree(tree, &real, &local, &assignment, &proxy_leaves);
    let proxies = (real.len()..residual_tree.len())
        .map(NodeId::from_index)
        .collect();
    let origin = real
        .into_iter()
        .map(Some)
        .chain(shards.iter().map(|_| None))
        .collect();

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TaskSpec;

    fn star_of_chains(lens: &[usize]) -> TaskTree {
        let mut parents: Vec<Option<usize>> = vec![None];
        let mut specs = vec![TaskSpec::new(1, 2, 1.0)];
        for &len in lens {
            let mut prev = 0usize; // attach each chain under the root
            for k in 0..len {
                parents.push(Some(prev));
                specs.push(TaskSpec::new(1, 2 + k as u64, 1.0));
                prev = parents.len() - 1;
            }
        }
        TaskTree::from_parents(&parents, &specs).unwrap()
    }

    #[test]
    fn star_splits_into_per_chain_shards() {
        let tree = star_of_chains(&[10, 10, 10, 10]);
        let part = partition(&tree, &PartitionPolicy::balanced(4));
        assert_eq!(part.shard_count(), 4);
        for shard in &part.shards {
            assert_eq!(shard.tree.len(), 10);
            assert_eq!(shard.attach, tree.root());
        }
        // Residual: the root plus one proxy per shard.
        assert_eq!(part.residual.tree.len(), 1 + 4);
        assert_eq!(part.residual.proxies.len(), 4);
        for (k, &p) in part.residual.proxies.iter().enumerate() {
            assert!(part.residual.tree.is_leaf(p));
            assert_eq!(part.residual.tree.time(p), 0.0);
            assert_eq!(part.residual.tree.exec(p), 0);
            assert_eq!(
                part.residual.tree.output(p),
                tree.output(part.shards[k].root_global())
            );
        }
    }

    #[test]
    fn a_single_requested_shard_still_cuts() {
        // shards = 1 must not degenerate to an all-residual partition:
        // the target clamps to the heaviest proper subtree, so the first
        // chain becomes the one shard.
        let tree = star_of_chains(&[10, 10, 10, 10]);
        let part = partition(&tree, &PartitionPolicy::balanced(1));
        assert_eq!(part.shard_count(), 1);
        assert_eq!(part.shards[0].tree.len(), 10);
        assert_eq!(part.stitch().content_hash(), tree.content_hash());
    }

    #[test]
    fn chain_admits_at_most_one_shard() {
        let tree = crate::tree::TaskTree::from_parents(
            &[None, Some(0), Some(1), Some(2), Some(3), Some(4)],
            &[TaskSpec::new(1, 1, 1.0); 6],
        )
        .unwrap();
        let part = partition(&tree, &PartitionPolicy::balanced(4));
        assert!(part.shard_count() <= 1, "nested subtrees cannot both shard");
        assert_eq!(part.stitch().content_hash(), tree.content_hash());
    }

    #[test]
    fn stitch_restores_the_original_hash() {
        let tree = star_of_chains(&[7, 13, 5, 20, 3]);
        for shards in [1, 2, 4, 8] {
            let part = partition(&tree, &PartitionPolicy::balanced(shards));
            assert_eq!(
                part.stitch().content_hash(),
                tree.content_hash(),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn partitioning_is_deterministic() {
        let tree = star_of_chains(&[9, 4, 17, 11]);
        let a = partition(&tree, &PartitionPolicy::balanced(3));
        let b = partition(&tree, &PartitionPolicy::balanced(3));
        assert_eq!(a.assignment, b.assignment);
        for (sa, sb) in a.shards.iter().zip(&b.shards) {
            assert_eq!(sa.tree.content_hash(), sb.tree.content_hash());
        }
        assert_eq!(
            a.residual.tree.content_hash(),
            b.residual.tree.content_hash()
        );
    }

    #[test]
    fn tiny_trees_stay_whole() {
        let tree = TaskTree::from_parents(&[None], &[TaskSpec::new(1, 1, 1.0)]).unwrap();
        let part = partition(&tree, &PartitionPolicy::balanced(8));
        assert_eq!(part.shard_count(), 0);
        assert_eq!(part.residual.tree.len(), 1);
        assert_eq!(part.stitch().content_hash(), tree.content_hash());
    }
}
