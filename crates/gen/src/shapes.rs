//! Deterministic tree families for tests, adversarial cases and ablations.

use memtree_tree::{TaskSpec, TaskTree, TreeBuilder};

/// A chain of `n` nodes: node 0 is the root, node `n-1` the single leaf.
/// Every node gets `spec`.
pub fn chain(n: usize, spec: TaskSpec) -> TaskTree {
    assert!(n > 0);
    let mut b = TreeBuilder::with_capacity(n);
    b.push(None, spec);
    for i in 1..n {
        b.push_with_parent_index(Some(i - 1), spec);
    }
    b.build().expect("chain is a valid tree")
}

/// A star: one root with `n - 1` leaf children.
pub fn star(n: usize, root_spec: TaskSpec, leaf_spec: TaskSpec) -> TaskTree {
    assert!(n > 0);
    let mut b = TreeBuilder::with_capacity(n);
    let r = b.push(None, root_spec);
    for _ in 1..n {
        b.push(Some(r), leaf_spec);
    }
    b.build().expect("star is a valid tree")
}

/// A complete `k`-ary tree of the given `depth` (depth 0 = single node).
/// Every node gets `spec`.
pub fn complete_kary(k: usize, depth: usize, spec: TaskSpec) -> TaskTree {
    assert!(k >= 1);
    let mut b = TreeBuilder::new();
    let root = b.push(None, spec);
    let mut frontier = vec![(root, 0usize)];
    let mut next = Vec::new();
    for _ in 0..depth {
        for &(node, _) in &frontier {
            for _ in 0..k {
                next.push((b.push(Some(node), spec), 0));
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    b.build().expect("k-ary tree is valid")
}

/// A caterpillar: a spine chain of `spine` nodes, each spine node carrying
/// `legs` leaf children. Spine nodes get `spine_spec`, legs `leg_spec`.
pub fn caterpillar(
    spine: usize,
    legs: usize,
    spine_spec: TaskSpec,
    leg_spec: TaskSpec,
) -> TaskTree {
    assert!(spine > 0);
    let mut b = TreeBuilder::new();
    let mut prev = b.push(None, spine_spec);
    for _ in 0..legs {
        b.push(Some(prev), leg_spec);
    }
    for _ in 1..spine {
        let cur = b.push(Some(prev), spine_spec);
        for _ in 0..legs {
            b.push(Some(cur), leg_spec);
        }
        prev = cur;
    }
    b.build().expect("caterpillar is valid")
}

/// A "spindle": `width` parallel chains of length `depth` merging into one
/// root — maximal independent parallelism with deep branches.
pub fn spindle(width: usize, depth: usize, spec: TaskSpec) -> TaskTree {
    assert!(width > 0 && depth > 0);
    let mut b = TreeBuilder::new();
    let root = b.push(None, spec);
    for _ in 0..width {
        let mut prev = b.push(Some(root), spec);
        for _ in 1..depth {
            prev = b.push(Some(prev), spec);
        }
    }
    b.build().expect("spindle is valid")
}

/// A random recursive tree: node `i`'s parent is uniform over `0..i`.
/// Shapes only; all nodes get `spec`. Deterministic in `seed`.
pub fn random_recursive(n: usize, spec: TaskSpec, seed: u64) -> TaskTree {
    use rand::Rng;
    use rand::SeedableRng;
    assert!(n > 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = TreeBuilder::with_capacity(n);
    b.push(None, spec);
    for i in 1..n {
        let p = rng.random_range(0..i);
        b.push_with_parent_index(Some(p), spec);
    }
    b.build().expect("random recursive tree is valid")
}

/// A balanced binary **reduction tree**: `n_i = 0` and
/// `f_i = Σ f_children` exactly (every merge preserves data volume), with
/// `leaves` leaf tasks of output size `leaf_output`. The classic shape of
/// the trees the MemBookingRedTree baseline was designed for.
pub fn binary_reduction(leaves: usize, leaf_output: u64, time: f64) -> TaskTree {
    assert!(leaves > 0);
    // Build bottom-up level by level; parents created after children via
    // forward references is awkward, so construct top-down instead: a
    // complete binary tree with `leaves` leaves (last level possibly
    // partial), then size outputs bottom-up.
    // Simpler: build the structure with parents known (heap layout).
    // Heap layout works when leaves is a power of two; for generality use
    // pairwise merging bottom-up with explicit parent patching.
    let mut parents: Vec<Option<usize>> = Vec::new();
    let mut level: Vec<usize> = Vec::new();
    for _ in 0..leaves {
        parents.push(None);
        level.push(parents.len() - 1);
    }
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                parents.push(None);
                let p = parents.len() - 1;
                parents[pair[0]] = Some(p);
                parents[pair[1]] = Some(p);
                next.push(p);
            } else {
                next.push(pair[0]);
            }
        }
        level = next;
    }
    // Outputs: leaves get leaf_output, internal nodes the sum of children.
    let n = parents.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &p) in parents.iter().enumerate() {
        if let Some(p) = p {
            children[p].push(i);
        }
    }
    let mut output = vec![0u64; n];
    // Nodes were created children-before-parents, so a forward scan works.
    for i in 0..n {
        output[i] = if children[i].is_empty() {
            leaf_output
        } else {
            children[i].iter().map(|&c| output[c]).sum()
        };
    }
    let specs: Vec<TaskSpec> = output
        .iter()
        .map(|&f| TaskSpec::reduction(f, time))
        .collect();
    TaskTree::from_parents(&parents, &specs).expect("reduction tree is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_tree::validate::check_consistency;
    use memtree_tree::TreeStats;

    fn spec() -> TaskSpec {
        TaskSpec::new(1, 2, 1.0)
    }

    #[test]
    fn chain_shape() {
        let t = chain(5, spec());
        check_consistency(&t).unwrap();
        let s = TreeStats::compute(&t);
        assert_eq!(s.height, 4);
        assert_eq!(s.max_degree, 1);
        assert_eq!(t.leaf_count(), 1);
    }

    #[test]
    fn star_shape() {
        let t = star(6, spec(), spec());
        let s = TreeStats::compute(&t);
        assert_eq!(s.height, 1);
        assert_eq!(s.max_degree, 5);
        assert_eq!(t.leaf_count(), 5);
    }

    #[test]
    fn kary_shape() {
        let t = complete_kary(2, 3, spec());
        assert_eq!(t.len(), 15);
        let s = TreeStats::compute(&t);
        assert_eq!(s.height, 3);
        assert_eq!(t.leaf_count(), 8);
        check_consistency(&t).unwrap();
    }

    #[test]
    fn kary_degenerate_is_chain() {
        let t = complete_kary(1, 4, spec());
        assert_eq!(t.len(), 5);
        assert_eq!(TreeStats::compute(&t).max_degree, 1);
    }

    #[test]
    fn caterpillar_shape() {
        let t = caterpillar(4, 3, spec(), spec());
        assert_eq!(t.len(), 4 + 12);
        let s = TreeStats::compute(&t);
        assert_eq!(s.height, 4);
        // Spine nodes have legs + 1 children except the last (legs).
        assert_eq!(s.max_degree, 4);
        check_consistency(&t).unwrap();
    }

    #[test]
    fn spindle_shape() {
        let t = spindle(3, 4, spec());
        assert_eq!(t.len(), 1 + 12);
        let s = TreeStats::compute(&t);
        assert_eq!(s.height, 4);
        assert_eq!(t.leaf_count(), 3);
        check_consistency(&t).unwrap();
    }

    #[test]
    fn random_recursive_deterministic() {
        let a = random_recursive(50, spec(), 7);
        let b = random_recursive(50, spec(), 7);
        assert_eq!(a, b);
        let c = random_recursive(50, spec(), 8);
        assert_ne!(a, c, "different seeds should differ");
        check_consistency(&a).unwrap();
    }

    #[test]
    fn binary_reduction_is_a_reduction_tree() {
        for leaves in [1usize, 2, 3, 5, 8, 13] {
            let t = binary_reduction(leaves, 4, 1.0);
            check_consistency(&t).unwrap();
            assert_eq!(t.leaf_count(), leaves);
            for i in t.nodes() {
                assert_eq!(t.exec(i), 0);
                if !t.is_leaf(i) {
                    assert_eq!(t.output(i), t.input_size(i), "node {i:?} not a reduction");
                }
            }
            assert_eq!(t.output(t.root()), 4 * leaves as u64);
        }
    }
}
