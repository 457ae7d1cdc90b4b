//! Property-based tests of the tree substrate.

mod partition_reference;

use memtree_testkit::{arb_tree, id_layouts, random_topological, reference, SplitMix};
use memtree_tree::io::{tree_from_str, tree_to_string};
use memtree_tree::memory::{sequential_peak, sequential_profile, LiveSet};
use memtree_tree::partition::{partition, PartitionPolicy, RESIDUAL};
use memtree_tree::traverse::{depths, postorder, postorder_with_child_order};
use memtree_tree::validate::check_consistency;
use memtree_tree::{NodeId, TaskSpec, TaskTree, TreeError, TreeStats};
use proptest::prelude::*;

/// Short lowercase/digit garbage for strictness tests — built from index
/// vectors because the vendored proptest has no string-regex strategies.
fn arb_garbage() -> impl Strategy<Value = String> {
    const CHARSET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    (1usize..13)
        .prop_flat_map(|len| proptest::collection::vec(0usize..CHARSET.len(), len))
        .prop_map(|ixs| ixs.into_iter().map(|i| CHARSET[i] as char).collect())
}

/// Strategy: nine or ten two-node chains hung on the nodes of a random
/// skeleton of one to three nodes. At 8 shards the target weight is 2,
/// so every chain is a minimal candidate and candidates outnumber shards
/// at several depths: the case the postorder tie rule decides.
fn arb_chains_on_a_skeleton() -> impl Strategy<Value = TaskTree> {
    (1usize..4, 9usize..11)
        .prop_flat_map(|(k, chains)| {
            let skeleton = (1..k).map(|i| 0..i).collect::<Vec<_>>();
            (skeleton, proptest::collection::vec(0..k, chains))
        })
        .prop_map(|(skeleton, hooks)| {
            let mut parents: Vec<Option<usize>> = vec![None];
            parents.extend(skeleton.into_iter().map(Some));
            for hook in hooks {
                parents.push(Some(hook));
                parents.push(Some(parents.len() - 1));
            }
            let specs: Vec<TaskSpec> = (0..parents.len() as u64)
                .map(|i| TaskSpec::new(1, 1 + i % 5, 1.0))
                .collect();
            TaskTree::from_parents(&parents, &specs).expect("generated tree is valid")
        })
}

proptest! {
    #[test]
    fn generated_trees_are_consistent(tree in arb_tree(64)) {
        check_consistency(&tree).unwrap();
    }

    #[test]
    fn postorder_is_topological_and_complete(tree in arb_tree(64)) {
        let po = postorder(&tree);
        tree.check_topological(&po).unwrap();
        prop_assert_eq!(po.len(), tree.len());
    }

    #[test]
    fn any_child_order_gives_valid_postorder(tree in arb_tree(48), seed in 0u64..1000) {
        // Pseudo-random child ranks derived from the seed.
        let rank: Vec<u64> = (0..tree.len() as u64)
            .map(|i| (i.wrapping_mul(seed.wrapping_add(0x9E3779B97F4A7C15))) ^ seed)
            .collect();
        let po = postorder_with_child_order(&tree, &rank);
        tree.check_topological(&po).unwrap();
    }

    /// The allocation-free traversal emits the sequence of the
    /// per-frame-`Vec` one it replaced; ranks drawn from a small range so
    /// ties (broken by id) are the common case.
    #[test]
    fn child_order_postorder_matches_reference(
        tree in arb_tree(64),
        seed in 0u64..1000,
        modulus in 1u64..6,
    ) {
        let rank: Vec<u64> = (0..tree.len() as u64)
            .map(|i| (i.wrapping_mul(seed.wrapping_add(0x9E3779B97F4A7C15)) >> 7) % modulus)
            .collect();
        prop_assert_eq!(
            postorder_with_child_order(&tree, &rank),
            reference::postorder_with_child_order(&tree, &rank)
        );
    }

    /// `sequential_peak` keeps no profile but reports the profile's peak,
    /// on any topological order (postorder or not).
    #[test]
    fn sequential_peak_equals_profile_peak(tree in arb_tree(64), seed in 0u64..1000) {
        for order in [postorder(&tree), random_topological(&tree, seed)] {
            prop_assert_eq!(
                sequential_peak(&tree, &order).unwrap(),
                sequential_profile(&tree, &order).unwrap().peak
            );
        }
        let mut reversed = postorder(&tree);
        reversed.reverse();
        prop_assert_eq!(
            sequential_peak(&tree, &reversed).is_err(),
            tree.len() > 1,
            "the order is still validated"
        );
    }

    /// A renumbered tree is the same tree under new names: node `k` is
    /// the old `seq[k]`, and the new ids follow the order.
    #[test]
    fn renumbered_is_an_isomorphic_relabelling(tree in arb_tree(64), seed in 0u64..1000) {
        let seq = random_topological(&tree, seed);
        let r = tree.renumbered(seq.clone()).unwrap();
        check_consistency(&r).unwrap();
        prop_assert_eq!(r.len(), tree.len());
        prop_assert_eq!(r.label(r.root()), tree.root());
        prop_assert_eq!(r.root().index(), tree.len() - 1, "the root is last in any order");
        for k in r.nodes() {
            let old = seq[k.index()];
            prop_assert_eq!(r.label(k), old);
            prop_assert_eq!(r.spec(k), tree.spec(old));
            prop_assert_eq!(r.parent(k).map(|p| r.label(p)), tree.parent(old));
            prop_assert!(r.parent(k).is_none_or(|p| p > k), "parent ids above children's");
            let mut children: Vec<NodeId> = r.children(k).iter().map(|&c| r.label(c)).collect();
            children.sort_unstable();
            prop_assert_eq!(&children[..], tree.children(old));
            prop_assert!(r.children(k).windows(2).all(|w| w[0] < w[1]), "children id-sorted");
        }
        // Ids are topological now, so the identity order is one.
        let identity: Vec<NodeId> = r.nodes().collect();
        r.check_topological(&identity).unwrap();
        // An ordinary tree is its own labelling.
        prop_assert!(tree.nodes().all(|i| tree.label(i) == i));
    }

    /// Labels always name the ids of the tree the first renumbering
    /// started from.
    #[test]
    fn renumbered_labels_compose(tree in arb_tree(48), seed in 0u64..1000) {
        let first = random_topological(&tree, seed);
        let once = tree.renumbered(first.clone()).unwrap();
        let second = random_topological(&once, seed ^ 0xABCD);
        let twice = once.renumbered(second.clone()).unwrap();
        for k in twice.nodes() {
            prop_assert_eq!(twice.label(k), first[second[k.index()].index()]);
            prop_assert_eq!(twice.spec(k), tree.spec(twice.label(k)));
        }
        // Renumbering along the identity changes nothing but stays labelled.
        let identity: Vec<NodeId> = once.nodes().collect();
        prop_assert_eq!(&once.renumbered(identity).unwrap(), &once);
    }

    /// Anything but a topological permutation is refused.
    #[test]
    fn renumbered_rejects_bad_sequences(tree in arb_tree(48), seed in 0u64..1000) {
        let seq = random_topological(&tree, seed);
        if tree.len() > 1 {
            // Move some non-root node's parent in front of it.
            let child = seq[(seed as usize) % (tree.len() - 1)];
            let parent = tree.parent(child).expect("only the last entry is the root");
            let mut early: Vec<NodeId> = vec![parent];
            early.extend(seq.iter().copied().filter(|&i| i != parent));
            prop_assert!(matches!(
                tree.renumbered(early),
                Err(TreeError::NotTopological { .. })
            ));
            let mut repeated = seq.clone();
            repeated[0] = repeated[1];
            prop_assert!(matches!(
                tree.renumbered(repeated),
                Err(TreeError::BadPermutation { .. })
            ));
        }
        let short = &seq[1..];
        prop_assert!(matches!(
            tree.renumbered(short),
            Err(TreeError::BadPermutation { .. })
        ));
        let mut out_of_range = seq.clone();
        out_of_range[0] = NodeId::from_index(tree.len());
        prop_assert!(matches!(
            tree.renumbered(out_of_range),
            Err(TreeError::BadPermutation { .. })
        ));
    }

    #[test]
    fn io_roundtrip(tree in arb_tree(48)) {
        let text = tree_to_string(&tree);
        let back = tree_from_str(&text).unwrap();
        prop_assert_eq!(tree, back);
    }

    #[test]
    fn io_roundtrip_is_content_hash_equal(tree in arb_tree(48)) {
        // The wire guarantee the process backend leans on: a subtree
        // serialized to a worker is, as a scheduling problem, the
        // identical tree — pinned by the canonical content hash, not
        // just structural equality.
        let text = tree_to_string(&tree);
        let back = tree_from_str(&text).unwrap();
        prop_assert_eq!(tree.content_hash(), back.content_hash());
    }

    #[test]
    fn io_rejects_trailing_garbage(tree in arb_tree(32), garbage in arb_garbage()) {
        // Strictness: any data line after the declared node count is a
        // parse error, whatever it says.
        let text = format!("{}{garbage}\n", tree_to_string(&tree));
        prop_assert!(tree_from_str(&text).is_err());
    }

    #[test]
    fn io_rejects_concatenated_documents(tree in arb_tree(24)) {
        // Two valid documents back to back must not silently parse as
        // the first: across a pipe that would swallow a framing bug.
        let text = tree_to_string(&tree);
        prop_assert!(tree_from_str(&format!("{text}{text}")).is_err());
    }

    #[test]
    fn sequential_peak_bounded(tree in arb_tree(48)) {
        // The sequential peak of any postorder is at least the largest
        // MemNeeded and at most the total data footprint.
        let po = postorder(&tree);
        let peak = sequential_peak(&tree, &po).unwrap();
        let max_needed = tree.nodes().map(|i| tree.mem_needed(i)).max().unwrap();
        let everything: u64 = tree
            .nodes()
            .map(|i| tree.exec(i) + tree.output(i))
            .sum();
        prop_assert!(peak >= max_needed);
        prop_assert!(peak <= everything.max(max_needed));
    }

    #[test]
    fn live_set_matches_profile(tree in arb_tree(48)) {
        // Driving the LiveSet in postorder, current() right after start(i)
        // must equal the step's `during` from the profile.
        let po = postorder(&tree);
        let profile = sequential_profile(&tree, &po).unwrap();
        let mut ls = LiveSet::new(&tree);
        for step in &profile.steps {
            ls.start(step.node);
            prop_assert_eq!(ls.current(), step.during);
            ls.finish(step.node);
            prop_assert_eq!(ls.current(), step.after);
        }
        prop_assert_eq!(ls.peak(), profile.peak);
    }

    #[test]
    fn stats_are_internally_consistent(tree in arb_tree(64)) {
        let s = TreeStats::compute(&tree);
        let root = tree.root().index();
        prop_assert_eq!(s.subtree_size[root] as usize, tree.len());
        prop_assert!((s.subtree_time[root] - tree.total_time()).abs() < 1e-9);
        // Critical path ≤ total time; bottom level of any node ≤ critical path.
        let cp = s.critical_path(&tree);
        prop_assert!(cp <= tree.total_time() + 1e-9);
        for i in tree.nodes() {
            prop_assert!(s.bottom_level[i.index()] <= cp + 1e-9);
        }
        // Height equals max depth.
        let maxd = s.depth.iter().copied().max().unwrap();
        prop_assert_eq!(s.height, maxd);
    }

    /// The id sweeps compute what the walks they replaced computed, bit for
    /// bit, with parents numbered above, below, or on either side of their
    /// children.
    #[test]
    fn sweeps_match_the_walks_on_every_id_layout(tree in arb_tree(64), seed in 0u64..1000) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for t in id_layouts(&tree, seed) {
            let sweep: Vec<NodeId> = t.children_first().collect();
            t.check_topological(&sweep).unwrap();
            let (s, r) = (TreeStats::compute(&t), reference::stats(&t));
            prop_assert_eq!(&s.depth, &r.depth);
            prop_assert_eq!(&s.subtree_size, &r.subtree_size);
            prop_assert_eq!(bits(&s.subtree_time), bits(&r.subtree_time));
            prop_assert_eq!(bits(&s.subtree_cp), bits(&r.subtree_cp));
            prop_assert_eq!(bits(&s.bottom_level), bits(&r.bottom_level));
            prop_assert_eq!((s.height, s.max_degree), (r.height, r.max_degree));
            prop_assert_eq!(depths(&t), r.depth);
            prop_assert_eq!(postorder(&t), reference::postorder(&t));
            let rank: Vec<u64> = t.nodes().map(|i| (i.0 as u64 * 7 + seed) % 3).collect();
            prop_assert_eq!(
                postorder_with_child_order(&t, &rank),
                reference::postorder_with_child_order(&t, &rank)
            );
        }
    }

    #[test]
    fn ancestor_relation_matches_depth(tree in arb_tree(48)) {
        let s = TreeStats::compute(&tree);
        for i in tree.nodes() {
            if let Some(p) = tree.parent(i) {
                prop_assert!(tree.is_ancestor(p, i));
                prop_assert_eq!(s.depth[i.index()], s.depth[p.index()] + 1);
            }
        }
    }

    /// Every node lands in exactly one shard or the residual tree, the
    /// parts tile the tree, and shards are whole (downward-closed)
    /// subtrees.
    #[test]
    fn partition_assigns_every_node_exactly_once(
        tree in arb_tree(64),
        shards in 1usize..10,
    ) {
        let part = partition(&tree, &PartitionPolicy::balanced(shards));
        prop_assert!(part.shard_count() <= shards);
        prop_assert_eq!(part.assignment.len(), tree.len());

        // The assignment is the authoritative "exactly one home"; the
        // extracted parts must tile it exactly.
        let mut homes = vec![0usize; tree.len()];
        for (k, shard) in part.shards.iter().enumerate() {
            prop_assert_eq!(shard.tree.len(), shard.to_global.len());
            for (local, &g) in shard.to_global.iter().enumerate() {
                prop_assert_eq!(part.assignment[g.index()], k as u32);
                homes[g.index()] += 1;
                // Specs carried over verbatim.
                prop_assert_eq!(
                    shard.tree.spec(NodeId::from_index(local)),
                    tree.spec(g)
                );
            }
        }
        let mut proxies = 0usize;
        for (local, origin) in part.residual.origin.iter().enumerate() {
            match origin {
                Some(g) => {
                    prop_assert_eq!(part.assignment[g.index()], RESIDUAL);
                    homes[g.index()] += 1;
                    prop_assert_eq!(
                        part.residual.tree.spec(NodeId::from_index(local)),
                        tree.spec(*g)
                    );
                }
                None => proxies += 1,
            }
        }
        prop_assert!(homes.iter().all(|&h| h == 1), "a node has two homes");
        prop_assert_eq!(proxies, part.shard_count());

        // Downward closure: a shard node's children share its shard.
        for i in tree.nodes() {
            let s = part.assignment[i.index()];
            if s != RESIDUAL {
                for &c in tree.children(i) {
                    prop_assert_eq!(part.assignment[c.index()], s);
                }
            }
        }
    }

    /// Shard roots' parents are in the residual tree, and each proxy leaf
    /// mirrors its shard root's output under that parent.
    #[test]
    fn shard_frontiers_sit_on_the_residual_tree(
        tree in arb_tree(64),
        shards in 1usize..10,
    ) {
        let part = partition(&tree, &PartitionPolicy::balanced(shards));
        for (k, shard) in part.shards.iter().enumerate() {
            let root = shard.root_global();
            prop_assert_eq!(tree.parent(root), Some(shard.attach));
            prop_assert_eq!(part.assignment[shard.attach.index()], RESIDUAL);

            let proxy = part.residual.proxies[k];
            prop_assert!(part.residual.tree.is_leaf(proxy));
            prop_assert_eq!(part.residual.tree.output(proxy), tree.output(root));
            prop_assert_eq!(part.residual.tree.exec(proxy), 0);
            prop_assert_eq!(part.residual.tree.time(proxy), 0.0);
            let attach_local = part
                .residual
                .tree
                .parent(proxy)
                .expect("proxies are never the residual root");
            prop_assert_eq!(
                part.residual.origin[attach_local.index()],
                Some(shard.attach)
            );
        }
    }

    /// The sweeps cut what the postorder walk cut and build the parts it
    /// built, with parents numbered above, below, or on either side of
    /// their children.
    #[test]
    fn partition_matches_the_walk_on_every_id_layout(tree in arb_tree(64), seed in 0u64..1000) {
        for t in id_layouts(&tree, seed) {
            for shards in [1, 2, 3, 4, 8] {
                assert_same_partition(&t, shards);
            }
        }
    }

    /// Where candidates outnumber shards, the sweeps pick the shards the
    /// walk picked, whatever the ids of the candidates.
    #[test]
    fn partition_ties_match_the_walk(tree in arb_chains_on_a_skeleton(), seed in 0u64..1000) {
        for t in id_layouts(&tree, seed) {
            prop_assert_eq!(partition(&t, &PartitionPolicy::balanced(8)).shard_count(), 8);
            assert_same_partition(&t, 8);
        }
    }

    /// Comments and blank lines anywhere in a document change nothing.
    #[test]
    fn io_roundtrip_ignores_interleaved_comments(tree in arb_tree(48), seed in 0u64..1000) {
        let mut draw = SplitMix(seed);
        let mut text = String::new();
        for line in tree_to_string(&tree).lines() {
            match draw.below(4) {
                0 => text.push('\n'),
                1 => text.push_str("# interleaved comment\n"),
                2 => text.push_str("   \n  # indented\n"),
                _ => {}
            }
            text.push_str(line);
            text.push('\n');
        }
        let back = tree_from_str(&text).unwrap();
        prop_assert_eq!(back.content_hash(), tree.content_hash());
    }

    /// Re-stitching the parts rebuilds the original tree, hash-equal —
    /// the partition loses nothing and is canonical.
    #[test]
    fn restitched_partition_hash_equals_the_original(
        tree in arb_tree(64),
        shards in 1usize..10,
    ) {
        let part = partition(&tree, &PartitionPolicy::balanced(shards));
        prop_assert_eq!(part.stitch().content_hash(), tree.content_hash());
        // Determinism: partitioning again yields hash-identical parts.
        let again = partition(&tree, &PartitionPolicy::balanced(shards));
        prop_assert_eq!(&part.assignment, &again.assignment);
        for (a, b) in part.shards.iter().zip(&again.shards) {
            prop_assert_eq!(a.tree.content_hash(), b.tree.content_hash());
        }
        prop_assert_eq!(
            part.residual.tree.content_hash(),
            again.residual.tree.content_hash()
        );
    }
}

/// `partition` and its walk-based reference agree part for part.
fn assert_same_partition(tree: &TaskTree, shards: usize) {
    let policy = PartitionPolicy::balanced(shards);
    let (got, want) = (
        partition(tree, &policy),
        partition_reference::partition(tree, &policy),
    );
    assert_eq!(got.assignment, want.assignment, "{shards} shards");
    assert_eq!(got.shard_count(), want.shard_count(), "{shards} shards");
    for (a, b) in got.shards.iter().zip(&want.shards) {
        assert_eq!(a.to_global, b.to_global, "{shards} shards");
        assert_eq!(a.attach, b.attach, "{shards} shards");
        assert_eq!(a.tree.content_hash(), b.tree.content_hash());
        assert_eq!(a.tree, b.tree, "{shards} shards");
    }
    let (a, b) = (&got.residual, &want.residual);
    assert_eq!(a.origin, b.origin, "{shards} shards");
    assert_eq!(a.proxies, b.proxies, "{shards} shards");
    assert_eq!(a.tree.content_hash(), b.tree.content_hash());
    assert_eq!(a.tree, b.tree, "{shards} shards");
}

/// Four chains of ten under one root: with `shards` < 4, every chain is a
/// minimal candidate and postorder picks which ones become shards.
#[test]
fn partition_breaks_candidate_ties_in_postorder() {
    let mut parents: Vec<Option<usize>> = vec![None];
    let mut specs = vec![TaskSpec::new(1, 2, 1.0)];
    for _ in 0..4 {
        let mut prev = 0;
        for k in 0..10u64 {
            parents.push(Some(prev));
            specs.push(TaskSpec::new(1, 2 + k, 1.0));
            prev = parents.len() - 1;
        }
    }
    let star = TaskTree::from_parents(&parents, &specs).unwrap();
    for t in id_layouts(&star, 7) {
        for shards in [1, 2] {
            assert_eq!(
                partition(&t, &PartitionPolicy::balanced(shards)).shard_count(),
                shards
            );
            assert_same_partition(&t, shards);
        }
    }
    assert_same_partition(&star, 1);
    assert_same_partition(&star, 2);
}

#[test]
fn node_id_is_small() {
    // The schedulers keep several per-node arrays of NodeId; 4 bytes each.
    assert_eq!(std::mem::size_of::<NodeId>(), 4);
}
