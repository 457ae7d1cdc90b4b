//! Test-side references shared by the `memtree_tree` and `memtree_order`
//! property suites (the latter includes this file by `#[path]`).

use memtree_tree::{NodeId, TaskTree};

/// `postorder_with_child_order` as it was before the allocation-free
/// rewrite: every stack frame owns a freshly sorted copy of its node's
/// children. The library version must produce the same sequence bit for
/// bit (stable sort, ties by id).
pub fn postorder_with_child_order(tree: &TaskTree, child_rank: &[u64]) -> Vec<NodeId> {
    assert_eq!(child_rank.len(), tree.len(), "one rank per node required");
    let mut out = Vec::with_capacity(tree.len());
    let mut stack: Vec<(NodeId, Vec<NodeId>, usize)> = Vec::new();
    let sorted_children = |n: NodeId| {
        let mut ch: Vec<NodeId> = tree.children(n).to_vec();
        ch.sort_by_key(|c| child_rank[c.index()]);
        ch
    };
    stack.push((tree.root(), sorted_children(tree.root()), 0));
    while let Some(&mut (node, ref ch, ref mut next)) = stack.last_mut() {
        if *next < ch.len() {
            let c = ch[*next];
            *next += 1;
            stack.push((c, sorted_children(c), 0));
        } else {
            out.push(node);
            stack.pop();
        }
    }
    out
}

/// A topological order of `tree` drawn from `seed`: repeatedly emits a
/// pseudo-randomly chosen node whose children have all been emitted. Not
/// a postorder in general.
pub fn random_topological(tree: &TaskTree, seed: u64) -> Vec<NodeId> {
    let mut pending: Vec<usize> = tree.nodes().map(|i| tree.degree(i)).collect();
    let mut ready: Vec<NodeId> = tree.leaves().collect();
    let mut out = Vec::with_capacity(tree.len());
    let mut state = seed;
    while !ready.is_empty() {
        // SplitMix64 step.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let pick = ((z ^ (z >> 31)) % ready.len() as u64) as usize;
        let i = ready.swap_remove(pick);
        out.push(i);
        if let Some(p) = tree.parent(i) {
            pending[p.index()] -= 1;
            if pending[p.index()] == 0 {
                ready.push(p);
            }
        }
    }
    out
}
