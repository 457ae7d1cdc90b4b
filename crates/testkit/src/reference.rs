//! The sequential passes as `memtree_tree` and `memtree_order` computed
//! them before they became id sweeps: explicit-stack depth-first walks
//! and `VecDeque` breadth-first walks in caller ids, and comparator
//! sorts. The libraries must reproduce every value and sequence bit for
//! bit, on any id layout.

use memtree_tree::{NodeId, TaskTree};
use std::collections::VecDeque;

/// Postorder with children in id order: an explicit-stack depth-first
/// walk from the root.
pub fn postorder(tree: &TaskTree) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(tree.len());
    let mut stack = vec![(tree.root(), 0usize)];
    while let Some(&mut (node, ref mut next)) = stack.last_mut() {
        if let Some(&c) = tree.children(node).get(*next) {
            *next += 1;
            stack.push((c, 0));
        } else {
            out.push(node);
            stack.pop();
        }
    }
    out
}

/// Breadth-first order from the root, children in id order.
pub fn bfs(tree: &TaskTree) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(tree.len());
    let mut queue = VecDeque::from([tree.root()]);
    while let Some(i) = queue.pop_front() {
        out.push(i);
        queue.extend(tree.children(i).iter().copied());
    }
    out
}

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

/// `TreeStats` as three walks computed it: depths and bottom levels
/// breadth-first, subtree totals and critical paths in postorder.
#[derive(Debug, PartialEq)]
pub struct Stats {
    /// Edges from the root.
    pub depth: Vec<u32>,
    /// Nodes in the subtree.
    pub subtree_size: Vec<u32>,
    /// Total time of the subtree.
    pub subtree_time: Vec<f64>,
    /// Critical path of the subtree, from its root down.
    pub subtree_cp: Vec<f64>,
    /// Time from the root down to the end of the node, inclusive.
    pub bottom_level: Vec<f64>,
    /// The largest depth.
    pub height: u32,
    /// The largest number of children.
    pub max_degree: u32,
}

/// [`Stats`] of `tree`.
pub fn stats(tree: &TaskTree) -> Stats {
    let n = tree.len();
    let mut depth = vec![0u32; n];
    let mut bottom_level = vec![0f64; n];
    for i in bfs(tree) {
        if let Some(p) = tree.parent(i) {
            depth[i.index()] = depth[p.index()] + 1;
        }
        let base = tree.parent(i).map_or(0.0, |p| bottom_level[p.index()]);
        bottom_level[i.index()] = base + tree.time(i);
    }
    let mut subtree_size = vec![1u32; n];
    let mut subtree_time = vec![0f64; n];
    let mut subtree_cp = vec![0f64; n];
    for i in postorder(tree) {
        let ix = i.index();
        subtree_time[ix] += tree.time(i);
        let mut best_child_cp = 0f64;
        for &c in tree.children(i) {
            subtree_size[ix] += subtree_size[c.index()];
            subtree_time[ix] += subtree_time[c.index()];
            best_child_cp = best_child_cp.max(subtree_cp[c.index()]);
        }
        subtree_cp[ix] = tree.time(i) + best_child_cp;
    }
    Stats {
        height: depth.iter().copied().max().unwrap_or(0),
        max_degree: tree
            .nodes()
            .map(|i| tree.degree(i) as u32)
            .max()
            .unwrap_or(0),
        depth,
        subtree_size,
        subtree_time,
        subtree_cp,
        bottom_level,
    }
}

/// Liu's `P(i)` of every subtree, computed in postorder, and the memPO
/// sequence: the postorder expanding children by non-increasing `P − f`.
pub fn mem_postorder(tree: &TaskTree) -> (Vec<u64>, Vec<NodeId>) {
    let mut peaks = vec![0u64; tree.len()];
    for i in postorder(tree) {
        let mut children = tree.children(i).to_vec();
        children.sort_by_key(|&c| std::cmp::Reverse(peaks[c.index()] - tree.output(c)));
        let (mut outputs, mut peak) = (0u64, 0u64);
        for c in children {
            peak = peak.max(outputs + peaks[c.index()]);
            outputs += tree.output(c);
        }
        peaks[i.index()] = peak.max(outputs + tree.exec(i) + tree.output(i));
    }
    let rank: Vec<u64> = tree
        .nodes()
        .map(|i| u64::MAX - (peaks[i.index()] - tree.output(i)))
        .collect();
    let seq = postorder_with_child_order(tree, &rank);
    (peaks, seq)
}

/// CP: a comparator sort by bottom level (larger first), then depth
/// (deeper first), then id.
pub fn cp_order(tree: &TaskTree) -> Vec<NodeId> {
    let s = stats(tree);
    let mut seq: Vec<NodeId> = tree.nodes().collect();
    seq.sort_by(|&a, &b| {
        let (ia, ib) = (a.index(), b.index());
        s.bottom_level[ib]
            .partial_cmp(&s.bottom_level[ia])
            .unwrap()
            .then(s.depth[ib].cmp(&s.depth[ia]))
            .then(a.cmp(&b))
    });
    seq
}

/// perfPO: children by non-increasing subtree critical path.
pub fn perf_postorder(tree: &TaskTree) -> Vec<NodeId> {
    let s = stats(tree);
    let rank: Vec<u64> = s
        .subtree_cp
        .iter()
        .map(|cp| u64::MAX - cp.to_bits())
        .collect();
    postorder_with_child_order(tree, &rank)
}

/// avgMemPO: children by non-increasing `T / f` (`f = 0` first).
pub fn avg_mem_postorder(tree: &TaskTree) -> Vec<NodeId> {
    let s = stats(tree);
    let rank: Vec<u64> = tree
        .nodes()
        .map(|i| {
            let (t, f) = (s.subtree_time[i.index()], tree.output(i));
            let ratio = if f == 0 { f64::INFINITY } else { t / f as f64 };
            u64::MAX - ratio.to_bits()
        })
        .collect();
    postorder_with_child_order(tree, &rank)
}

/// Liu's optimal sequential traversal as `memtree_order::optseq` computed
/// it over the postorder: hill–valley segments per subtree, merged by
/// non-increasing `hill − valley` and re-canonicalised. Returns the
/// sequence and its peak.
pub fn optimal_traversal(tree: &TaskTree) -> (Vec<NodeId>, u64) {
    struct Piece {
        hill: u64,
        valley: u64,
        nodes: Vec<NodeId>,
    }
    fn push_canonical(list: &mut Vec<Piece>, mut piece: Piece) {
        while let Some(top) = list.last() {
            if piece.valley > top.valley && piece.hill - piece.valley < top.hill - top.valley {
                break;
            }
            let mut top = list.pop().expect("just peeked");
            top.hill = top.hill.max(piece.hill);
            top.valley = piece.valley;
            top.nodes.append(&mut piece.nodes);
            piece = top;
        }
        list.push(piece);
    }
    let mut reprs: Vec<Option<Vec<Piece>>> = (0..tree.len()).map(|_| None).collect();
    for i in postorder(tree) {
        let mut rel: Vec<(u64, u64, Vec<NodeId>)> = Vec::new();
        let mut input_total = 0u64;
        for &c in tree.children(i) {
            let mut prev_valley = 0u64;
            for p in reprs[c.index()].take().expect("children first") {
                rel.push((p.hill - prev_valley, p.valley - prev_valley, p.nodes));
                prev_valley = p.valley;
            }
            input_total += tree.output(c);
        }
        rel.sort_by_key(|(dh, dv, _)| std::cmp::Reverse(dh - dv));
        let mut combined = Vec::with_capacity(rel.len() + 1);
        let mut base = 0u64;
        for (dh, dv, nodes) in rel {
            let piece = Piece {
                hill: base + dh,
                valley: base + dv,
                nodes,
            };
            base = piece.valley;
            push_canonical(&mut combined, piece);
        }
        push_canonical(
            &mut combined,
            Piece {
                hill: input_total + tree.exec(i) + tree.output(i),
                valley: tree.output(i),
                nodes: vec![i],
            },
        );
        reprs[i.index()] = Some(combined);
    }
    let root = reprs[tree.root().index()].take().expect("root processed");
    let peak = root.iter().map(|p| p.hill).max().unwrap_or(0);
    (root.into_iter().flat_map(|p| p.nodes).collect(), peak)
}
