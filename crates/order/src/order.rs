//! The [`Order`] type: a validated topological sequence plus rank lookup.

use memtree_tree::{NodeId, TaskTree, TreeError};
use std::sync::Arc;

/// Identifies which traversal strategy produced an [`Order`].
///
/// The names mirror Section 7.3.1 of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OrderKind {
    /// `memPO`: the peak-memory-minimising postorder (Liu 1986).
    MemPostorder,
    /// `OptSeq`: the optimal sequential traversal (Liu 1987).
    OptSeq,
    /// `CP`: non-increasing bottom level.
    CriticalPath,
    /// `perfPO`: postorder, largest-critical-path subtree first.
    PerfPostorder,
    /// Appendix A: the average-memory-minimising postorder.
    AvgMemPostorder,
    /// Plain id-ordered postorder (children in id order).
    NaturalPostorder,
}

impl OrderKind {
    /// The label used in the paper's plots.
    pub fn label(self) -> &'static str {
        match self {
            OrderKind::MemPostorder => "memPO",
            OrderKind::OptSeq => "OptSeq",
            OrderKind::CriticalPath => "CP",
            OrderKind::PerfPostorder => "perfPO",
            OrderKind::AvgMemPostorder => "avgMemPO",
            OrderKind::NaturalPostorder => "naturalPO",
        }
    }

    /// The inverse of [`OrderKind::label`] — `None` for an unknown label.
    /// Wire formats (the serialized `PolicySpec` a shard-worker process
    /// receives) round-trip order kinds through their labels.
    pub fn from_label(label: &str) -> Option<OrderKind> {
        [
            OrderKind::MemPostorder,
            OrderKind::OptSeq,
            OrderKind::CriticalPath,
            OrderKind::PerfPostorder,
            OrderKind::AvgMemPostorder,
            OrderKind::NaturalPostorder,
        ]
        .into_iter()
        .find(|k| k.label() == label)
    }
}

impl std::fmt::Display for OrderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A topological order of a task tree with O(1) rank lookup.
///
/// Used both as an activation order (`AO`, consumed front to back) and as an
/// execution priority (`EO`, smaller rank = higher priority).
#[derive(Clone, Debug)]
pub struct Order {
    seq: Arc<[NodeId]>,
    /// `rank[i]` is the position of node `i`; `None` for the identity
    /// order, where it is `i` itself.
    rank: Option<Vec<u32>>,
    kind: OrderKind,
}

impl Order {
    /// Wraps and validates a topological sequence.
    pub fn new(tree: &TaskTree, seq: Vec<NodeId>, kind: OrderKind) -> Result<Self, TreeError> {
        tree.check_topological(&seq)?;
        let mut rank = vec![0u32; seq.len()];
        for (k, &i) in seq.iter().enumerate() {
            rank[i.index()] = k as u32;
        }
        Ok(Order {
            seq: seq.into(),
            rank: Some(rank),
            kind,
        })
    }

    /// Wraps and validates the order whose position of node `i` is
    /// `rank[i]`, keeping `rank` as the lookup table.
    pub(crate) fn from_ranks(
        tree: &TaskTree,
        rank: Vec<u32>,
        kind: OrderKind,
    ) -> Result<Self, TreeError> {
        let bad = || TreeError::BadPermutation {
            expected: tree.len(),
            got: rank.len(),
        };
        if rank.len() != tree.len() {
            return Err(bad());
        }
        // Slots no rank names keep an out-of-range id, so a table that is
        // not a permutation fails the check below. Filled in place: the
        // shared slice is the only n-sized allocation.
        let mut seq: Arc<[NodeId]> = std::iter::repeat_n(NodeId(u32::MAX), rank.len()).collect();
        let slots = Arc::get_mut(&mut seq).expect("not shared yet");
        for (i, &r) in rank.iter().enumerate() {
            *slots.get_mut(r as usize).ok_or_else(bad)? = NodeId::from_index(i);
        }
        tree.check_topological(&seq)?;
        Ok(Order {
            seq,
            rank: Some(rank),
            kind,
        })
    }

    /// The order `0, 1, …, n − 1` of a tree whose ids already are
    /// topological (every parent id above its children's, as after
    /// [`TaskTree::renumbered`]). It stores no rank array: a node's rank
    /// is its id.
    pub fn identity(tree: &TaskTree, kind: OrderKind) -> Result<Self, TreeError> {
        let seq: Arc<[NodeId]> = tree.nodes().collect();
        tree.check_topological(&seq)?;
        Ok(Order {
            seq,
            rank: None,
            kind,
        })
    }

    /// The sequence, children always before parents.
    #[inline]
    pub fn sequence(&self) -> &[NodeId] {
        &self.seq
    }

    /// The sequence as a shared allocation, for holders that outlive the
    /// borrow (a tree renumbered along this order keeps it as its labels).
    pub fn shared_sequence(&self) -> Arc<[NodeId]> {
        self.seq.clone()
    }

    /// Position of `i` in the sequence (0 = first).
    #[inline]
    pub fn rank(&self, i: NodeId) -> u32 {
        match &self.rank {
            Some(rank) => rank[i.index()],
            None => i.0,
        }
    }

    /// The node at position `k`.
    #[inline]
    pub fn at(&self, k: usize) -> NodeId {
        self.seq[k]
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the order is empty (never true for built orders).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Which strategy produced this order.
    #[inline]
    pub fn kind(&self) -> OrderKind {
        self.kind
    }

    /// `true` if `a` has higher priority (smaller rank) than `b`.
    #[inline]
    pub fn before(&self, a: NodeId, b: NodeId) -> bool {
        self.rank(a) < self.rank(b)
    }

    /// The peak memory of executing this order sequentially.
    pub fn sequential_peak(&self, tree: &TaskTree) -> u64 {
        memtree_tree::memory::sequential_peak(tree, &self.seq)
            .expect("order was validated at construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_tree::{TaskSpec, TaskTree};

    fn tree() -> TaskTree {
        TaskTree::from_parents(
            &[None, Some(0), Some(0)],
            &[
                TaskSpec::new(0, 1, 1.0),
                TaskSpec::new(0, 2, 1.0),
                TaskSpec::new(0, 3, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn ranks_and_priorities() {
        let t = tree();
        let o = Order::new(
            &t,
            vec![NodeId(2), NodeId(1), NodeId(0)],
            OrderKind::NaturalPostorder,
        )
        .unwrap();
        assert_eq!(o.rank(NodeId(2)), 0);
        assert_eq!(o.rank(NodeId(0)), 2);
        assert!(o.before(NodeId(2), NodeId(1)));
        assert_eq!(o.at(1), NodeId(1));
        assert_eq!(o.len(), 3);
    }

    #[test]
    fn rejects_non_topological() {
        let t = tree();
        assert!(Order::new(
            &t,
            vec![NodeId(0), NodeId(1), NodeId(2)],
            OrderKind::NaturalPostorder
        )
        .is_err());
    }

    #[test]
    fn from_ranks_validates_like_new() {
        let t = tree();
        let kind = OrderKind::NaturalPostorder;
        let o = Order::from_ranks(&t, vec![2, 0, 1], kind).unwrap();
        assert_eq!(o.sequence(), &[NodeId(1), NodeId(2), NodeId(0)]);
        assert_eq!(o.rank(NodeId(0)), 2);
        // A repeated rank leaves a position empty, one past the end has
        // none, and the root first is not topological.
        for bad in [vec![2, 0, 0], vec![3, 0, 1], vec![0, 1, 2], vec![1, 0]] {
            assert!(Order::from_ranks(&t, bad.clone(), kind).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sequential_peak_delegates() {
        let t = tree();
        let o = Order::new(
            &t,
            vec![NodeId(1), NodeId(2), NodeId(0)],
            OrderKind::NaturalPostorder,
        )
        .unwrap();
        // 2 live, then 2+3 live, then 2+3+1 during the root.
        assert_eq!(o.sequential_peak(&t), 6);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(OrderKind::MemPostorder.label(), "memPO");
        assert_eq!(OrderKind::OptSeq.to_string(), "OptSeq");
        assert_eq!(OrderKind::CriticalPath.label(), "CP");
        assert_eq!(OrderKind::PerfPostorder.label(), "perfPO");
    }
}
