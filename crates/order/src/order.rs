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

/// A slot of a sequence under construction that no node has claimed.
const EMPTY: NodeId = NodeId(u32::MAX);

/// The error [`TaskTree::check_topological`] gives `seq`, for an input the
/// rank-form check has already rejected.
fn rejection(tree: &TaskTree, seq: &[NodeId]) -> TreeError {
    tree.check_topological(seq)
        .expect_err("the rank form rejects exactly what check_topological does")
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
    ///
    /// The rank table doubles as the permutation check — a repeated or
    /// out-of-range id finds its slot taken or missing — and topology is
    /// then one pass over the tree's parent array
    /// ([`TaskTree::ranks_children_first`]). Accepts and rejects exactly
    /// what [`TaskTree::check_topological`] does, with its errors.
    pub fn new(tree: &TaskTree, seq: Vec<NodeId>, kind: OrderKind) -> Result<Self, TreeError> {
        let mut rank = vec![u32::MAX; tree.len()];
        let permutation = seq.len() == tree.len()
            && seq
                .iter()
                .enumerate()
                .all(|(k, &i)| match rank.get_mut(i.index()) {
                    Some(slot) if *slot == u32::MAX => {
                        *slot = k as u32;
                        true
                    }
                    _ => false,
                });
        if !permutation || !tree.ranks_children_first(Some(&rank)) {
            return Err(rejection(tree, &seq));
        }
        Ok(Order {
            seq: seq.into(),
            rank: Some(rank),
            kind,
        })
    }

    /// Wraps and validates the order whose position of node `i` is
    /// `rank[i]`, keeping `rank` as the lookup table. Validated like
    /// [`Order::new`]: a repeated rank leaves a position empty, and an
    /// out-of-range one is refused on the spot.
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
        // Slots no rank names keep an out-of-range id, which is what
        // `check_topological` reports for a table that is not a
        // permutation. Filled in place: the shared slice is the only
        // n-sized allocation.
        let mut seq: Arc<[NodeId]> = std::iter::repeat_n(EMPTY, rank.len()).collect();
        let slots = Arc::get_mut(&mut seq).expect("not shared yet");
        let mut permutation = true;
        for (i, &r) in rank.iter().enumerate() {
            let slot = slots.get_mut(r as usize).ok_or_else(bad)?;
            permutation &= *slot == EMPTY;
            *slot = NodeId::from_index(i);
        }
        if !permutation || !tree.ranks_children_first(Some(&rank)) {
            return Err(rejection(tree, &seq));
        }
        Ok(Order {
            seq,
            rank: Some(rank),
            kind,
        })
    }

    /// The order `0, 1, …, n − 1` of a tree whose ids already are
    /// topological (every parent id above its children's, as after
    /// [`TaskTree::renumbered`]). It stores no rank array: a node's rank
    /// is its id, and the check is `i < parent(i)`.
    pub fn identity(tree: &TaskTree, kind: OrderKind) -> Result<Self, TreeError> {
        let seq: Arc<[NodeId]> = tree.nodes().collect();
        if !tree.ranks_children_first(None) {
            return Err(rejection(tree, &seq));
        }
        Ok(Order {
            seq,
            rank: None,
            kind,
        })
    }

    /// Whether this is an order of `tree`: the same length, and every
    /// node ranked below its parent there — the check construction ran,
    /// against another tree. `Ok` exactly when
    /// [`TaskTree::check_topological`] accepts [`Order::sequence`], and
    /// the same error when not.
    pub fn check_tree(&self, tree: &TaskTree) -> Result<(), TreeError> {
        // The sequence is a permutation of `0..len()`, so once the lengths
        // agree the rank form decides.
        if self.len() != tree.len() || !tree.ranks_children_first(self.rank.as_deref()) {
            return Err(rejection(tree, &self.seq));
        }
        Ok(())
    }

    /// `tree` laid out along this order: [`TaskTree::renumbered`] with
    /// node `at(k)` renamed `k`, reading the inverse permutation off the
    /// rank table instead of rebuilding it.
    ///
    /// # Errors
    /// As `renumbered`, when this is not an order of `tree`.
    pub fn layout(&self, tree: &TaskTree) -> Result<TaskTree, TreeError> {
        match &self.rank {
            Some(rank) => tree.renumbered_by_rank(self.seq.clone(), rank),
            None => tree.renumbered(self.seq.clone()),
        }
    }

    /// The sequence, children always before parents.
    #[inline]
    pub fn sequence(&self) -> &[NodeId] {
        &self.seq
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
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

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

    /// A kit tree and a random topological order of it, from per-node
    /// priorities.
    fn tree_and_order(max_n: usize) -> impl Strategy<Value = (TaskTree, Vec<NodeId>)> {
        memtree_testkit::arb_tree(max_n)
            .prop_flat_map(|tree| {
                let keys = proptest::collection::vec(0u32..1_000, tree.len());
                (Just(tree), keys)
            })
            .prop_map(|(tree, keys)| {
                // Kahn's algorithm, the smallest key among the ready first.
                let mut left: Vec<usize> = tree.nodes().map(|i| tree.degree(i)).collect();
                let mut ready: BinaryHeap<_> = tree
                    .leaves()
                    .map(|i| Reverse((keys[i.index()], i)))
                    .collect();
                let mut seq = Vec::with_capacity(tree.len());
                while let Some(Reverse((_, i))) = ready.pop() {
                    seq.push(i);
                    if let Some(p) = tree.parent(i) {
                        left[p.index()] -= 1;
                        if left[p.index()] == 0 {
                            ready.push(Reverse((keys[p.index()], p)));
                        }
                    }
                }
                (tree, seq)
            })
    }

    /// `from_ranks`'s contract in sequence form: an out-of-range rank is
    /// refused on the spot; any other table gets `check_topological`'s
    /// verdict on the sequence it fills, holes left out of range.
    fn ranks_by_sequence(tree: &TaskTree, rank: &[u32]) -> Result<(), TreeError> {
        let n = tree.len();
        if rank.len() != n || rank.iter().any(|&r| r as usize >= n) {
            return Err(TreeError::BadPermutation {
                expected: n,
                got: rank.len(),
            });
        }
        let mut seq = vec![EMPTY; n];
        for (i, &r) in rank.iter().enumerate() {
            seq[r as usize] = NodeId::from_index(i);
        }
        tree.check_topological(&seq)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The rank-form check is `check_topological`: the same verdict,
        /// error and all, through `new`, `from_ranks`, `identity` and
        /// `check_tree`.
        #[test]
        fn the_rank_form_check_is_check_topological(
            case in tree_and_order(24),
            a in 0usize..24,
            b in 0usize..24,
            beyond in 0u32..3,
        ) {
            let (tree, seq) = case;
            let kind = OrderKind::NaturalPostorder;
            let n = tree.len();
            let (a, b) = (a % n, b % n);
            let checked = |seq: &[NodeId]| tree.check_topological(seq);
            let mut sequences = vec![seq.clone()];
            // One adjacent child/parent pair swapped.
            if let Some(k) = (0..n - 1).find(|&k| tree.parent(seq[k]) == Some(seq[k + 1])) {
                let mut swapped = seq.clone();
                swapped.swap(k, k + 1);
                sequences.push(swapped);
            }
            let mut duplicate = seq.clone();
            duplicate[a] = seq[b];
            sequences.push(duplicate);
            let mut out_of_range = seq.clone();
            out_of_range[a] = NodeId(n as u32 + beyond);
            sequences.push(out_of_range);
            sequences.push(seq[..n - 1].to_vec());
            sequences.push([&seq[..], &seq[a..=a]].concat());
            for s in &sequences {
                let got = Order::new(&tree, s.clone(), kind).map(|_| ());
                prop_assert_eq!(got, checked(s), "new({:?})", s);
            }

            // The same inputs as rank tables.
            let rank_of = |s: &[NodeId]| {
                let mut rank = vec![0u32; n];
                for (k, &i) in s.iter().enumerate() {
                    rank[i.index()] = k as u32;
                }
                rank
            };
            let rank = rank_of(&seq);
            let mut tables = vec![rank.clone()];
            if let Some(swapped) = sequences.get(1).filter(|s| s.len() == n && *s != &seq) {
                tables.push(rank_of(swapped));
            }
            let mut duplicate = rank.clone();
            duplicate[a] = rank[b];
            tables.push(duplicate);
            let mut out_of_range = rank.clone();
            out_of_range[a] = n as u32 + beyond;
            tables.push(out_of_range);
            tables.push(rank[..n - 1].to_vec());
            tables.push([&rank[..], &rank[a..=a]].concat());
            for r in &tables {
                let got = Order::from_ranks(&tree, r.clone(), kind).map(|_| ());
                prop_assert_eq!(got, ranks_by_sequence(&tree, r), "from_ranks({:?})", r);
            }

            // The identity: topological on the tree laid out along `seq`,
            // not on the tree itself unless it is a single node.
            let ids = |t: &TaskTree| t.nodes().collect::<Vec<_>>();
            let layout = tree.renumbered(seq.clone()).unwrap();
            for t in [&layout, &tree] {
                let got = Order::identity(t, kind).map(|_| ());
                prop_assert_eq!(got, t.check_topological(&ids(t)));
            }

            // An order checked against another tree of the same size.
            let order = Order::new(&tree, seq.clone(), kind).unwrap();
            let identity = Order::identity(&layout, kind).unwrap();
            prop_assert_eq!(order.check_tree(&layout), layout.check_topological(&seq));
            prop_assert_eq!(identity.check_tree(&tree), tree.check_topological(&ids(&tree)));
            prop_assert_eq!(order.check_tree(&tree), Ok(()));
            // `layout` reads the inverse off the rank table.
            prop_assert_eq!(order.layout(&tree).unwrap(), layout);
        }
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(OrderKind::MemPostorder.label(), "memPO");
        assert_eq!(OrderKind::OptSeq.to_string(), "OptSeq");
        assert_eq!(OrderKind::CriticalPath.label(), "CP");
        assert_eq!(OrderKind::PerfPostorder.label(), "perfPO");
    }
}
