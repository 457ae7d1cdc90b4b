//! **`RankQueue`** — the amortised-O(1) ready set behind the list
//! schedulers (DESIGN.md §6.11).
//!
//! Activation, MemBooking and RedTree keep their runnable pools ordered
//! by EO *rank*. A rank is a position in an [`memtree_order::Order`]:
//! a dense permutation of `0..n`, unique per node. That makes a general
//! priority queue overkill — membership is a bit per rank, and "pop the
//! minimum" is "find the first set bit". `RankQueue` is that bitset,
//! with two summary levels so the scan skips 4096 ranks per word probe:
//!
//! * level 0 — one bit per rank (`words`);
//! * level 1 — one bit per level-0 word (`sum1`);
//! * level 2 — one bit per level-1 word (`sum2`), scanned from a cursor
//!   that only moves backward on inserts below it.
//!
//! `insert` is O(1). `pop_min`/`peek_min` find the lowest set bit via at
//! most three word probes after the cursor scan; the cursor makes the
//! scan amortised-O(1) under the schedulers' drain-roughly-in-rank-order
//! access pattern, and even the adversarial ping-pong pattern costs only
//! `n / 4096²` word probes per operation (one probe up to n ≈ 2²⁴).
//!
//! The schedulers map a popped rank back to its node through the order
//! (`order.at(rank)`), so the queue stores **no node ids at all**: three
//! bit levels, ~`n/8` bytes — against the binary heap's 8 bytes per
//! entry — and, crucially for the zero-allocation steady state, every
//! word is allocated up front at construction.
//!
//! Because ranks are unique and each scheduler inserts a node at most
//! once, pop order is **byte-identical** to the previous
//! `BinaryHeap<Reverse<(rank, NodeId)>>`: both pop strictly ascending
//! ranks (pinned by `crates/runtime/tests/determinism.rs`).

const BITS: usize = u64::BITS as usize;

/// A set of ranks from a dense universe `0..n`, popping in ascending
/// order. See the module docs for the level structure and cost model.
#[derive(Clone, Debug)]
pub struct RankQueue {
    /// Level 0: bit `r` set ⇔ rank `r` present.
    words: Vec<u64>,
    /// Level 1: bit `w` set ⇔ `words[w] != 0`.
    sum1: Vec<u64>,
    /// Level 2: bit `w` set ⇔ `sum1[w] != 0`.
    sum2: Vec<u64>,
    /// Lowest level-2 word that may be non-zero (monotone under pops,
    /// reset by inserts below it).
    cursor: usize,
    len: usize,
}

impl RankQueue {
    /// An empty queue over ranks `0..universe`. All storage is allocated
    /// here; no later operation allocates.
    pub fn with_universe(universe: usize) -> Self {
        let w0 = universe.div_ceil(BITS).max(1);
        let w1 = w0.div_ceil(BITS);
        let w2 = w1.div_ceil(BITS);
        RankQueue {
            words: vec![0; w0],
            sum1: vec![0; w1],
            sum2: vec![0; w2],
            cursor: 0,
            len: 0,
        }
    }

    /// Ranks currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `rank`. The caller guarantees each rank is inserted at
    /// most once while present (the schedulers insert each node at most
    /// once, ever).
    pub fn insert(&mut self, rank: u32) {
        let r = rank as usize;
        let w0 = r / BITS;
        debug_assert!(w0 < self.words.len(), "rank {rank} out of universe");
        debug_assert!(
            self.words[w0] & (1u64 << (r % BITS)) == 0,
            "rank {rank} inserted twice"
        );
        self.words[w0] |= 1u64 << (r % BITS);
        let w1 = w0 / BITS;
        self.sum1[w1] |= 1u64 << (w0 % BITS);
        let w2 = w1 / BITS;
        self.sum2[w2] |= 1u64 << (w1 % BITS);
        self.cursor = self.cursor.min(w2);
        self.len += 1;
    }

    /// The smallest queued rank, without removing it.
    pub fn peek_min(&self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mut w2 = self.cursor;
        while self.sum2[w2] == 0 {
            w2 += 1;
        }
        let w1 = w2 * BITS + self.sum2[w2].trailing_zeros() as usize;
        let w0 = w1 * BITS + self.sum1[w1].trailing_zeros() as usize;
        Some((w0 * BITS + self.words[w0].trailing_zeros() as usize) as u32)
    }

    /// Removes and returns the smallest queued rank.
    pub fn pop_min(&mut self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        while self.sum2[self.cursor] == 0 {
            self.cursor += 1;
        }
        let w2 = self.cursor;
        let w1 = w2 * BITS + self.sum2[w2].trailing_zeros() as usize;
        let w0 = w1 * BITS + self.sum1[w1].trailing_zeros() as usize;
        let bit = self.words[w0].trailing_zeros() as usize;
        self.words[w0] &= self.words[w0] - 1;
        if self.words[w0] == 0 {
            self.sum1[w1] &= self.sum1[w1] - 1;
            if self.sum1[w1] == 0 {
                self.sum2[w2] &= self.sum2[w2] - 1;
            }
        }
        self.len -= 1;
        Some((w0 * BITS + bit) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_ascending_rank_order() {
        let mut q = RankQueue::with_universe(1000);
        for r in [512u32, 3, 999, 64, 65, 0, 700] {
            q.insert(r);
        }
        assert_eq!(q.len(), 7);
        assert_eq!(q.peek_min(), Some(0));
        let mut out = Vec::new();
        while let Some(r) = q.pop_min() {
            out.push(r);
        }
        assert_eq!(out, vec![0, 3, 64, 65, 512, 700, 999]);
        assert!(q.is_empty());
        assert_eq!(q.pop_min(), None);
        assert_eq!(q.peek_min(), None);
    }

    #[test]
    fn reinsertion_below_the_cursor_is_found() {
        // Drain high ranks (cursor advances), then insert a low rank:
        // the cursor must retreat.
        let mut q = RankQueue::with_universe(1 << 16);
        q.insert(60_000);
        assert_eq!(q.pop_min(), Some(60_000));
        q.insert(1);
        assert_eq!(q.peek_min(), Some(1));
        assert_eq!(q.pop_min(), Some(1));
        assert_eq!(q.pop_min(), None);
    }

    #[test]
    fn tiny_universes_work() {
        let mut q = RankQueue::with_universe(1);
        q.insert(0);
        assert_eq!(q.pop_min(), Some(0));
        let mut q = RankQueue::with_universe(65);
        q.insert(64);
        q.insert(63);
        assert_eq!(q.pop_min(), Some(63));
        assert_eq!(q.pop_min(), Some(64));
    }

    /// Differential oracle: interleaved inserts/pops match
    /// `BinaryHeap<Reverse<u32>>` exactly — the structure the schedulers
    /// replaced.
    #[test]
    fn matches_binary_heap_under_interleaving() {
        // Deterministic xorshift so the test needs no rng dependency.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let universe = 4096usize;
        let mut q = RankQueue::with_universe(universe);
        let mut h: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
        let mut unused: Vec<u32> = (0..universe as u32).collect();
        for _ in 0..20_000 {
            let coin = next();
            if coin % 3 != 0 && !unused.is_empty() {
                // Insert a random not-yet-used rank (each at most once,
                // like the schedulers).
                let k = (next() % unused.len() as u64) as usize;
                let r = unused.swap_remove(k);
                q.insert(r);
                h.push(Reverse(r));
            } else {
                assert_eq!(q.peek_min(), h.peek().map(|&Reverse(r)| r));
                assert_eq!(q.pop_min(), h.pop().map(|Reverse(r)| r));
            }
            assert_eq!(q.len(), h.len());
        }
        while let Some(Reverse(r)) = h.pop() {
            assert_eq!(q.pop_min(), Some(r));
        }
        assert!(q.is_empty());
    }
}
