//! The optimised MemBooking engine (Appendix B, Algorithms 5–6).

use super::BBS_UNSET;
use crate::activation::check_feasible;
use crate::error::SchedError;
use crate::readyset::RankQueue;
use memtree_order::Order;
use memtree_sim::Scheduler;
use memtree_tree::{NodeId, TaskTree};

/// MemBooking with the Appendix-B data structures:
///
/// * `CAND` — the candidates for activation, as the AO position of the
///   next node to activate (see below);
/// * `ACTf` — rank queue keyed by EO rank (activated nodes whose children
///   all finished, i.e. the runnable pool);
/// * `ChNotFin` — per-node counters of children not yet finished;
/// * `Booked` / `BookedBySubtree` — the booking ledgers, with
///   `BookedBySubtree` materialised lazily (the paper's `-1` sentinel).
///
/// The Appendix prescribes binary heaps for `CAND`/`ACTf`. `ACTf` is keyed
/// by ranks of a dense order, so a [`RankQueue`] (hierarchical bitset,
/// O(1) insert / amortised-O(1) pop, zero steady-state allocations) pops
/// it in the identical order — pinned by the determinism regression
/// suite. `CAND` needs no queue at all: every node's children come before
/// it in AO, so once the nodes activated so far are a prefix of AO, the
/// next node of AO has every child activated and is the smallest
/// candidate; activating it extends the prefix (Lemma 1: activation
/// follows AO). `CAND`'s minimum is therefore one cursor into AO, and the
/// `ChNotAct` counters that feed the heap, and an `activated` flag
/// (`rank < cursor`), are not stored.
pub struct MemBooking<'a> {
    tree: &'a TaskTree,
    ao: &'a Order,
    eo: &'a Order,
    memory: u64,
    mem_needed: Vec<u64>,
    booked: Vec<u64>,
    bbs: Vec<u64>,
    ch_not_fin: Vec<u32>,
    mbooked: u64,
    /// AO position of the next node to activate: `CAND`'s minimum.
    next_ao: usize,
    actf: RankQueue,
}

impl<'a> MemBooking<'a> {
    /// Builds the scheduler, checking the Theorem-1 feasibility condition
    /// `M ≥ peak(AO)`.
    pub fn try_new(
        tree: &'a TaskTree,
        ao: &'a Order,
        eo: &'a Order,
        memory: u64,
    ) -> Result<Self, SchedError> {
        Self::with_floor(tree, ao, eo, memory, None)
    }

    /// [`MemBooking::try_new`], given `peak(AO)` when the caller carries
    /// it.
    pub(crate) fn with_floor(
        tree: &'a TaskTree,
        ao: &'a Order,
        eo: &'a Order,
        memory: u64,
        floor: Option<u64>,
    ) -> Result<Self, SchedError> {
        check_feasible(tree, ao, eo, memory, floor)?;
        let n = tree.len();
        // `MemNeeded` and the child counts from one pass over the parent
        // array: every node adds its output and itself to its parent's.
        let mut mem_needed: Vec<u64> = tree
            .nodes()
            .map(|i| tree.exec(i) + tree.output(i))
            .collect();
        let mut ch_not_fin = vec![0u32; n];
        for i in tree.nodes() {
            if let Some(p) = tree.parent(i) {
                mem_needed[p.index()] += tree.output(i);
                ch_not_fin[p.index()] += 1;
            }
        }
        Ok(MemBooking {
            tree,
            ao,
            eo,
            memory,
            mem_needed,
            booked: vec![0; n],
            bbs: vec![BBS_UNSET; n],
            ch_not_fin,
            mbooked: 0,
            next_ao: 0,
            actf: RankQueue::with_universe(n),
        })
    }

    /// Algorithm 6, lines 4–17: release the memory of a finished node and
    /// dispatch it to ancestors As Late As Possible.
    fn dispatch_memory(&mut self, j: NodeId) {
        let jx = j.index();
        let mut b = self.booked[jx];
        debug_assert_eq!(
            b, self.mem_needed[jx],
            "Lemma 5: a running node holds exactly MemNeeded"
        );
        self.booked[jx] = 0;
        self.mbooked -= b;
        self.bbs[jx] = 0;

        let Some(parent) = self.tree.parent(j) else {
            // Root completion: its output outlives the schedule; keep it
            // booked so `actual ≤ booked` holds at the final event.
            let f = self.tree.output(j);
            self.booked[jx] = f;
            self.mbooked += f;
            return;
        };

        // The output f_j migrates into the parent's booking.
        let px = parent.index();
        self.ch_not_fin[px] -= 1;
        if self.ch_not_fin[px] == 0 && self.activated(parent) {
            self.actf.insert(self.eo.rank(parent));
        }
        let fj = self.tree.output(j);
        self.booked[px] += fj;
        self.mbooked += fj;
        b -= fj;

        // Walk up while the ancestor's BookedBySubtree is materialised,
        // leaving at each level only what later completions cannot supply.
        let mut cur = Some(parent);
        while let Some(i) = cur {
            if b == 0 || self.bbs[i.index()] == BBS_UNSET {
                break;
            }
            let ix = i.index();
            debug_assert!(
                self.bbs[ix] >= b,
                "subtree booking must include the in-flight B"
            );
            let shortfall = self.mem_needed[ix].saturating_sub(self.bbs[ix] - b);
            let c = b.min(shortfall);
            self.booked[ix] += c;
            self.mbooked += c;
            self.bbs[ix] -= b - c;
            b -= c;
            cur = self.tree.parent(i);
        }
        // Leftover `b` is simply released (already subtracted from
        // `mbooked` up front).
    }

    /// Whether `i` is activated: the activated nodes are a prefix of AO.
    #[inline]
    fn activated(&self, i: NodeId) -> bool {
        (self.ao.rank(i) as usize) < self.next_ao
    }

    /// Algorithm 6, lines 18–30: activate candidates in AO order while the
    /// missing memory fits.
    fn update_cand_act(&mut self) {
        while self.next_ao < self.ao.len() {
            let i = self.ao.at(self.next_ao);
            let ix = i.index();
            debug_assert!(
                self.tree.children(i).iter().all(|&c| self.activated(c)),
                "the next node of AO is a candidate"
            );
            if self.bbs[ix] == BBS_UNSET {
                let children_sum: u64 = self
                    .tree
                    .children(i)
                    .iter()
                    .map(|c| self.bbs[c.index()])
                    .sum();
                self.bbs[ix] = self.booked[ix] + children_sum;
            }
            let missing = self.mem_needed[ix].saturating_sub(self.bbs[ix]);
            if self.mbooked + missing > self.memory {
                return; // WaitForMoreMem
            }
            self.next_ao += 1;
            self.booked[ix] += missing;
            self.mbooked += missing;
            self.bbs[ix] += missing;
            debug_assert!(self.bbs[ix] >= self.mem_needed[ix]);
            debug_assert_eq!(
                self.bbs[ix],
                self.booked[ix]
                    + self
                        .tree
                        .children(i)
                        .iter()
                        .map(|c| self.bbs[c.index()])
                        .sum::<u64>(),
                "Lemma 3(3): BookedBySubtree must equal Booked plus children's"
            );
            if self.ch_not_fin[ix] == 0 {
                self.actf.insert(self.eo.rank(i));
            }
        }
    }
}

impl Scheduler for MemBooking<'_> {
    fn name(&self) -> &str {
        "MemBooking"
    }

    fn on_event(&mut self, finished: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>) {
        for &j in finished {
            self.dispatch_memory(j);
        }
        self.update_cand_act();
        while to_start.len() < idle {
            let Some(rank) = self.actf.pop_min() else {
                break;
            };
            let i = self.eo.at(rank as usize);
            debug_assert_eq!(
                self.booked[i.index()],
                self.mem_needed[i.index()],
                "Lemma 5: booked must equal MemNeeded when a node starts"
            );
            to_start.push((i, 1));
        }
    }

    fn booked(&self) -> u64 {
        self.mbooked
    }
}
