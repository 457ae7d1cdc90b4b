//! The optimised MemBooking engine (Appendix B, Algorithms 5–6).

use super::BBS_UNSET;
use crate::activation::check_orders;
use crate::error::SchedError;
use crate::readyset::RankQueue;
use memtree_order::Order;
use memtree_sim::Scheduler;
use memtree_tree::{NodeId, TaskTree};

/// MemBooking with the Appendix-B data structures:
///
/// * `CAND` — rank queue keyed by AO rank (candidates for activation);
/// * `ACTf` — rank queue keyed by EO rank (activated nodes whose children
///   all finished, i.e. the runnable pool);
/// * `ChNotAct` / `ChNotFin` — per-node counters of children not yet
///   activated / finished;
/// * `Booked` / `BookedBySubtree` — the booking ledgers, with
///   `BookedBySubtree` materialised lazily (the paper's `-1` sentinel).
///
/// The Appendix prescribes binary heaps for `CAND`/`ACTf`; since both are
/// keyed by ranks of a dense order, a [`RankQueue`] (hierarchical bitset,
/// O(1) insert / amortised-O(1) pop, zero steady-state allocations) pops
/// in the identical order — pinned by the determinism regression suite.
pub struct MemBooking<'a> {
    tree: &'a TaskTree,
    ao: &'a Order,
    eo: &'a Order,
    memory: u64,
    mem_needed: Vec<u64>,
    booked: Vec<u64>,
    bbs: Vec<u64>,
    ch_not_act: Vec<u32>,
    ch_not_fin: Vec<u32>,
    activated: Vec<bool>,
    mbooked: u64,
    cand: RankQueue,
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
        check_orders(tree, ao, eo)?;
        let required = ao.sequential_peak(tree);
        if required > memory {
            return Err(SchedError::InfeasibleMemory {
                required,
                available: memory,
            });
        }
        let n = tree.len();
        let mut cand = RankQueue::with_universe(n);
        for l in tree.leaves() {
            cand.insert(ao.rank(l));
        }
        Ok(MemBooking {
            tree,
            ao,
            eo,
            memory,
            mem_needed: memtree_tree::memory::mem_needed_slice(tree),
            booked: vec![0; n],
            bbs: vec![BBS_UNSET; n],
            ch_not_act: tree.nodes().map(|i| tree.degree(i) as u32).collect(),
            ch_not_fin: tree.nodes().map(|i| tree.degree(i) as u32).collect(),
            activated: vec![false; n],
            mbooked: 0,
            cand,
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
        if self.ch_not_fin[px] == 0 && self.activated[px] {
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

    /// Algorithm 6, lines 18–30: activate candidates in AO order while the
    /// missing memory fits.
    fn update_cand_act(&mut self) {
        while let Some(rank) = self.cand.peek_min() {
            let i = self.ao.at(rank as usize);
            let ix = i.index();
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
            self.cand.pop_min();
            self.booked[ix] += missing;
            self.mbooked += missing;
            self.bbs[ix] += missing;
            self.activated[ix] = true;
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
            if let Some(p) = self.tree.parent(i) {
                self.ch_not_act[p.index()] -= 1;
                if self.ch_not_act[p.index()] == 0 {
                    // All children activated: the parent becomes a
                    // candidate. AO rank keying keeps Lemma 1's order.
                    self.cand.insert(self.ao.rank(p));
                }
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
