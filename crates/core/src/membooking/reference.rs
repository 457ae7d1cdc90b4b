//! The reference MemBooking engine — a literal transcription of
//! Algorithms 2–4 with explicit node states and linear scans.
//!
//! This is the executable specification: no heaps, no counters, no lazy
//! `BookedBySubtree` — candidates are found by scanning, availability by
//! re-checking children. Worst-case `O(n²·H)`; used by tests (equivalence
//! with [`super::MemBooking`]) and by the complexity ablation bench.

use crate::activation::check_feasible;
use crate::error::SchedError;
use memtree_order::Order;
use memtree_sim::Scheduler;
use memtree_tree::{NodeId, TaskTree};

/// The five node states of Section 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    /// Unprocessed: not yet considered (initial for interior nodes).
    Un,
    /// Candidate for activation (initial for leaves).
    Cand,
    /// Activated: enough memory booked in its subtree.
    Act,
    /// Running.
    Run,
    /// Finished.
    Fin,
}

/// Algorithms 2–4, verbatim semantics.
pub struct MemBookingRef<'a> {
    tree: &'a TaskTree,
    ao: &'a Order,
    eo: &'a Order,
    memory: u64,
    mem_needed: Vec<u64>,
    state: Vec<State>,
    booked: Vec<u64>,
    /// `BookedBySubtree`; only meaningful for `Act`/`Run` nodes (set at
    /// activation) and zeroed at completion.
    bbs: Vec<u64>,
    mbooked: u64,
}

impl<'a> MemBookingRef<'a> {
    /// Builds the scheduler, checking `M ≥ peak(AO)` (Theorem 1).
    pub fn try_new(
        tree: &'a TaskTree,
        ao: &'a Order,
        eo: &'a Order,
        memory: u64,
    ) -> Result<Self, SchedError> {
        Self::with_floor(tree, ao, eo, memory, None)
    }

    /// [`MemBookingRef::try_new`], given `peak(AO)` when the caller
    /// carries it.
    pub(crate) fn with_floor(
        tree: &'a TaskTree,
        ao: &'a Order,
        eo: &'a Order,
        memory: u64,
        floor: Option<u64>,
    ) -> Result<Self, SchedError> {
        check_feasible(tree, ao, eo, memory, floor)?;
        let n = tree.len();
        let state = tree
            .nodes()
            .map(|i| {
                if tree.is_leaf(i) {
                    State::Cand
                } else {
                    State::Un
                }
            })
            .collect();
        Ok(MemBookingRef {
            tree,
            ao,
            eo,
            memory,
            mem_needed: memtree_tree::memory::mem_needed_slice(tree),
            state,
            booked: vec![0; n],
            bbs: vec![0; n],
            mbooked: 0,
        })
    }

    /// Algorithm 3, with the Appendix-B correction (no `f_j` added to the
    /// parent's `BookedBySubtree`) and the root's output kept booked.
    fn dispatch_memory(&mut self, j: NodeId) {
        let jx = j.index();
        let mut b = self.booked[jx];
        self.booked[jx] = 0;
        self.mbooked -= b;
        self.bbs[jx] = 0;

        let Some(parent) = self.tree.parent(j) else {
            let f = self.tree.output(j);
            self.booked[jx] = f;
            self.mbooked += f;
            return;
        };

        let fj = self.tree.output(j);
        self.booked[parent.index()] += fj;
        self.mbooked += fj;
        b -= fj;

        let mut cur = Some(parent);
        while let Some(i) = cur {
            let ix = i.index();
            if b == 0 || !matches!(self.state[ix], State::Act | State::Run) {
                break;
            }
            let c = b.min(self.mem_needed[ix].saturating_sub(self.bbs[ix] - b));
            self.booked[ix] += c;
            self.mbooked += c;
            self.bbs[ix] -= b - c;
            b -= c;
            cur = self.tree.parent(i);
        }
    }

    /// Algorithm 4: activate the AO-least candidate while memory permits.
    fn update_cand_act(&mut self) {
        loop {
            // Linear scan for the CAND node with the smallest AO rank.
            let Some(i) = self
                .tree
                .nodes()
                .filter(|&i| self.state[i.index()] == State::Cand)
                .min_by_key(|&i| self.ao.rank(i))
            else {
                return;
            };
            let ix = i.index();
            let subtree_booked: u64 = self.booked[ix]
                + self
                    .tree
                    .children(i)
                    .iter()
                    .map(|c| self.bbs[c.index()])
                    .sum::<u64>();
            let missing = self.mem_needed[ix].saturating_sub(subtree_booked);
            if self.mbooked + missing > self.memory {
                return; // WaitForMoreMem
            }
            self.booked[ix] += missing;
            self.mbooked += missing;
            self.bbs[ix] = self.booked[ix]
                + self
                    .tree
                    .children(i)
                    .iter()
                    .map(|c| self.bbs[c.index()])
                    .sum::<u64>();
            self.state[ix] = State::Act;

            if let Some(p) = self.tree.parent(i) {
                let px = p.index();
                if self.state[px] == State::Un
                    && self
                        .tree
                        .children(p)
                        .iter()
                        .all(|c| !matches!(self.state[c.index()], State::Un | State::Cand))
                {
                    self.state[px] = State::Cand;
                }
            }
        }
    }
}

impl Scheduler for MemBookingRef<'_> {
    fn name(&self) -> &str {
        "MemBookingRef"
    }

    fn on_event(&mut self, finished: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>) {
        for &j in finished {
            self.state[j.index()] = State::Fin;
            self.dispatch_memory(j);
        }
        self.update_cand_act();

        // Start available ACT nodes by EO priority (linear scans — this is
        // the unoptimised specification).
        for _ in 0..idle {
            let Some(i) = self
                .tree
                .nodes()
                .filter(|&i| {
                    self.state[i.index()] == State::Act
                        && self
                            .tree
                            .children(i)
                            .iter()
                            .all(|c| self.state[c.index()] == State::Fin)
                })
                .min_by_key(|&i| self.eo.rank(i))
            else {
                break;
            };
            self.state[i.index()] = State::Run;
            to_start.push((i, 1));
        }
    }

    fn booked(&self) -> u64 {
        self.mbooked
    }
}
