//! **MemBookingRedTree** — the reduction-tree booking baseline
//! (Section 3.2, reconstructed from Eyraud-Dubois et al., TOPC 2015).
//!
//! The original strategy only applies to *reduction trees* (`n_i = 0`,
//! `f_i ≤ Σ f_children`). General trees are first transformed by adding a
//! fictitious zero-time leaf child per offending node, which inflates the
//! peak memory — the key weakness the paper exploits (Section 3.2: the
//! transform "increases the overall peak memory needed for any traversal",
//! and under tight memory "does not always allow for the completion of
//! those trees").
//!
//! The booking itself is **static subtree escrow**: a bottom-up pass
//! precomputes, for every node, the booking `Δ(i)` it must add at
//! activation so that its subtree's holdings cover its whole processing —
//! assuming each completed child transmits its precomputed holdings
//! `T(c)`:
//!
//! ```text
//! avail(i) = Σ_{c} T(c)
//! Δ(i)     = max(0, MemNeeded(i) − avail(i))
//! T(i)     = avail(i) + Δ(i) − (inputs(i) + n_i)      // held after i completes
//! ```
//!
//! Activation proceeds in `AO` order and books `Δ(i)`; a node runs once
//! activated with all children finished. This matches the two behaviours
//! Section 3.2 documents — "memory booked for the leaves of a subtree
//! suffices for the whole subtree" and "the amount transmitted to the
//! parent is precomputable" — while remaining far more conservative than
//! MemBooking's As-Late-As-Possible dispatch (no recycling across
//! branches).

use crate::activation::check_orders;
use crate::error::SchedError;
use crate::readyset::RankQueue;
use memtree_order::Order;
use memtree_sim::Scheduler;
use memtree_tree::{NodeId, TaskSpec, TaskTree, TreeBuilder};

/// Result of the reduction-tree transform.
#[derive(Clone, Debug)]
pub struct ReductionTransform {
    /// The transformed tree. Original nodes keep their ids (`0..original`);
    /// fictitious leaves are appended after.
    pub tree: TaskTree,
    /// Number of original nodes.
    pub original: usize,
    /// For each original node, the fictitious child added for it (if any).
    pub fictitious_of: Vec<Option<NodeId>>,
}

/// Transforms `tree` into a reduction tree: every node gets `n'_i = 0`, and
/// a fictitious leaf child of size `max(n_i, f_i − Σ f_children)` absorbs
/// both the execution data and any output excess. Fictitious tasks take
/// zero time, so makespans remain comparable with the original tree.
///
/// # Errors
/// [`SchedError::InvalidSpec`] when the fictitious leaves take the tree's
/// total memory past `u64`.
pub fn to_reduction_tree(tree: &TaskTree) -> Result<ReductionTransform, SchedError> {
    let n = tree.len();
    let mut b = TreeBuilder::with_capacity(n * 2);
    for i in tree.nodes() {
        b.push(
            tree.parent(i),
            TaskSpec::new(0, tree.output(i), tree.time(i)),
        );
    }
    let mut fictitious_of = vec![None; n];
    for i in tree.nodes() {
        let inputs = tree.input_size(i);
        let c = tree.exec(i).max(tree.output(i).saturating_sub(inputs));
        if c > 0 {
            fictitious_of[i.index()] = Some(b.push(Some(i), TaskSpec::new(0, c, 0.0)));
        }
    }
    let out = b
        .build()
        .map_err(|e| SchedError::InvalidSpec(format!("reduction tree: {e}")))?;
    debug_assert!(out
        .nodes()
        .all(|i| { out.exec(i) == 0 && (out.is_leaf(i) || out.output(i) <= out.input_size(i)) }));
    Ok(ReductionTransform {
        tree: out,
        original: n,
        fictitious_of,
    })
}

/// The static escrow bookings of a tree (usually a transformed one).
#[derive(Clone, Debug)]
struct Escrow {
    /// Booking added when each node is activated.
    delta: Vec<u64>,
    /// Peak booking of the lazy sequential execution in `AO` order — the
    /// minimum feasible memory bound of this policy.
    min_memory: u64,
}

fn compute_escrow(tree: &TaskTree, ao: &Order) -> Escrow {
    let n = tree.len();
    let mut delta = vec![0u64; n];
    let mut transmit = vec![0u64; n];
    for &i in ao.sequence() {
        let ix = i.index();
        let needed = tree.mem_needed(i);
        let avail: u64 = tree.children(i).iter().map(|c| transmit[c.index()]).sum();
        delta[ix] = needed.saturating_sub(avail);
        transmit[ix] = (avail + delta[ix]) - (tree.input_size(i) + tree.exec(i));
        debug_assert!(transmit[ix] >= tree.output(i));
    }
    // Lazy sequential replay: activate right before running.
    let mut booked = 0u64;
    let mut min_memory = 0u64;
    for &i in ao.sequence() {
        booked += delta[i.index()];
        min_memory = min_memory.max(booked);
        booked -= tree.input_size(i) + tree.exec(i);
    }
    Escrow { delta, min_memory }
}

/// The MemBookingRedTree scheduling policy.
///
/// Construct via [`RedTreeBooking::try_new`] with a tree that is already a
/// reduction tree (in practice: [`to_reduction_tree`]'s output, with `AO`
/// and `EO` computed on that transformed tree).
pub struct RedTreeBooking<'a> {
    tree: &'a TaskTree,
    ao: &'a Order,
    eo: &'a Order,
    memory: u64,
    delta: Vec<u64>,
    booked: u64,
    next_ao: usize,
    activated: Vec<bool>,
    ch_not_fin: Vec<u32>,
    /// Runnable pool as EO ranks (ascending pops — see
    /// [`crate::readyset`]).
    ready: RankQueue,
}

impl<'a> RedTreeBooking<'a> {
    /// Builds the policy; fails with [`SchedError::InfeasibleMemory`] when
    /// `M` is below the policy's own sequential booking peak (which is
    /// *larger* than `peak(AO)` — the transform-and-escrow overhead).
    pub fn try_new(
        tree: &'a TaskTree,
        ao: &'a Order,
        eo: &'a Order,
        memory: u64,
    ) -> Result<Self, SchedError> {
        check_orders(tree, ao, eo)?;
        let escrow = compute_escrow(tree, ao);
        if escrow.min_memory > memory {
            return Err(SchedError::InfeasibleMemory {
                required: escrow.min_memory,
                available: memory,
            });
        }
        Ok(RedTreeBooking {
            tree,
            ao,
            eo,
            memory,
            delta: escrow.delta,
            booked: 0,
            next_ao: 0,
            activated: vec![false; tree.len()],
            ch_not_fin: tree.nodes().map(|i| tree.degree(i) as u32).collect(),
            ready: RankQueue::with_universe(tree.len()),
        })
    }

    /// The minimum memory this policy needs on `tree` with `ao` — used by
    /// the harness to report "unable to schedule" statistics without
    /// constructing the scheduler.
    pub fn min_memory(tree: &TaskTree, ao: &Order) -> u64 {
        compute_escrow(tree, ao).min_memory
    }
}

impl Scheduler for RedTreeBooking<'_> {
    fn name(&self) -> &str {
        "MemBookingRedTree"
    }

    fn on_event(&mut self, finished: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>) {
        for &j in finished {
            // Release inputs and execution data; the subtree's remaining
            // escrow (≥ f_j) stays booked for the ancestors.
            self.booked -= self.tree.input_size(j) + self.tree.exec(j);
            if let Some(p) = self.tree.parent(j) {
                self.ch_not_fin[p.index()] -= 1;
                if self.ch_not_fin[p.index()] == 0 && self.activated[p.index()] {
                    self.ready.insert(self.eo.rank(p));
                }
            }
        }

        while self.next_ao < self.ao.len() {
            let i = self.ao.at(self.next_ao);
            let d = self.delta[i.index()];
            if self.booked + d > self.memory {
                break;
            }
            self.booked += d;
            self.activated[i.index()] = true;
            self.next_ao += 1;
            if self.ch_not_fin[i.index()] == 0 {
                self.ready.insert(self.eo.rank(i));
            }
        }

        while to_start.len() < idle {
            let Some(rank) = self.ready.pop_min() else {
                break;
            };
            to_start.push((self.eo.at(rank as usize), 1));
        }
    }

    fn booked(&self) -> u64 {
        self.booked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_order::mem_postorder;
    use memtree_sim::{simulate, SimConfig};
    use memtree_tree::validate::check_consistency;

    #[test]
    fn transform_produces_reduction_tree() {
        for seed in 0..10 {
            let t = memtree_gen::synthetic::paper_tree(100, seed);
            let tr = to_reduction_tree(&t).unwrap();
            check_consistency(&tr.tree).unwrap();
            for i in tr.tree.nodes() {
                assert_eq!(tr.tree.exec(i), 0, "execution data folded away");
                if !tr.tree.is_leaf(i) {
                    assert!(
                        tr.tree.output(i) <= tr.tree.input_size(i),
                        "node {i:?} not a reduction"
                    );
                }
            }
            // Fictitious tasks take no time: makespan-relevant work equal.
            assert!((tr.tree.total_time() - t.total_time()).abs() < 1e-9);
        }
    }

    #[test]
    fn transform_preserves_mem_needed_when_exec_dominates() {
        // A node with n_i > 0 gets a fictitious child of exactly n_i, so
        // MemNeeded is preserved.
        let t = memtree_tree::TaskTree::from_parents(
            &[None, Some(0)],
            &[TaskSpec::new(4, 3, 1.0), TaskSpec::new(5, 10, 1.0)],
        )
        .unwrap();
        let tr = to_reduction_tree(&t).unwrap();
        // Node 1 (leaf, n=5, f=10): fictitious child max(5, 10-0) = 10.
        let f1 = tr.fictitious_of[1].unwrap();
        assert_eq!(tr.tree.output(f1), 10);
        // Node 0 (n=4, f=3, inputs 10): max(4, 3-10<0 -> 0) = 4.
        let f0 = tr.fictitious_of[0].unwrap();
        assert_eq!(tr.tree.output(f0), 4);
        // MemNeeded(0) in T': inputs (10 + 4) + 0 + 3 = 17 vs original 10+4+3.
        assert_eq!(
            tr.tree.mem_needed(memtree_tree::NodeId(0)),
            t.mem_needed(memtree_tree::NodeId(0))
        );
    }

    #[test]
    fn transform_inflates_peak_memory() {
        // The paper's criticism: the transform increases the sequential
        // peak for trees whose outputs exceed their inputs.
        let mut inflated = 0;
        for seed in 0..10 {
            let t = memtree_gen::synthetic::paper_tree(200, 50 + seed);
            let tr = to_reduction_tree(&t).unwrap();
            let orig = mem_postorder(&t).sequential_peak(&t);
            let trans = mem_postorder(&tr.tree).sequential_peak(&tr.tree);
            assert!(trans >= orig);
            if trans > orig {
                inflated += 1;
            }
        }
        assert!(
            inflated > 5,
            "inflation should be common on synthetic trees"
        );
    }

    #[test]
    fn schedules_correctly_with_ample_memory() {
        for seed in 0..8 {
            let t = memtree_gen::synthetic::paper_tree(120, seed);
            let tr = to_reduction_tree(&t).unwrap();
            let ao = mem_postorder(&tr.tree);
            let need = RedTreeBooking::min_memory(&tr.tree, &ao);
            let s = RedTreeBooking::try_new(&tr.tree, &ao, &ao, need).unwrap();
            let trace = simulate(&tr.tree, SimConfig::new(4, need), s).unwrap();
            memtree_sim::validate::validate_trace(&tr.tree, &trace).unwrap();
        }
    }

    #[test]
    fn needs_more_memory_than_membooking() {
        // On general trees the escrow minimum exceeds the sequential peak
        // (the "unable to schedule under tight memory" phenomenon).
        let mut strictly_more = 0;
        for seed in 0..10 {
            let t = memtree_gen::synthetic::paper_tree(150, 10 + seed);
            let tr = to_reduction_tree(&t).unwrap();
            let ao_t = mem_postorder(&t);
            let ao_tr = mem_postorder(&tr.tree);
            let mb_min = ao_t.sequential_peak(&t);
            let rt_min = RedTreeBooking::min_memory(&tr.tree, &ao_tr);
            assert!(rt_min >= mb_min);
            if rt_min > mb_min {
                strictly_more += 1;
            }
        }
        assert!(strictly_more >= 8, "escrow should usually need more memory");
    }

    #[test]
    fn infeasible_memory_rejected_up_front() {
        let t = memtree_gen::synthetic::paper_tree(60, 2);
        let tr = to_reduction_tree(&t).unwrap();
        let ao = mem_postorder(&tr.tree);
        let need = RedTreeBooking::min_memory(&tr.tree, &ao);
        assert!(matches!(
            RedTreeBooking::try_new(&tr.tree, &ao, &ao, need - 1),
            Err(SchedError::InfeasibleMemory { .. })
        ));
    }

    #[test]
    fn pure_reduction_tree_untouched_by_transform() {
        let t = memtree_gen::shapes::binary_reduction(8, 16, 1.0);
        let tr = to_reduction_tree(&t).unwrap();
        // Only the leaves need fictitious children (their output comes from
        // nowhere); internal nodes are already reductions.
        for i in t.nodes() {
            if t.is_leaf(i) {
                assert!(tr.fictitious_of[i.index()].is_some());
            } else {
                assert!(tr.fictitious_of[i.index()].is_none());
            }
        }
    }
}
