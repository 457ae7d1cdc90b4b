//! The simple **Activation** policy of Agullo et al. (Algorithm 1).
//!
//! Nodes are *activated* — their full execution footprint `n_i + f_i` is
//! booked — in the activation order `AO`, as long as the bookings fit in
//! `M`. A node may execute once it is activated and all its children have
//! completed; among those, the execution order `EO` picks first. When a
//! node completes, its execution data and inputs are released
//! (`n_j + Σ f_children`); its output booking conceptually migrates to the
//! parent's input.
//!
//! The policy is safe whenever `M` is at least the sequential peak of `AO`
//! (checked at construction) but books very conservatively: in a chain
//! `T1 → T2 → T3` it reserves all three footprints although no two of the
//! tasks can ever overlap — Section 3.1's motivating criticism.

use crate::error::SchedError;
use crate::readyset::RankQueue;
use memtree_order::Order;
use memtree_sim::Scheduler;
use memtree_tree::{NodeId, TaskTree, TreeError};

/// Algorithm 1.
pub struct Activation<'a> {
    tree: &'a TaskTree,
    ao: &'a Order,
    eo: &'a Order,
    memory: u64,
    booked: u64,
    /// Next AO position to try to activate.
    next_ao: usize,
    activated: Vec<bool>,
    /// Children not yet finished, per node.
    ch_not_fin: Vec<u32>,
    /// Activated nodes whose children have all finished, as EO ranks
    /// (popped ascending — identical order to the old rank-keyed heap;
    /// see [`crate::readyset`]).
    ready: RankQueue,
}

impl<'a> Activation<'a> {
    /// Builds the policy, verifying the feasibility condition
    /// `M ≥ peak(AO)`.
    pub fn try_new(
        tree: &'a TaskTree,
        ao: &'a Order,
        eo: &'a Order,
        memory: u64,
    ) -> Result<Self, SchedError> {
        Self::with_floor(tree, ao, eo, memory, None)
    }

    /// [`Activation::try_new`], given `peak(AO)` when the caller carries
    /// it ([`check_feasible`]).
    pub(crate) fn with_floor(
        tree: &'a TaskTree,
        ao: &'a Order,
        eo: &'a Order,
        memory: u64,
        floor: Option<u64>,
    ) -> Result<Self, SchedError> {
        check_feasible(tree, ao, eo, memory, floor)?;
        Ok(Activation {
            tree,
            ao,
            eo,
            memory,
            booked: 0,
            next_ao: 0,
            activated: vec![false; tree.len()],
            ch_not_fin: tree.nodes().map(|i| tree.degree(i) as u32).collect(),
            ready: RankQueue::with_universe(tree.len()),
        })
    }

    fn activate_while_possible(&mut self) {
        while self.next_ao < self.ao.len() {
            let i = self.ao.at(self.next_ao);
            let footprint = self.tree.exec(i) + self.tree.output(i);
            if self.booked + footprint > self.memory {
                break; // wait for more memory
            }
            self.booked += footprint;
            self.activated[i.index()] = true;
            self.next_ao += 1;
            if self.ch_not_fin[i.index()] == 0 {
                self.ready.insert(self.eo.rank(i));
            }
        }
    }
}

impl Scheduler for Activation<'_> {
    fn name(&self) -> &str {
        "Activation"
    }

    fn on_event(&mut self, finished: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>) {
        // Free the memory booked by each finished node: execution data plus
        // the inputs it consumed. Its own output stays booked (the parent's
        // input from now on).
        for &j in finished {
            self.booked -= self.tree.exec(j) + self.tree.input_size(j);
            if let Some(p) = self.tree.parent(j) {
                self.ch_not_fin[p.index()] -= 1;
                if self.ch_not_fin[p.index()] == 0 && self.activated[p.index()] {
                    self.ready.insert(self.eo.rank(p));
                }
            }
        }

        self.activate_while_possible();

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

/// Both orders cover the tree: [`SchedError::OrderMismatch`] otherwise.
pub(crate) fn check_lengths(tree: &TaskTree, ao: &Order, eo: &Order) -> Result<(), SchedError> {
    for o in [ao, eo] {
        if o.len() != tree.len() {
            return Err(SchedError::OrderMismatch {
                tree_len: tree.len(),
                order_len: o.len(),
            });
        }
    }
    Ok(())
}

/// The error of an order of the right length that is not an order of the
/// tree it was handed with.
pub(crate) fn foreign_orders(e: TreeError) -> SchedError {
    SchedError::InvalidSpec(format!("the orders do not belong to the tree: {e}"))
}

/// Shared order sanity check: [`check_lengths`], then that both orders
/// are orders *of* `tree` ([`Order::check_tree`], one pass over the
/// parent array; once when AO is EO).
pub(crate) fn check_orders(tree: &TaskTree, ao: &Order, eo: &Order) -> Result<(), SchedError> {
    check_lengths(tree, ao, eo)?;
    ao.check_tree(tree).map_err(foreign_orders)?;
    if !std::ptr::eq(ao, eo) {
        eo.check_tree(tree).map_err(foreign_orders)?;
    }
    Ok(())
}

/// [`check_orders`], then Theorem 1's feasibility condition `M ≥
/// peak(AO)` — the floor of every policy but RedTree, whose escrow raises
/// it. `floor` is `peak(AO)` when the caller already holds it (a
/// [`PolicyInstance`](crate::PolicyInstance) carries it from the pass
/// that built AO); `None` replays AO here.
pub(crate) fn check_feasible(
    tree: &TaskTree,
    ao: &Order,
    eo: &Order,
    memory: u64,
    floor: Option<u64>,
) -> Result<(), SchedError> {
    check_orders(tree, ao, eo)?;
    let required = match floor {
        Some(floor) => {
            debug_assert_eq!(
                floor,
                ao.sequential_peak(tree),
                "the carried floor is AO's sequential peak"
            );
            floor
        }
        None => ao.sequential_peak(tree),
    };
    if required > memory {
        return Err(SchedError::InfeasibleMemory {
            required,
            available: memory,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_order::{mem_postorder, OrderKind};
    use memtree_sim::{simulate, SimConfig};
    use memtree_tree::TaskSpec;

    fn orders(tree: &TaskTree) -> Order {
        mem_postorder(tree)
    }

    #[test]
    fn infeasible_memory_rejected() {
        let t = memtree_gen::shapes::chain(3, TaskSpec::new(1, 10, 1.0));
        let o = orders(&t);
        let need = o.sequential_peak(&t);
        assert!(Activation::try_new(&t, &o, &o, need - 1).is_err());
        assert!(Activation::try_new(&t, &o, &o, need).is_ok());
    }

    #[test]
    fn completes_at_exactly_minimum_memory() {
        for seed in 0..10 {
            let t = memtree_gen::synthetic::paper_tree(120, seed);
            let o = orders(&t);
            let m = o.sequential_peak(&t);
            let s = Activation::try_new(&t, &o, &o, m).unwrap();
            let trace = simulate(&t, SimConfig::new(4, m), s).unwrap();
            memtree_sim::validate::validate_trace(&t, &trace).unwrap();
        }
    }

    #[test]
    fn chain_books_everything_it_can() {
        // Chain of 3, huge memory: all three footprints booked at t = 0,
        // demonstrating the conservatism criticised in Section 3.1.
        let t = memtree_gen::shapes::chain(3, TaskSpec::new(5, 10, 1.0));
        let o = orders(&t);
        let mut s = Activation::try_new(&t, &o, &o, 1_000_000).unwrap();
        let mut start = Vec::new();
        s.on_event(&[], 1, &mut start);
        assert_eq!(s.booked(), 3 * 15, "all three activations booked");
    }

    #[test]
    fn single_processor_matches_sequential_time() {
        let t = memtree_gen::synthetic::paper_tree(60, 3);
        let o = orders(&t);
        let m = o.sequential_peak(&t) * 2;
        let s = Activation::try_new(&t, &o, &o, m).unwrap();
        let trace = simulate(&t, SimConfig::new(1, m), s).unwrap();
        assert!((trace.makespan - t.total_time()).abs() < 1e-6);
    }

    #[test]
    fn parallelism_reduces_makespan_with_ample_memory() {
        let t = memtree_gen::shapes::spindle(4, 10, TaskSpec::new(0, 1, 1.0));
        let o = orders(&t);
        let m = 10_000;
        let t1 = simulate(
            &t,
            SimConfig::new(1, m),
            Activation::try_new(&t, &o, &o, m).unwrap(),
        )
        .unwrap()
        .makespan;
        let t4 = simulate(
            &t,
            SimConfig::new(4, m),
            Activation::try_new(&t, &o, &o, m).unwrap(),
        )
        .unwrap()
        .makespan;
        assert!(t4 < t1 / 2.0, "spindle should parallelise: {t4} vs {t1}");
    }

    #[test]
    fn order_mismatch_detected() {
        let t1 = memtree_gen::shapes::chain(3, TaskSpec::default());
        let t2 = memtree_gen::shapes::chain(5, TaskSpec::default());
        let o2 = memtree_order::Order::new(
            &t2,
            memtree_tree::traverse::postorder(&t2),
            OrderKind::NaturalPostorder,
        )
        .unwrap();
        assert!(matches!(
            Activation::try_new(&t1, &o2, &o2, 1000),
            Err(SchedError::OrderMismatch { .. })
        ));
    }
}
