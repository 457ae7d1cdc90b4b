//! **`ShardBudget`** — how a global memory bound splits into independent
//! per-shard booking ledgers (DESIGN.md §6.7).
//!
//! A sharded platform runs disjoint subtrees concurrently, each under its
//! own booking ledger; the split decides how much of the global bound `M`
//! each ledger gets. The contract is:
//!
//! * every shard gets at least its minimum feasible memory (the
//!   sequential peak of its memPO activation order — Theorem 1's
//!   feasibility condition applied shard-locally);
//! * the per-shard budgets **sum to at most `M`**, so the sum of the
//!   shard ledgers' peaks can never exceed the global bound — memory
//!   booking composes across shards exactly as Eyraud-Dubois et al.
//!   (2014) compose it across independent subtrees.
//!
//! When even the minima do not fit, the split refuses with
//! [`SchedError::InfeasibleMemory`] — the sharded analogue of a policy's
//! construction-time feasibility refusal.

use crate::error::SchedError;
use memtree_tree::TaskTree;

/// The minimum memory the default booking policy (MemBooking under the
/// paper's memPO orders) provably needs on `tree` — a thin delegate to
/// [`PolicySpec::min_feasible`](crate::PolicySpec::min_feasible), which is
/// the one feasibility floor in this workspace.
///
/// Convenient when no concrete spec is in hand (tests sizing a "roomy"
/// bound, proportional-split weights). **Admission control must not use
/// this**: a tenant's floor depends on its spec's kind and orders —
/// RedTree's statically-booked subtree requirements raise the bar well
/// past the memPO sequential peak — so admitting against this function
/// would admit sessions whose policies then refuse to construct. Always
/// ask the session's own spec via `PolicySpec::min_feasible`.
pub fn min_feasible_memory(tree: &TaskTree) -> u64 {
    // The memory field is irrelevant to the floor; 0 keeps the delegate
    // honest about not depending on it.
    crate::PolicySpec::new(crate::HeuristicKind::MemBooking, 0).min_feasible(tree)
}

/// How a global memory bound splits across per-shard booking ledgers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardBudget {
    /// Each shard gets its minimum plus a share of the headroom
    /// proportional to that minimum — big shards get big ledgers.
    #[default]
    Proportional,
}

impl ShardBudget {
    /// Splits `memory` over shards whose minimum feasible memories are
    /// `mins`. On success every budget is ≥ its min and the budgets sum
    /// to at most `memory`.
    ///
    /// # Errors
    /// [`SchedError::InfeasibleMemory`] when `Σ mins > memory` — the
    /// shards cannot all be granted a feasible ledger at once.
    pub fn split(&self, memory: u64, mins: &[u64]) -> Result<Vec<u64>, SchedError> {
        if mins.is_empty() {
            return Ok(Vec::new());
        }
        let total_min: u64 = mins.iter().sum();
        if total_min > memory {
            return Err(SchedError::InfeasibleMemory {
                required: total_min,
                available: memory,
            });
        }
        let headroom = memory - total_min;
        let budgets: Vec<u64> = mins
            .iter()
            .map(|&m| {
                // u128 intermediate: headroom · min can overflow u64.
                let share = (headroom as u128 * m as u128 / total_min as u128) as u64;
                m + share
            })
            .collect();
        debug_assert!(budgets.iter().sum::<u64>() <= memory);
        debug_assert!(budgets.iter().zip(mins).all(|(b, m)| b >= m));
        Ok(budgets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_spreads_by_min() {
        let b = ShardBudget::Proportional.split(120, &[10, 20, 30]).unwrap();
        // headroom 60 split 1:2:3.
        assert_eq!(b, vec![20, 40, 60]);
        assert_eq!(b.iter().sum::<u64>(), 120);
    }

    #[test]
    fn split_is_exhaustive_over_policies_and_never_overcommits() {
        let mins = [7, 13, 1, 64];
        for memory in [85u64, 86, 100, 1_000, u64::MAX / 2] {
            let b = ShardBudget::Proportional.split(memory, &mins).unwrap();
            assert!(b.iter().sum::<u64>() <= memory, "at {memory}");
            assert!(b.iter().zip(&mins).all(|(b, m)| b >= m), "at {memory}");
        }
    }

    #[test]
    fn infeasible_split_refused() {
        let err = ShardBudget::Proportional
            .split(84, &[7, 13, 1, 64])
            .unwrap_err();
        assert!(matches!(
            err,
            SchedError::InfeasibleMemory {
                required: 85,
                available: 84
            }
        ));
    }

    #[test]
    fn empty_split_is_empty() {
        assert!(ShardBudget::Proportional.split(10, &[]).unwrap().is_empty());
    }

    #[test]
    fn min_feasible_memory_is_positive_and_feasible() {
        let tree = memtree_gen::synthetic::paper_tree(80, 3);
        let m = min_feasible_memory(&tree);
        assert!(m >= 1);
        // A MemBooking policy constructs at exactly this bound.
        let spec = crate::PolicySpec::new(crate::HeuristicKind::MemBooking, m);
        let inst = spec.instantiate(&tree).unwrap();
        assert!(inst.scheduler(&tree).is_ok());
    }

    #[test]
    fn min_feasible_memory_delegates_to_the_spec_level_floor() {
        // One implementation of the floor: the free function is the
        // default spec's answer, bit for bit, and the spec-level method is
        // the one admission must consult (RedTree's floor is higher).
        let tree = memtree_gen::synthetic::paper_tree(120, 7);
        let default_spec = crate::PolicySpec::new(crate::HeuristicKind::MemBooking, 0);
        assert_eq!(min_feasible_memory(&tree), default_spec.min_feasible(&tree));
        let redtree = crate::PolicySpec::new(crate::HeuristicKind::MemBookingRedTree, 0);
        assert!(
            redtree.min_feasible(&tree) > min_feasible_memory(&tree),
            "RedTree's floor exceeds the memPO sequential peak — admitting \
             against the free function would under-provision it"
        );
    }
}
