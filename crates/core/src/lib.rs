#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Memory-aware task-tree schedulers.
//!
//! This crate implements the paper's contribution and its two competitors,
//! all as [`memtree_sim::Scheduler`] policies:
//!
//! * [`membooking`] — **MemBooking** (Section 4), the paper's algorithm:
//!   activation books only the memory a subtree cannot recycle later, and
//!   completions re-dispatch freed memory to ancestors As Late As Possible.
//!   Ships both the literal reference implementation (Algorithms 2–4) and
//!   the optimised `O(n(H + log n))` implementation (Appendix B,
//!   Algorithms 5–6).
//! * [`activation`] — the simple **Activation** policy of Agullo et al.
//!   (Section 3.1, Algorithm 1): books `n_i + f_i` per activated node.
//! * [`redtree`] — **MemBookingRedTree** (Section 3.2): transforms the
//!   tree into a reduction tree and books statically-precomputed subtree
//!   requirements (a reconstruction; see DESIGN.md §4.3).
//! * [`seq`] — the one-processor baseline executing the activation order.
//! * [`lower_bound`] — the classical makespan lower bounds plus the
//!   paper's new memory-aware bound (Section 6, Theorem 3).
//!
//! All policies guarantee completion when the memory bound admits their
//! sequential activation order; [`SchedError::InfeasibleMemory`] is
//! returned up front otherwise.
//!
//! Construction goes through [`spec::PolicySpec`] — a declarative value
//! (kind + order pair + memory bound + optional moldable caps) whose
//! [`spec::PolicySpec::instantiate`] owns any tree transformation, so
//! every kind, including the reduction-tree baseline, builds through one
//! entry point and runs on any `Platform` (see DESIGN.md §6). Sharded
//! platforms split the bound into independent per-shard booking ledgers
//! through [`shard::ShardBudget`] (DESIGN.md §6.7).

pub mod activation;
pub mod error;
pub mod ledger;
pub mod lower_bound;
pub mod membooking;
pub mod moldable;
pub mod readyset;
pub mod redtree;
pub mod rescheduler;
pub mod seq;
pub mod shard;
pub mod spec;

pub use activation::Activation;
pub use error::SchedError;
pub use ledger::{BudgetLedger, LedgerError};
pub use lower_bound::LowerBounds;
pub use membooking::{MemBooking, MemBookingRef};
pub use moldable::{AllotmentCaps, MoldableMemBooking};
pub use readyset::RankQueue;
pub use redtree::{to_reduction_tree, RedTreeBooking, ReductionTransform};
pub use rescheduler::{ProportionalRescheduler, ReschedulePolicy};
pub use seq::Sequential;
pub use shard::{min_feasible_memory, ShardBudget};
pub use spec::{PolicyInstance, PolicySpec};

/// Which heuristic to instantiate — the legend of Figures 2/9/10/15.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HeuristicKind {
    /// Agullo et al.'s simple activation policy.
    Activation,
    /// The paper's MemBooking (optimised implementation).
    MemBooking,
    /// The reference (unoptimised) MemBooking — same schedule, slower.
    MemBookingRef,
    /// The reduction-tree booking baseline. [`PolicySpec::instantiate`]
    /// applies the reduction-tree transform, so this kind constructs like
    /// any other; the policy schedules the transformed tree
    /// ([`PolicyInstance::exec_tree`]).
    MemBookingRedTree,
    /// Sequential execution of the activation order.
    Sequential,
}

impl HeuristicKind {
    /// All five policies, in legend order.
    pub fn all() -> [HeuristicKind; 5] {
        [
            HeuristicKind::Activation,
            HeuristicKind::MemBooking,
            HeuristicKind::MemBookingRef,
            HeuristicKind::MemBookingRedTree,
            HeuristicKind::Sequential,
        ]
    }

    /// Label used in CSV output, matching the paper's plot legends.
    pub fn label(self) -> &'static str {
        match self {
            HeuristicKind::Activation => "Activation",
            HeuristicKind::MemBooking => "MemBooking",
            HeuristicKind::MemBookingRef => "MemBookingRef",
            HeuristicKind::MemBookingRedTree => "MemBookingRedTree",
            HeuristicKind::Sequential => "Sequential",
        }
    }

    /// The inverse of [`HeuristicKind::label`] — `None` for an unknown
    /// label. Wire formats (the serialized `PolicySpec` a shard-worker
    /// process receives) round-trip kinds through their labels.
    pub fn from_label(label: &str) -> Option<HeuristicKind> {
        HeuristicKind::all()
            .into_iter()
            .find(|k| k.label() == label)
    }
}

impl std::fmt::Display for HeuristicKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}
