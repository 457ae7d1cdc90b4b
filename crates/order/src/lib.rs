#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Sequential traversals and priority orders for task trees.
//!
//! The scheduling heuristics of the paper are parameterised by two orders:
//! an **activation order** `AO` (a topological order used to admit nodes
//! into memory) and an **execution order** `EO` (a priority used to pick
//! among runnable nodes). Section 7 evaluates six combinations built from
//! four orders, all implemented here:
//!
//! * [`po_mem`] — `memPO`, the postorder minimising peak memory among all
//!   postorders (Liu 1986). This is the paper's default AO and EO, and the
//!   yardstick memory bounds are normalised by.
//! * [`optseq`] — `OptSeq`, the optimal sequential traversal (not
//!   necessarily a postorder) minimising peak memory (Liu 1987, generalized
//!   pebble game).
//! * [`cp`] — `CP`, nodes by non-increasing bottom level (critical path).
//! * [`po_perf`] — `perfPO`, a postorder giving priority to subtrees with
//!   the largest critical path.
//! * [`po_avg`] — the average-memory-minimising postorder of Appendix A
//!   (Smith's rule on `T_i / f_i`).
//!
//! The brute-force oracles the property tests check these against live in
//! the dev-only `memtree_testkit::exhaustive`.

pub mod cp;
pub mod optseq;
pub mod order;
pub mod po_avg;
pub mod po_mem;
pub mod po_perf;

pub use cp::cp_order;
pub use optseq::{optimal_traversal, OptimalTraversal};
pub use order::{Order, OrderKind};
pub use po_avg::avg_mem_postorder;
pub use po_mem::{mem_postorder, postorder_peaks};
pub use po_perf::perf_postorder;

use memtree_tree::TaskTree;

/// Builds the order of the given kind for `tree`.
///
/// This is the single entry point used by the experiment harness to sweep
/// AO/EO combinations (Figures 8 and 14).
pub fn make_order(tree: &TaskTree, kind: OrderKind) -> Order {
    match kind {
        OrderKind::MemPostorder => mem_postorder(tree),
        OrderKind::OptSeq => optimal_traversal(tree).order,
        OrderKind::CriticalPath => cp_order(tree),
        OrderKind::PerfPostorder => perf_postorder(tree),
        OrderKind::AvgMemPostorder => avg_mem_postorder(tree),
        OrderKind::NaturalPostorder => Order::new(
            tree,
            memtree_tree::traverse::postorder(tree),
            OrderKind::NaturalPostorder,
        )
        .expect("natural postorder is topological"),
    }
}

/// [`make_order`] and the order's sequential peak
/// ([`Order::sequential_peak`]). memPO and OptSeq compute that peak while
/// they build the order, so it comes from the same pass; the other kinds
/// replay their sequence once.
pub fn make_order_with_peak(tree: &TaskTree, kind: OrderKind) -> (Order, u64) {
    match kind {
        OrderKind::MemPostorder => po_mem::mem_postorder_with_peak(tree),
        OrderKind::OptSeq => {
            let opt = optimal_traversal(tree);
            (opt.order, opt.peak)
        }
        _ => {
            let order = make_order(tree, kind);
            let peak = order.sequential_peak(tree);
            (order, peak)
        }
    }
}
