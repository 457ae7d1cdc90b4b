//! The scheduler-callback protocol.

use memtree_tree::NodeId;

/// A dynamic scheduling policy driven by task-completion events.
///
/// The driver calls [`Scheduler::on_event`] once at `t = 0` (with an empty
/// `finished` batch) and once per completion instant thereafter. The
/// scheduler pushes the tasks it wants to start **now** into `to_start`,
/// each with the number of processors it runs on — its *allotment* `q`;
/// the driver starts them immediately at the current instant. A
/// sequential task is the allotment `q = 1`: the paper's five policies
/// push `(task, 1)`, a moldable policy pushes larger gangs, and both run
/// under the one core ([`crate::DriverCore`]).
///
/// Contract:
/// * a pushed task must have all children finished (be *available*) and
///   must not have been started before;
/// * every allotment is at least 1 and the allotments pushed in one event
///   sum to at most `idle`;
/// * [`Scheduler::booked`] reports the memory currently reserved by the
///   policy — the driver checks `actual ≤ booked ≤ M` at every event.
///
/// Schedulers only learn processing times through completions, matching the
/// paper's assumption that `t_i` is unknown in advance.
pub trait Scheduler {
    /// Human-readable policy name (used in traces and CSV output).
    fn name(&self) -> &str;

    /// React to a batch of completions (empty at `t = 0`).
    ///
    /// `finished` is sorted by node id (by [`memtree_tree::TaskTree::label`]
    /// on a renumbered tree). `idle` is the number of free processors
    /// *after* the completions; `to_start` arrives empty.
    fn on_event(&mut self, finished: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>);

    /// Memory currently booked by the policy.
    fn booked(&self) -> u64;

    /// Optional hook: called once by the driver before the first event.
    fn on_begin(&mut self) {}
}

/// Blanket impl so `&mut S` can be passed where a scheduler is expected.
impl<S: Scheduler + ?Sized> Scheduler for &mut S {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_event(&mut self, finished: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>) {
        (**self).on_event(finished, idle, to_start)
    }
    fn booked(&self) -> u64 {
        (**self).booked()
    }
    fn on_begin(&mut self) {
        (**self).on_begin()
    }
}

impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn on_event(&mut self, finished: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>) {
        (**self).on_event(finished, idle, to_start)
    }
    fn booked(&self) -> u64 {
        (**self).booked()
    }
    fn on_begin(&mut self) {
        (**self).on_begin()
    }
}
