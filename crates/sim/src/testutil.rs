//! Schedulers, a rescheduler and a tree shared by this crate's unit tests.

use crate::driver::{LiveStats, RescheduleAction, Rescheduler};
use crate::scheduler::Scheduler;
use memtree_tree::{NodeId, TaskSpec, TaskTree};

/// Root 0 (t = 1) over leaves 1 (t = 2) and 2 (t = 3); outputs 1, 2, 3.
pub(crate) fn fork() -> TaskTree {
    TaskTree::from_parents(
        &[None, Some(0), Some(0)],
        &[
            TaskSpec::new(0, 1, 1.0),
            TaskSpec::new(0, 2, 2.0),
            TaskSpec::new(0, 3, 3.0),
        ],
    )
    .unwrap()
}

/// A permissive policy: books `bound` whatever happens and starts every
/// available task, lowest id first, on one processor each.
pub(crate) struct Greedy<'a> {
    tree: &'a TaskTree,
    bound: u64,
    remaining: Vec<usize>,
    ready: Vec<NodeId>,
}

impl<'a> Greedy<'a> {
    pub(crate) fn new(tree: &'a TaskTree, bound: u64) -> Self {
        Greedy {
            tree,
            bound,
            remaining: tree.nodes().map(|i| tree.degree(i)).collect(),
            ready: tree.leaves().collect(),
        }
    }
}

impl Scheduler for Greedy<'_> {
    fn name(&self) -> &str {
        "greedy-test"
    }
    fn on_event(&mut self, finished: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>) {
        for &j in finished {
            if let Some(p) = self.tree.parent(j) {
                self.remaining[p.index()] -= 1;
                if self.remaining[p.index()] == 0 {
                    self.ready.push(p);
                }
            }
        }
        self.ready.sort_unstable_by(|a, b| b.cmp(a));
        while to_start.len() < idle {
            let Some(i) = self.ready.pop() else { break };
            to_start.push((i, 1));
        }
    }
    fn booked(&self) -> u64 {
        self.bound
    }
}

/// Starts `order` one task per event, each on `procs` processors — on
/// every idle one when `procs` is `None` — and books `bound`.
pub(crate) struct InOrder {
    order: Vec<NodeId>,
    procs: Option<usize>,
    bound: u64,
    next: usize,
}

impl InOrder {
    pub(crate) fn new(order: Vec<NodeId>, procs: Option<usize>, bound: u64) -> Self {
        InOrder {
            order,
            procs,
            bound,
            next: 0,
        }
    }
}

impl Scheduler for InOrder {
    fn name(&self) -> &str {
        "in-order-test"
    }
    fn on_event(&mut self, _: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>) {
        let q = self.procs.unwrap_or(idle);
        if q > 0 && idle >= q && self.next < self.order.len() {
            to_start.push((self.order[self.next], q));
            self.next += 1;
        }
    }
    fn booked(&self) -> u64 {
        self.bound
    }
}

/// Pushes its canned starts at the first event, legal or not, and nothing
/// after; books everything.
pub(crate) struct Once(pub(crate) Vec<(NodeId, usize)>);

impl Scheduler for Once {
    fn name(&self) -> &str {
        "once-test"
    }
    fn on_event(&mut self, _: &[NodeId], _: usize, to_start: &mut Vec<(NodeId, usize)>) {
        to_start.append(&mut self.0);
    }
    fn booked(&self) -> u64 {
        u64::MAX
    }
}

/// Never starts anything; books `.0`.
pub(crate) struct Lazy(pub(crate) u64);

impl Scheduler for Lazy {
    fn name(&self) -> &str {
        "lazy-test"
    }
    fn on_event(&mut self, _: &[NodeId], _: usize, _: &mut Vec<(NodeId, usize)>) {}
    fn booked(&self) -> u64 {
        self.0
    }
}

/// A rescheduler that replays canned `(event, action)` pairs and keeps
/// every snapshot it is shown.
#[derive(Default)]
pub(crate) struct Script {
    pub(crate) plan: Vec<(u64, RescheduleAction)>,
    pub(crate) snapshots: Vec<LiveStats>,
}

impl Rescheduler for Script {
    fn tick(&mut self, stats: &LiveStats, actions: &mut Vec<RescheduleAction>) {
        self.snapshots.push(stats.clone());
        let due = self.plan.iter().filter(|&&(event, _)| event == stats.event);
        actions.extend(due.map(|&(_, action)| action));
    }
}
