//! The discrete-event engine: a virtual-clock [`Backend`] under the shared
//! [`crate::driver`] loop.

use crate::driver::{drive, Backend, DriveConfig, DriveError};
use crate::error::SimError;
use crate::scheduler::Scheduler;
use crate::trace::{MemSample, RunSummary, TaskRecord, Trace};
use memtree_tree::{NodeId, TaskTree};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of processors `p`.
    pub processors: usize,
    /// Shared memory bound `M`.
    pub memory: u64,
    /// Check `actual ≤ booked ≤ M` at every event. Booking-sound
    /// schedulers (all of the paper's) must pass; disable only for
    /// deliberately unsound baselines.
    pub enforce_booking: bool,
    /// Record a [`MemSample`] at every event (costs memory on big trees).
    pub record_profile: bool,
    /// Measure wall-clock time spent in scheduler callbacks.
    pub measure_overhead: bool,
}

impl SimConfig {
    /// `p` processors, memory `M`, all checks on, no profile.
    pub fn new(processors: usize, memory: u64) -> Self {
        SimConfig {
            processors,
            memory,
            enforce_booking: true,
            record_profile: false,
            measure_overhead: true,
        }
    }

    /// Enables memory-profile recording.
    pub fn with_profile(mut self) -> Self {
        self.record_profile = true;
        self
    }
}

/// Totally ordered f64 for the event heap (times are finite by
/// construction).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Time(f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).expect("times are finite")
    }
}

/// A running task on the completion heap. The derived order compares
/// `(finish, label)` first and labels are unique, so simultaneous
/// completions pop in ascending caller id whatever the tree's own
/// numbering — and the pop order decides which processor frees first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Running {
    finish: Time,
    label: NodeId,
    node: NodeId,
    processor: u32,
}

/// The virtual-clock backend: tasks "run" on a completion-time heap, and a
/// batch is everything finishing at the next instant.
struct SimBackend<'t> {
    tree: &'t TaskTree,
    now: f64,
    running: BinaryHeap<Reverse<Running>>,
    free_procs: Vec<u32>,
    /// Per-task records, indexed by node id; `None` when the caller only
    /// wants the run's aggregates.
    records: Option<Vec<TaskRecord>>,
    record_profile: bool,
    profile: Vec<MemSample>,
}

impl<'t> SimBackend<'t> {
    fn new(tree: &'t TaskTree, cfg: &SimConfig, record_tasks: bool) -> Self {
        SimBackend {
            tree,
            now: 0.0,
            // At most one entry per processor is ever in flight; sizing
            // up front keeps the steady-state loop allocation-free.
            running: BinaryHeap::with_capacity(cfg.processors.min(tree.len()) + 1),
            free_procs: (0..cfg.processors as u32).rev().collect(),
            records: record_tasks.then(|| {
                vec![
                    TaskRecord {
                        start: f64::NAN,
                        finish: f64::NAN,
                        processor: 0,
                        start_epoch: 0,
                        finish_epoch: 0,
                    };
                    tree.len()
                ]
            }),
            record_profile: cfg.record_profile,
            profile: Vec::new(),
        }
    }
}

impl Backend for SimBackend<'_> {
    fn launch(&mut self, i: NodeId, epoch: u64) -> Result<(), DriveError> {
        let processor = self
            .free_procs
            .pop()
            .expect("driver enforces the idle limit");
        let finish = self.now + self.tree.time(i);
        if let Some(records) = &mut self.records {
            records[i.index()] = TaskRecord {
                start: self.now,
                finish,
                processor,
                start_epoch: epoch,
                finish_epoch: 0,
            };
        }
        self.running.push(Reverse(Running {
            finish: Time(finish),
            label: self.tree.label(i),
            node: i,
            processor,
        }));
        Ok(())
    }

    fn observe(&mut self, actual: u64, booked: u64) {
        if self.record_profile {
            self.profile.push(MemSample {
                time: self.now,
                actual,
                booked,
            });
        }
    }

    fn await_batch(&mut self, epoch: u64, batch: &mut Vec<NodeId>) -> Result<(), DriveError> {
        let Some(&Reverse(Running { finish, .. })) = self.running.peek() else {
            // Unreachable through `drive` (it checks in-flight > 0 first).
            return Err(DriveError::Backend("no task is running".into()));
        };
        self.now = finish.0;
        while let Some(&Reverse(next)) = self.running.peek() {
            if next.finish > finish {
                break;
            }
            self.running.pop();
            batch.push(next.node);
            self.free_procs.push(next.processor);
            if let Some(records) = &mut self.records {
                // Completions take effect at the *next* scheduler epoch.
                records[next.node.index()].finish_epoch = epoch + 1;
            }
        }
        Ok(())
    }
}

/// Maps a driver failure onto the simulator's error type. Nodes are named
/// by [`TaskTree::label`]: the id the caller knows them by, also when the
/// run was over a renumbered tree.
pub(crate) fn to_sim_error(e: DriveError, tree: &TaskTree) -> SimError {
    match e {
        DriveError::TooManyStarts { requested, idle } => {
            SimError::TooManyStarts { requested, idle }
        }
        DriveError::DoubleStart { node } => SimError::DoubleStart {
            node: tree.label(node),
        },
        DriveError::PrecedenceViolation { node } => SimError::PrecedenceViolation {
            node: tree.label(node),
        },
        DriveError::ZeroAllotment { node } => {
            SimError::BadConfig(format!("zero allotment for {:?}", tree.label(node)))
        }
        DriveError::BookedOverBound { booked, bound } => {
            SimError::BookedOverBound { booked, bound }
        }
        DriveError::ActualOverBooked { actual, booked } => {
            SimError::ActualOverBooked { actual, booked }
        }
        DriveError::Stalled {
            completed,
            total,
            booked,
        } => SimError::Stalled {
            completed,
            total,
            booked,
        },
        DriveError::BadConfig(msg) | DriveError::Backend(msg) => SimError::BadConfig(msg),
    }
}

/// Drives `scheduler` over `tree` on a fresh virtual-clock backend.
fn run<'t, S: Scheduler>(
    tree: &'t TaskTree,
    cfg: SimConfig,
    scheduler: S,
    record_tasks: bool,
) -> Result<(RunSummary, SimBackend<'t>), SimError> {
    let name = scheduler.name().to_string();
    let mut backend = SimBackend::new(tree, &cfg, record_tasks);
    let drive_cfg = DriveConfig {
        workers: cfg.processors,
        memory: cfg.memory,
        enforce_booking: cfg.enforce_booking,
        measure_overhead: cfg.measure_overhead,
    };
    let stats =
        drive(tree, drive_cfg, scheduler, &mut backend).map_err(|e| to_sim_error(e, tree))?;
    let summary = RunSummary {
        scheduler: name,
        makespan: backend.now,
        peak_actual: stats.peak_actual,
        peak_booked: stats.peak_booked,
        scheduling_seconds: stats.scheduling_seconds,
        events: stats.events,
        tasks_run: stats.completed,
    };
    Ok((summary, backend))
}

/// Runs `scheduler` on `tree` under `cfg` and returns the trace.
///
/// The engine is generic over the policy; all of the paper's heuristics
/// (Activation, MemBooking, MemBookingRedTree) implement [`Scheduler`].
pub fn simulate<S: Scheduler>(
    tree: &TaskTree,
    cfg: SimConfig,
    scheduler: S,
) -> Result<Trace, SimError> {
    let (summary, backend) = run(tree, cfg, scheduler, true)?;
    Ok(Trace {
        scheduler: summary.scheduler,
        processors: cfg.processors,
        memory: cfg.memory,
        makespan: summary.makespan,
        records: backend.records.expect("asked to record"),
        peak_actual: summary.peak_actual,
        peak_booked: summary.peak_booked,
        scheduling_seconds: summary.scheduling_seconds,
        events: summary.events,
        profile: backend.profile,
    })
}

/// [`simulate`] for callers that read only the aggregates: the same run,
/// schedule and checks, but no per-task record is kept (40 bytes a node,
/// and two fewer cache lines touched per task).
pub fn simulate_summary<S: Scheduler>(
    tree: &TaskTree,
    cfg: SimConfig,
    scheduler: S,
) -> Result<RunSummary, SimError> {
    run(tree, cfg, scheduler, false).map(|(summary, _)| summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_tree::{TaskSpec, TaskTree};

    /// A permissive scheduler used to exercise the engine: books the whole
    /// memory bound up front and greedily starts any available task in id
    /// order.
    struct Greedy<'a> {
        tree: &'a TaskTree,
        bound: u64,
        remaining_children: Vec<usize>,
        ready: Vec<NodeId>,
        started: Vec<bool>,
    }

    impl<'a> Greedy<'a> {
        fn new(tree: &'a TaskTree, bound: u64) -> Self {
            let remaining_children: Vec<usize> = tree.nodes().map(|i| tree.degree(i)).collect();
            let ready = tree.leaves().collect();
            Greedy {
                tree,
                bound,
                remaining_children,
                ready,
                started: vec![false; tree.len()],
            }
        }
    }

    impl Scheduler for Greedy<'_> {
        fn name(&self) -> &str {
            "greedy-test"
        }
        fn on_event(&mut self, finished: &[NodeId], idle: usize, to_start: &mut Vec<NodeId>) {
            for &j in finished {
                if let Some(p) = self.tree.parent(j) {
                    self.remaining_children[p.index()] -= 1;
                    if self.remaining_children[p.index()] == 0 {
                        self.ready.push(p);
                    }
                }
            }
            self.ready.sort_unstable();
            let mut k = 0;
            while k < self.ready.len() && to_start.len() < idle {
                let i = self.ready[k];
                if !self.started[i.index()] {
                    self.started[i.index()] = true;
                    to_start.push(i);
                    self.ready.remove(k);
                } else {
                    k += 1;
                }
            }
        }
        fn booked(&self) -> u64 {
            self.bound
        }
    }

    fn fork() -> TaskTree {
        // Root 0 (t=1); leaves 1 (t=2), 2 (t=3).
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

    #[test]
    fn parallel_fork_runs_leaves_concurrently() {
        let t = fork();
        let trace = simulate(&t, SimConfig::new(2, 1000), Greedy::new(&t, 1000)).unwrap();
        // Leaves in parallel: finish at 2 and 3; root runs 3..4.
        assert_eq!(trace.makespan, 4.0);
        assert_eq!(trace.max_concurrency(), 2);
        assert_eq!(trace.record(NodeId(0)).start, 3.0);
    }

    #[test]
    fn single_processor_serialises() {
        let t = fork();
        let trace = simulate(&t, SimConfig::new(1, 1000), Greedy::new(&t, 1000)).unwrap();
        assert_eq!(trace.makespan, t.total_time());
        assert_eq!(trace.max_concurrency(), 1);
    }

    #[test]
    fn actual_memory_tracked() {
        let t = fork();
        let trace = simulate(
            &t,
            SimConfig::new(2, 1000).with_profile(),
            Greedy::new(&t, 1000),
        )
        .unwrap();
        // Both leaves running: (0+2) + (0+3) = 5; then root with inputs:
        // 2 + 3 + 1 = 6.
        assert_eq!(trace.peak_actual, 6);
        assert!(!trace.profile.is_empty());
    }

    #[test]
    fn booking_enforcement_catches_overbound() {
        let t = fork();
        // Scheduler books 1000 but the bound is 10.
        let err = simulate(&t, SimConfig::new(2, 10), Greedy::new(&t, 1000)).unwrap_err();
        assert!(matches!(err, SimError::BookedOverBound { .. }));
    }

    #[test]
    fn booking_enforcement_catches_underbooking() {
        let t = fork();
        // Books 1 — less than the actual resident memory.
        let err = simulate(&t, SimConfig::new(2, 10), Greedy::new(&t, 1)).unwrap_err();
        assert!(matches!(err, SimError::ActualOverBooked { .. }));
    }

    #[test]
    fn zero_processors_rejected() {
        let t = fork();
        let err = simulate(&t, SimConfig::new(0, 10), Greedy::new(&t, 10)).unwrap_err();
        assert!(matches!(err, SimError::BadConfig(_)));
    }

    /// A scheduler that never starts anything stalls.
    struct Lazy;
    impl Scheduler for Lazy {
        fn name(&self) -> &str {
            "lazy"
        }
        fn on_event(&mut self, _: &[NodeId], _: usize, _: &mut Vec<NodeId>) {}
        fn booked(&self) -> u64 {
            0
        }
    }

    #[test]
    fn stall_detected() {
        let t = fork();
        let err = simulate(&t, SimConfig::new(2, 10), Lazy).unwrap_err();
        assert_eq!(
            err,
            SimError::Stalled {
                completed: 0,
                total: 3,
                booked: 0
            }
        );
    }

    /// A scheduler that violates precedence.
    struct Eager<'a> {
        tree: &'a TaskTree,
        fired: bool,
    }
    impl Scheduler for Eager<'_> {
        fn name(&self) -> &str {
            "eager"
        }
        fn on_event(&mut self, _: &[NodeId], _: usize, to_start: &mut Vec<NodeId>) {
            if !self.fired {
                self.fired = true;
                to_start.push(self.tree.root());
            }
        }
        fn booked(&self) -> u64 {
            u64::MAX
        }
    }

    #[test]
    fn precedence_violation_detected() {
        let t = fork();
        let err = simulate(
            &t,
            SimConfig {
                enforce_booking: false,
                ..SimConfig::new(2, u64::MAX)
            },
            Eager {
                tree: &t,
                fired: false,
            },
        )
        .unwrap_err();
        assert!(matches!(err, SimError::PrecedenceViolation { .. }));
    }

    /// A scheduler that starts the same leaf twice.
    struct Twice(NodeId);
    impl Scheduler for Twice {
        fn name(&self) -> &str {
            "twice"
        }
        fn on_event(&mut self, _: &[NodeId], _: usize, to_start: &mut Vec<NodeId>) {
            to_start.extend([self.0, self.0]);
        }
        fn booked(&self) -> u64 {
            u64::MAX
        }
    }

    #[test]
    fn errors_on_a_renumbered_tree_name_caller_ids() {
        // Leaves first: the caller's root 0 is node 2 of the layout, the
        // caller's leaf 2 is node 0.
        let t = fork()
            .renumbered(vec![NodeId(2), NodeId(1), NodeId(0)])
            .unwrap();
        let cfg = SimConfig {
            enforce_booking: false,
            ..SimConfig::new(2, u64::MAX)
        };
        let eager = Eager {
            tree: &t,
            fired: false,
        };
        assert_eq!(t.root(), NodeId(2));
        assert_eq!(
            simulate(&t, cfg, eager).unwrap_err(),
            SimError::PrecedenceViolation { node: NodeId(0) }
        );
        assert_eq!(
            simulate_summary(&t, cfg, Twice(NodeId(0))).unwrap_err(),
            SimError::DoubleStart { node: NodeId(2) }
        );
    }

    #[test]
    fn summary_is_the_trace_without_its_records() {
        let t = fork();
        let trace = simulate(&t, SimConfig::new(2, 1000), Greedy::new(&t, 1000)).unwrap();
        let mut summary =
            simulate_summary(&t, SimConfig::new(2, 1000), Greedy::new(&t, 1000)).unwrap();
        summary.scheduling_seconds = trace.scheduling_seconds; // wall clock
        assert_eq!(summary, trace.summary());
        assert_eq!(summary.tasks_run, t.len());
    }

    #[test]
    fn zero_time_tasks_complete_in_one_instant() {
        let t = TaskTree::from_parents(
            &[None, Some(0)],
            &[TaskSpec::new(0, 1, 0.0), TaskSpec::new(0, 1, 0.0)],
        )
        .unwrap();
        let trace = simulate(&t, SimConfig::new(1, 100), Greedy::new(&t, 100)).unwrap();
        assert_eq!(trace.makespan, 0.0);
    }
}
