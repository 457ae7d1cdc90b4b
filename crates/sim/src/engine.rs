//! The discrete-event engine: a virtual clock under the shared
//! [`DriverCore`], stepped by the engine's own run loop — the simulator's
//! stepper of the core (the runtime's gang step is the other).

use crate::driver::{DriveConfig, DriveError, DriveStats, DriverCore, Rescheduler};
use crate::moldable::SpeedupModel;
use crate::scheduler::Scheduler;
use crate::trace::{AllotmentSegment, TaskRecord, Trace};
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
    /// How a task's running time scales with its allotment; a unit
    /// allotment under the default [`SpeedupModel::Linear`] runs in
    /// exactly `t_i`.
    pub speedup: SpeedupModel,
}

impl SimConfig {
    /// `p` processors, memory `M`, linear speedup.
    pub fn new(processors: usize, memory: u64) -> Self {
        SimConfig {
            processors,
            memory,
            speedup: SpeedupModel::Linear,
        }
    }

    /// Overrides the speedup model.
    pub fn with_speedup(mut self, speedup: SpeedupModel) -> Self {
        self.speedup = speedup;
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

/// A predicted completion on the heap. The derived order compares
/// `(finish, label)` first and labels are unique among running tasks, so
/// simultaneous completions pop in ascending caller id whatever the
/// tree's own numbering — and the pop order decides which lane frees
/// first. A resize leaves the old prediction behind; `gen` tells it from
/// the current one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Running {
    finish: Time,
    label: NodeId,
    node: NodeId,
    lane: u32,
    gen: u32,
}

/// Virtual-clock state of the task running on one lane.
#[derive(Clone, Copy)]
struct Lane {
    /// The task, `None` while the lane is free.
    node: Option<NodeId>,
    /// Sequential work left as of `segment_start`.
    remaining: f64,
    /// When the current constant-allotment segment began, and the driver
    /// event that opened it.
    segment_start: f64,
    segment_epoch: u64,
    /// Current allotment.
    procs: u32,
    /// Bumped on every resize; heap entries carry the generation they were
    /// pushed under, so stale completion times are skipped on pop.
    gen: u32,
}

/// The virtual clock: tasks "run" on a completion-time heap with
/// the speedup model applied, and a batch is everything finishing at the
/// next instant. Every running task holds one *lane* — a processor id off
/// the free list, its [`TaskRecord::processor`] — and its state lives in
/// the `p`-sized lane table, so a run that records nothing keeps no
/// per-node array at all. Resizes are exact: the model is linear in the
/// sequential time, so the work a segment consumed is `len / t(1, q)` and
/// the remainder reruns at the new allotment from the resize instant.
struct Clock<'t> {
    tree: &'t TaskTree,
    model: SpeedupModel,
    now: f64,
    running: BinaryHeap<Reverse<Running>>,
    lanes: Vec<Lane>,
    free_lanes: Vec<u32>,
    /// Per-task records, indexed by node id; `None` when the caller only
    /// wants the run's aggregates.
    records: Option<Vec<TaskRecord>>,
    /// Allotment history, kept only for a recorded run that can resize.
    segments: Option<Vec<AllotmentSegment>>,
}

impl<'t> Clock<'t> {
    fn new(tree: &'t TaskTree, cfg: &SimConfig, record_tasks: bool, malleable: bool) -> Self {
        let free = Lane {
            node: None,
            remaining: 0.0,
            segment_start: 0.0,
            segment_epoch: 0,
            procs: 0,
            gen: 0,
        };
        Clock {
            tree,
            model: cfg.speedup,
            now: 0.0,
            // Without resizes at most one entry per processor is ever in
            // flight; sizing up front keeps the steady-state loop
            // allocation-free.
            running: BinaryHeap::with_capacity(cfg.processors.min(tree.len()) + 1),
            lanes: vec![free; cfg.processors],
            free_lanes: (0..cfg.processors as u32).rev().collect(),
            records: record_tasks.then(|| {
                vec![
                    TaskRecord {
                        start: f64::NAN,
                        finish: f64::NAN,
                        processor: 0,
                        procs: 0,
                        start_epoch: 0,
                        finish_epoch: 0,
                    };
                    tree.len()
                ]
            }),
            segments: (record_tasks && malleable).then(Vec::new),
        }
    }

    /// The lane task `i` runs on (a scan of at most `p` entries).
    fn lane_of(&self, i: NodeId) -> Option<usize> {
        self.lanes.iter().position(|l| l.node == Some(i))
    }

    /// Whether heap entry `r` is still its task's prediction: a resize
    /// outdates it, and once the task is gone its lane may be reused.
    fn is_live(&self, r: &Running) -> bool {
        let l = &self.lanes[r.lane as usize];
        l.node == Some(r.node) && l.gen == r.gen
    }

    /// Sequential work lane `l` has left at the current instant.
    fn remaining_now(&self, l: &Lane) -> f64 {
        let elapsed = self.now - l.segment_start;
        (l.remaining - elapsed / self.model.time(1.0, l.procs as usize)).max(0.0)
    }

    /// Closes lane `l`'s current segment at the current instant.
    fn close_segment(&mut self, l: Lane) {
        if let (Some(segments), Some(node)) = (&mut self.segments, l.node) {
            segments.push(AllotmentSegment {
                node,
                start: l.segment_start,
                end: self.now,
                procs: l.procs,
                epoch: l.segment_epoch,
            });
        }
    }

    /// Starts task `i` on a gang of `procs` processors at the current
    /// instant, on a free lane; `epoch` is the driver event that started it.
    fn launch(&mut self, i: NodeId, procs: usize, epoch: u64) {
        let lane = self
            .free_lanes
            .pop()
            .expect("driver enforces the idle limit");
        let time = self.tree.time(i);
        let finish = self.now + self.model.time(time, procs);
        self.lanes[lane as usize] = Lane {
            node: Some(i),
            remaining: time,
            segment_start: self.now,
            segment_epoch: epoch,
            procs: procs as u32,
            gen: 0,
        };
        if let Some(records) = &mut self.records {
            records[i.index()] = TaskRecord {
                start: self.now,
                finish,
                processor: lane,
                procs: procs as u32,
                start_epoch: epoch,
                finish_epoch: 0,
            };
        }
        self.running.push(Reverse(Running {
            finish: Time(finish),
            label: self.tree.label(i),
            node: i,
            lane,
            gen: 0,
        }));
    }

    /// Moves the running task `i` to `to` processors from the current
    /// instant: the work left reruns at the new allotment.
    fn resize(&mut self, i: NodeId, from: usize, to: usize, epoch: u64) {
        let lane = self
            .lane_of(i)
            .expect("the core resizes running tasks only");
        let mut l = self.lanes[lane];
        debug_assert_eq!(l.procs as usize, from, "the core and the clock agree");
        self.close_segment(l);
        l.remaining = self.remaining_now(&l);
        l.segment_start = self.now;
        l.segment_epoch = epoch;
        l.procs = to as u32;
        l.gen += 1;
        self.lanes[lane] = l;
        let finish = self.now + self.model.time(l.remaining, to);
        if let Some(records) = &mut self.records {
            let r = &mut records[i.index()];
            r.finish = finish;
            r.procs = r.procs.max(to as u32);
        }
        self.running.push(Reverse(Running {
            finish: Time(finish),
            label: self.tree.label(i),
            node: i,
            lane: lane as u32,
            gen: l.gen,
        }));
    }

    /// Progress of the running task `i` as `(done, total)` in thousandths
    /// of its work, for the rescheduler's snapshot.
    fn progress(&self, i: NodeId) -> Option<(u32, u32)> {
        const GRAIN: u32 = 1_000;
        let l = &self.lanes[self.lane_of(i)?];
        let total = self.tree.time(i);
        if total <= 0.0 {
            return Some((GRAIN, GRAIN));
        }
        let done = (1.0 - self.remaining_now(l) / total).clamp(0.0, 1.0);
        Some(((done * GRAIN as f64).round() as u32, GRAIN))
    }

    /// Advances the clock to the next completion instant and pushes every
    /// task finishing then into `batch`; `epoch` is the event the batch
    /// takes effect at, minus one. The core guarantees a task in flight.
    fn advance(&mut self, epoch: u64, batch: &mut Vec<NodeId>) {
        // The clock advances to the next *genuine* completion: drop the
        // predictions resizes have outdated first.
        while self.running.peek().is_some_and(|r| !self.is_live(&r.0)) {
            self.running.pop();
        }
        let Reverse(Running { finish, .. }) = *self
            .running
            .peek()
            .expect("the core checks a task is in flight");
        self.now = finish.0;
        while let Some(&Reverse(next)) = self.running.peek() {
            if next.finish > finish {
                break;
            }
            self.running.pop();
            if !self.is_live(&next) {
                continue;
            }
            batch.push(next.node);
            let lane = self.lanes[next.lane as usize];
            self.close_segment(lane);
            self.lanes[next.lane as usize].node = None;
            self.free_lanes.push(next.lane);
            if let Some(records) = &mut self.records {
                let r = &mut records[next.node.index()];
                r.finish = finish.0;
                // Completions take effect at the *next* scheduler epoch.
                r.finish_epoch = epoch + 1;
            }
        }
    }
}

/// The one run loop: steps a [`DriverCore`] for `scheduler` over `tree`
/// against a fresh virtual clock — each tick's launches, then its
/// resizes, then the clock advances to the next completion batch — and
/// returns the aggregates plus the clock, which holds the makespan and
/// whatever the run was asked to record.
fn run<'t, S: Scheduler>(
    tree: &'t TaskTree,
    cfg: SimConfig,
    scheduler: S,
    rescheduler: Option<&mut dyn Rescheduler>,
    record_tasks: bool,
) -> Result<(DriveStats, Clock<'t>), DriveError> {
    cfg.speedup.check().map_err(DriveError::BadConfig)?;
    let mut clock = Clock::new(tree, &cfg, record_tasks, rescheduler.is_some());
    // Shorten the rescheduler's object lifetime to the tree's borrow.
    let rescheduler = rescheduler.map(|r| -> &mut dyn Rescheduler { r });
    let drive_cfg = DriveConfig::new(cfg.processors, cfg.memory);
    let mut core: DriverCore<'_, S> = DriverCore::new(tree, drive_cfg, scheduler, rescheduler)?;
    let mut batch = Vec::with_capacity(cfg.processors.min(tree.len()));
    loop {
        let tick = core.step(&mut batch, |i| clock.progress(i))?;
        for &(i, q) in tick.launches {
            clock.launch(i, q, tick.epoch);
        }
        for r in tick.resizes {
            clock.resize(r.node, r.from, r.to, tick.epoch);
        }
        if tick.done {
            return Ok((core.stats(), clock));
        }
        batch.clear();
        clock.advance(tick.epoch, &mut batch);
    }
}

/// Runs `scheduler` on `tree` under `cfg` and returns the trace.
///
/// The engine is generic over the policy: the paper's heuristics
/// (Activation, MemBooking, MemBookingRedTree) start every task on one
/// processor, a moldable policy starts gangs whose running time
/// [`SimConfig::speedup`] scales — the same [`Scheduler`] trait, loop and
/// trace either way.
pub fn simulate<S: Scheduler>(
    tree: &TaskTree,
    cfg: SimConfig,
    scheduler: S,
) -> Result<Trace, DriveError> {
    simulate_with(tree, cfg, scheduler, None)
}

/// [`simulate`] with an optional [`Rescheduler`]: the policy's malleable
/// decisions run against the virtual clock, predicting the makespan the
/// threaded/async backends should approach. With a rescheduler the trace
/// carries the full [`Trace::segments`] history (and validates
/// segment-wise).
pub fn simulate_with<S: Scheduler>(
    tree: &TaskTree,
    cfg: SimConfig,
    scheduler: S,
    rescheduler: Option<&mut dyn Rescheduler>,
) -> Result<Trace, DriveError> {
    let name = scheduler.name().to_string();
    let (stats, clock) = run(tree, cfg, scheduler, rescheduler, true)?;
    Ok(Trace {
        scheduler: name,
        processors: cfg.processors,
        memory: cfg.memory,
        speedup: cfg.speedup,
        makespan: clock.now,
        records: clock.records.expect("asked to record"),
        peak_actual: stats.peak_actual,
        peak_booked: stats.peak_booked,
        peak_busy: stats.peak_busy,
        scheduling_seconds: stats.scheduling_seconds,
        events: stats.events,
        segments: clock.segments.unwrap_or_default(),
    })
}

/// [`simulate_with`] for callers that read only the aggregates: the same
/// run, schedule and checks, but no per-task record (40 bytes a node, and
/// two fewer cache lines touched per task) and no allotment segment is
/// kept. Returns the makespan and the driver's [`DriveStats`].
pub fn simulate_summary<S: Scheduler>(
    tree: &TaskTree,
    cfg: SimConfig,
    scheduler: S,
    rescheduler: Option<&mut dyn Rescheduler>,
) -> Result<(f64, DriveStats), DriveError> {
    run(tree, cfg, scheduler, rescheduler, false).map(|(stats, clock)| (clock.now, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fork, Greedy, Lazy, Once};
    use memtree_tree::{TaskSpec, TaskTree};

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
        let trace = simulate(&t, SimConfig::new(2, 1000), Greedy::new(&t, 1000)).unwrap();
        // Both leaves running: (0+2) + (0+3) = 5; then root with inputs:
        // 2 + 3 + 1 = 6.
        assert_eq!(trace.peak_actual, 6);
    }

    #[test]
    fn booking_enforcement_catches_overbound() {
        let t = fork();
        // Scheduler books 1000 but the bound is 10.
        let err = simulate(&t, SimConfig::new(2, 10), Greedy::new(&t, 1000)).unwrap_err();
        assert!(matches!(err, DriveError::BookedOverBound { .. }));
    }

    #[test]
    fn booking_enforcement_catches_underbooking() {
        let t = fork();
        // Books 1 — less than the actual resident memory.
        let err = simulate(&t, SimConfig::new(2, 10), Greedy::new(&t, 1)).unwrap_err();
        assert!(matches!(err, DriveError::ActualOverBooked { .. }));
    }

    #[test]
    fn zero_processors_rejected() {
        let t = fork();
        let err = simulate(&t, SimConfig::new(0, 10), Greedy::new(&t, 10)).unwrap_err();
        assert!(matches!(err, DriveError::BadConfig(_)));
    }

    /// A scheduler that never starts anything stalls.
    #[test]
    fn stall_detected() {
        let err = simulate(&fork(), SimConfig::new(2, 10), Lazy(0)).unwrap_err();
        assert_eq!(
            err,
            DriveError::Stalled {
                completed: 0,
                total: 3,
                booked: 0
            }
        );
    }

    /// A scheduler that starts the root before its children.
    #[test]
    fn precedence_violation_detected() {
        let t = fork();
        let err = simulate(&t, SimConfig::new(2, u64::MAX), Once(vec![(t.root(), 1)])).unwrap_err();
        assert!(matches!(err, DriveError::PrecedenceViolation { .. }));
    }

    #[test]
    fn errors_on_a_renumbered_tree_name_caller_ids() {
        // Leaves first: the caller's root 0 is node 2 of the layout, the
        // caller's leaf 2 is node 0.
        let t = fork()
            .renumbered(vec![NodeId(2), NodeId(1), NodeId(0)])
            .unwrap();
        assert_eq!(t.root(), NodeId(2));
        assert_eq!(
            simulate(&t, SimConfig::new(2, u64::MAX), Once(vec![(t.root(), 1)])).unwrap_err(),
            DriveError::PrecedenceViolation { node: NodeId(0) }
        );
        // The same leaf started twice.
        let twice = Once(vec![(NodeId(0), 1), (NodeId(0), 1)]);
        assert_eq!(
            simulate_summary(&t, SimConfig::new(2, u64::MAX), twice, None).unwrap_err(),
            DriveError::DoubleStart { node: NodeId(2) }
        );
    }

    #[test]
    fn summary_is_the_trace_without_its_records() {
        let t = fork();
        let trace = simulate(&t, SimConfig::new(2, 1000), Greedy::new(&t, 1000)).unwrap();
        let (makespan, mut stats) =
            simulate_summary(&t, SimConfig::new(2, 1000), Greedy::new(&t, 1000), None).unwrap();
        stats.scheduling_seconds = trace.scheduling_seconds; // wall clock
        assert_eq!(makespan, trace.makespan);
        assert_eq!(stats, trace.stats());
        assert_eq!(stats.completed, t.len());
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
