//! The shared event-loop driver behind every execution platform.
//!
//! The discrete-event engine ([`crate::simulate`]) and the threaded runtime
//! (`memtree_runtime::execute`) used to each hand-roll the same loop:
//! deliver a completion batch to the scheduler, start the requested tasks,
//! re-check the booking invariants, drain the next batch. The only genuine
//! difference between them is *where completions come from* — a virtual
//! clock or real worker threads. [`drive`] owns the loop once; a
//! [`Backend`] supplies the completions.
//!
//! The loop is **gang-aware**: every start carries a processor allotment
//! `q ≥ 1`, and the driver's capacity ledger counts processors, not tasks.
//! The classic one-processor-per-task regime is the allotment `q ≡ 1` —
//! not an adapter over this loop but this loop: one [`Scheduler`] trait,
//! one [`Backend`] trait, one contract, every platform.
//!
//! The driver enforces the full scheduler contract on every platform:
//!
//! * precedence — a started task has all children finished;
//! * single start — no task starts twice;
//! * capacity — the live allotments sum to at most `p` (at most `idle`
//!   processors claimed per event), and no gang is ever launched without
//!   its full processor complement free;
//! * booking — `actual ≤ booked ≤ M` at every event (configurable);
//! * progress — no event may leave zero tasks in flight while the tree is
//!   unfinished (the stall/deadlock check).
//!
//! This is strictly stronger than the old threaded executor, which only
//! checked the booking ledger.

use crate::scheduler::Scheduler;
use memtree_tree::memory::LiveSet;
use memtree_tree::{BitSet, NodeId, TaskTree};

/// Driver configuration shared by all platforms.
#[derive(Clone, Copy, Debug)]
pub struct DriveConfig {
    /// Number of processors / worker threads (the model's `p`).
    pub workers: usize,
    /// Shared memory bound `M` (model units).
    pub memory: u64,
    /// Check `actual ≤ booked ≤ M` at every event. Booking-sound
    /// schedulers (all of the paper's) must pass; disable only for
    /// deliberately unsound baselines.
    pub enforce_booking: bool,
    /// Measure wall-clock time spent inside scheduler callbacks.
    pub measure_overhead: bool,
}

impl DriveConfig {
    /// `workers` processors and memory `M`, all checks on.
    pub fn new(workers: usize, memory: u64) -> Self {
        DriveConfig {
            workers,
            memory,
            enforce_booking: true,
            measure_overhead: true,
        }
    }
}

/// Live snapshot of one running gang, taken between events for a
/// [`Rescheduler`].
#[derive(Clone, Copy, Debug)]
pub struct GangSnapshot {
    /// The running task, by the id the caller knows it by
    /// ([`TaskTree::label`]).
    pub node: NodeId,
    /// Processors currently allotted to it.
    pub allotment: u32,
    /// Payload shards the gang was launched with (0 when the backend does
    /// not track shard progress).
    pub shards: u32,
    /// Shards already completed.
    pub shards_done: u32,
}

impl GangSnapshot {
    /// Fraction of the payload still to run, in `[0, 1]`. Backends that
    /// report no progress count as all-remaining (1.0).
    pub fn remaining_fraction(&self) -> f64 {
        if self.shards == 0 {
            return 1.0;
        }
        1.0 - (self.shards_done.min(self.shards) as f64 / self.shards as f64)
    }
}

/// Snapshot of the driver's state between events, handed to a
/// [`Rescheduler`] once per event (after starts and invariant checks,
/// before the driver blocks for the next completion batch). Nodes are
/// named by [`TaskTree::label`] on every backend, so a rescheduler sees
/// the caller's ids also when the run is over a renumbered tree.
#[derive(Clone, Debug)]
pub struct LiveStats {
    /// The current event index (1-based; the initial event is 1).
    pub event: u64,
    /// Configured processor count `p`.
    pub workers: usize,
    /// Processors currently claimed by running gangs (Σ allotments).
    pub busy: usize,
    /// Processors idle (`workers − busy`).
    pub idle: usize,
    /// Tasks completed so far.
    pub completed: usize,
    /// Total tasks in the tree.
    pub total: usize,
    /// Memory currently booked by the policy.
    pub booked: u64,
    /// Actual resident memory at this instant.
    pub actual: u64,
    /// One snapshot per running gang, in ascending (caller) node id.
    pub gangs: Vec<GangSnapshot>,
}

/// An allotment change requested by a [`Rescheduler`], naming the task as
/// [`LiveStats`] does (by [`TaskTree::label`]). The driver applies
/// actions in order and keeps its processor ledger exact: growing claims
/// idle processors immediately, shrinking returns them immediately (the
/// backend retires the members at the next chunk boundary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RescheduleAction {
    /// Add `extra` processors to the running gang of `node`.
    Grow {
        /// The running task to grow.
        node: NodeId,
        /// Processors to add (must be ≤ the idle pool at application).
        extra: usize,
    },
    /// Release `release` processors from the running gang of `node`
    /// (its allotment must stay ≥ 1).
    Shrink {
        /// The running task to shrink.
        node: NodeId,
        /// Processors to release.
        release: usize,
    },
}

/// A feedback policy over the gang driver: once per event the driver
/// hands it a [`LiveStats`] snapshot and applies whatever allotment
/// changes it pushes (malleable tasks — DESIGN.md §6.10).
pub trait Rescheduler {
    /// Inspect the live state and push allotment changes. Called between
    /// events with at least one task in flight; illegal actions (growing
    /// past the idle pool, shrinking to zero, resizing a task that is not
    /// running) abort the run loudly.
    fn tick(&mut self, stats: &LiveStats, actions: &mut Vec<RescheduleAction>);
}

impl<R: Rescheduler + ?Sized> Rescheduler for &mut R {
    fn tick(&mut self, stats: &LiveStats, actions: &mut Vec<RescheduleAction>) {
        (**self).tick(stats, actions)
    }
}

/// What the driver learned from a completed run.
#[derive(Clone, Copy, Debug)]
pub struct DriveStats {
    /// Events processed (task-completion batches + the initial event).
    pub events: usize,
    /// Wall-clock seconds spent inside scheduler callbacks.
    pub scheduling_seconds: f64,
    /// Peak memory booked by the policy.
    pub peak_booked: u64,
    /// Peak model-level resident memory (replayed by the driver).
    pub peak_actual: u64,
    /// Tasks completed (the full tree on success).
    pub completed: usize,
    /// Peak sum of live allotments (busy processors). Always ≤ the
    /// configured worker count — the driver rejects the start otherwise.
    pub peak_busy: usize,
}

/// Errors raised by [`drive`]; the platforms map these onto their public
/// error types.
#[derive(Clone, Debug, PartialEq)]
pub enum DriveError {
    /// The scheduler requested more starts than idle workers.
    TooManyStarts {
        /// Starts requested.
        requested: usize,
        /// Idle workers available.
        idle: usize,
    },
    /// The scheduler started a task twice.
    DoubleStart {
        /// The doubly started task.
        node: NodeId,
    },
    /// The scheduler started a task whose children were not all finished.
    PrecedenceViolation {
        /// The prematurely started task.
        node: NodeId,
    },
    /// The scheduler assigned a task an allotment of zero processors (or
    /// a rescheduler shrank one to zero).
    ZeroAllotment {
        /// The task with the empty gang.
        node: NodeId,
    },
    /// The scheduler's booked memory exceeded the bound.
    BookedOverBound {
        /// Booked memory at the violation.
        booked: u64,
        /// The memory bound `M`.
        bound: u64,
    },
    /// Actual resident memory exceeded the scheduler's booking.
    ActualOverBooked {
        /// Replayed actual resident memory.
        actual: u64,
        /// Booked memory at the same instant.
        booked: u64,
    },
    /// No task is in flight, the scheduler started none, and the tree is
    /// unfinished — the policy deadlocked.
    Stalled {
        /// Tasks completed before the stall.
        completed: usize,
        /// Total tasks in the tree.
        total: usize,
        /// Booked memory at the stall, for diagnosis.
        booked: u64,
    },
    /// Zero workers or an otherwise unusable configuration.
    BadConfig(String),
    /// The backend lost its ability to complete tasks (e.g. a worker
    /// thread panicked).
    Backend(String),
}

impl std::fmt::Display for DriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriveError::TooManyStarts { requested, idle } => {
                write!(
                    f,
                    "scheduler claimed {requested} processors with only {idle} idle workers"
                )
            }
            DriveError::DoubleStart { node } => write!(f, "task {node:?} started twice"),
            DriveError::PrecedenceViolation { node } => {
                write!(f, "task {node:?} started before its children finished")
            }
            DriveError::ZeroAllotment { node } => {
                write!(f, "zero allotment for {node:?}")
            }
            DriveError::BookedOverBound { booked, bound } => {
                write!(f, "booked memory {booked} exceeds the bound {bound}")
            }
            DriveError::ActualOverBooked { actual, booked } => {
                write!(f, "actual memory {actual} exceeds booked memory {booked}")
            }
            DriveError::Stalled {
                completed,
                total,
                booked,
            } => write!(
                f,
                "scheduler stalled after {completed}/{total} tasks (booked = {booked})"
            ),
            DriveError::BadConfig(msg) => write!(f, "bad driver config: {msg}"),
            DriveError::Backend(msg) => write!(f, "execution backend failed: {msg}"),
        }
    }
}

impl std::error::Error for DriveError {}

/// An execution vehicle for tasks under the shared driver loop.
///
/// The driver owns scheduler interaction and every invariant check; the
/// backend owns task execution: [`Backend::launch`] makes a task run on a
/// gang of `procs` workers (one, for a sequential task),
/// [`Backend::await_batch`] blocks until at least one task completes.
pub trait Backend {
    /// Starts task `i` on a gang of `procs` workers at the current
    /// instant. `epoch` is the driver's event index (useful for trace
    /// records; `u64` — a million-node tree clears 2^32 events without
    /// wrapping). The driver guarantees `procs ≥ 1` and that at least
    /// `procs` workers are idle, so the backend may claim the whole gang
    /// unconditionally — no partial gangs, no hold-and-wait deadlock.
    fn launch(&mut self, i: NodeId, procs: usize, epoch: u64) -> Result<(), DriveError>;

    /// Observation hook, called once per event after the booking checks
    /// with the current memory state (used for memory profiles).
    fn observe(&mut self, actual: u64, booked: u64) {
        let _ = (actual, booked);
    }

    /// Changes the running gang of `i` from `from` to `to` members — the
    /// malleable hook behind [`Rescheduler`]. Growing enrols `to − from`
    /// extra members into the gang; shrinking retires `from − to` members
    /// at their next chunk boundary. The default declines: a backend that
    /// never sees a rescheduler never needs this.
    fn resize(&mut self, i: NodeId, from: usize, to: usize, epoch: u64) -> Result<(), DriveError> {
        let _ = (i, from, to, epoch);
        Err(DriveError::Backend(
            "backend does not support malleable resize".into(),
        ))
    }

    /// Shard progress of the running task `i` as `(done, total)`, for
    /// [`LiveStats`] snapshots. `None` (the default) means the backend
    /// does not track progress; the snapshot then reports the whole
    /// payload as remaining.
    fn progress(&self, i: NodeId) -> Option<(u32, u32)> {
        let _ = i;
        None
    }

    /// Blocks until at least one launched task completes and pushes the
    /// completions into `batch` (driver sorts them). `epoch` is the event
    /// index the completions will take effect at, minus one. The driver
    /// guarantees at least one task is in flight. A completion releases
    /// the task's whole gang at once — the driver returns its allotment to
    /// the idle pool before the next scheduler event.
    fn await_batch(&mut self, epoch: u64, batch: &mut Vec<NodeId>) -> Result<(), DriveError>;
}

/// Runs `scheduler` over `tree` on `backend` until the whole tree has
/// completed or an invariant breaks.
///
/// Every started task carries a processor allotment `q`; the driver's
/// capacity ledger counts processors (the live allotments sum to at most
/// `cfg.workers`), releases a completed task's whole gang at once, and
/// enforces precedence, single-start, booking and stall detection — for
/// sequential (`q ≡ 1`) and moldable policies alike, there is only this
/// loop.
///
/// With a [`Rescheduler`] attached, once per event — after starts are
/// issued and the invariants re-checked, before the driver blocks for the
/// next completion batch — the rescheduler sees a [`LiveStats`] snapshot
/// and may grow or shrink running gangs. The processor ledger stays exact
/// through every transition (grow claims idle processors, shrink returns
/// them immediately), and booking is untouched: memory is booked per task,
/// not per processor.
///
/// The hook is a parameter rather than a `DriveConfig` field because the
/// config is a plain `Copy` value shared by every platform; a trait
/// object would poison that.
pub fn drive<S: Scheduler, B: Backend>(
    tree: &TaskTree,
    cfg: DriveConfig,
    mut scheduler: S,
    backend: &mut B,
    mut rescheduler: Option<&mut dyn Rescheduler>,
) -> Result<DriveStats, DriveError> {
    if cfg.workers == 0 {
        return Err(DriveError::BadConfig("zero workers".into()));
    }
    let n = tree.len();
    let mut started = BitSet::new(n);
    let mut finished = BitSet::new(n);
    // Live allotment of each running task, for gang release on completion.
    let mut allotment = vec![0u32; n];
    // Running tasks, unordered; `run_pos[i]` is task i's slot in `running`
    // (u32::MAX when not running), so completion removal is a swap-remove —
    // O(1) instead of the old sorted-insert/shift. Every gang needs ≥ 1
    // processor, so at most `workers` tasks run at once.
    let mut running: Vec<NodeId> = Vec::with_capacity(cfg.workers.min(n));
    let mut run_pos: Vec<u32> = vec![u32::MAX; n];
    let mut live = LiveSet::new(tree);
    let mut peak_booked = 0u64;
    let mut completed = 0usize;
    // Processors busy (sum of live allotments) and tasks in flight are
    // distinct ledgers under gangs.
    let mut busy = 0usize;
    let mut peak_busy = 0usize;
    let mut in_flight = 0usize;
    let mut events = 0usize;
    let mut scheduling_seconds = 0f64;
    // Event-loop scratch, recycled across every event: the steady state
    // allocates nothing (asserted by tests/alloc_count.rs).
    let mut to_start: Vec<(NodeId, usize)> = Vec::with_capacity(cfg.workers.min(n));
    let mut finished_batch: Vec<NodeId> = Vec::with_capacity(cfg.workers.min(n));
    let mut actions: Vec<RescheduleAction> = Vec::new();
    // LiveStats is built only when a rescheduler is attached; the snapshot
    // struct and its gang vector are recycled across ticks, and the
    // ascending-caller-id ordering contract is met by sorting a scratch
    // copy of `running` only when a snapshot is actually published.
    let mut stats = LiveStats {
        event: 0,
        workers: cfg.workers,
        busy: 0,
        idle: 0,
        completed: 0,
        total: n,
        booked: 0,
        actual: 0,
        gangs: Vec::with_capacity(if rescheduler.is_some() {
            cfg.workers.min(n)
        } else {
            0
        }),
    };
    let mut snapshot_order: Vec<NodeId> = Vec::with_capacity(if rescheduler.is_some() {
        cfg.workers.min(n)
    } else {
        0
    });

    scheduler.on_begin();

    loop {
        // Deliver the event (initial or completions) to the scheduler.
        to_start.clear();
        let idle = cfg.workers - busy;
        let t0 = cfg.measure_overhead.then(std::time::Instant::now);
        scheduler.on_event(&finished_batch, idle, &mut to_start);
        if let Some(t0) = t0 {
            scheduling_seconds += t0.elapsed().as_secs_f64();
        }
        events += 1;

        // Start the requested gangs. The capacity check counts processors,
        // and it happens before any launch: either every requested gang
        // fits in the idle pool or nothing starts — no partial gangs.
        let requested: usize = to_start.iter().map(|&(_, q)| q).sum();
        if requested > idle {
            return Err(DriveError::TooManyStarts { requested, idle });
        }
        for &(i, q) in &to_start {
            if q == 0 {
                return Err(DriveError::ZeroAllotment { node: i });
            }
            if started.get(i.index()) {
                return Err(DriveError::DoubleStart { node: i });
            }
            if tree.children(i).iter().any(|c| !finished.get(c.index())) {
                return Err(DriveError::PrecedenceViolation { node: i });
            }
            started.set(i.index());
            allotment[i.index()] = q as u32;
            backend.launch(i, q, events as u64)?;
            live.start(i);
            busy += q;
            in_flight += 1;
            run_pos[i.index()] = running.len() as u32;
            running.push(i);
        }
        peak_busy = peak_busy.max(busy);

        // Booking invariants at this instant.
        let booked = scheduler.booked();
        peak_booked = peak_booked.max(booked);
        if cfg.enforce_booking {
            if booked > cfg.memory {
                return Err(DriveError::BookedOverBound {
                    booked,
                    bound: cfg.memory,
                });
            }
            if live.current() > booked {
                return Err(DriveError::ActualOverBooked {
                    actual: live.current(),
                    booked,
                });
            }
        }
        backend.observe(live.current(), booked);

        if completed == n {
            break;
        }
        if in_flight == 0 {
            return Err(DriveError::Stalled {
                completed,
                total: n,
                booked,
            });
        }

        // The rescheduler tick: state is settled (starts issued, booking
        // re-checked, at least one task in flight), the driver is about to
        // block — the one instant per event where allotments may change.
        if let Some(resched) = rescheduler.as_deref_mut() {
            // The snapshot contract (gangs in ascending caller id) is paid
            // for only here, on the publish path: the running set itself
            // stays unordered for O(1) completion removal.
            snapshot_order.clear();
            snapshot_order.extend_from_slice(&running);
            snapshot_order.sort_unstable_by_key(|&i| tree.label(i));
            stats.event = events as u64;
            stats.busy = busy;
            stats.idle = cfg.workers - busy;
            stats.completed = completed;
            stats.booked = booked;
            stats.actual = live.current();
            stats.gangs.clear();
            stats.gangs.extend(snapshot_order.iter().map(|&i| {
                let (done, shards) = backend.progress(i).unwrap_or((0, 0));
                GangSnapshot {
                    node: tree.label(i),
                    allotment: allotment[i.index()],
                    shards,
                    shards_done: done,
                }
            }));
            actions.clear();
            let t0 = cfg.measure_overhead.then(std::time::Instant::now);
            resched.tick(&stats, &mut actions);
            if let Some(t0) = t0 {
                scheduling_seconds += t0.elapsed().as_secs_f64();
            }
            for &action in &actions {
                let (node, grow, by) = match action {
                    RescheduleAction::Grow { node, extra } => (node, true, extra),
                    RescheduleAction::Shrink { node, release } => (node, false, release),
                };
                if by == 0 {
                    continue;
                }
                // Actions name tasks as the snapshot did; at most `workers`
                // tasks run, so resolving the label is a short scan.
                let Some(i) = running.iter().copied().find(|&i| tree.label(i) == node) else {
                    return Err(DriveError::Backend(format!(
                        "rescheduler resized {node:?}, which is not running"
                    )));
                };
                let from = allotment[i.index()] as usize;
                let to = if grow {
                    let idle_now = cfg.workers - busy;
                    if by > idle_now {
                        return Err(DriveError::TooManyStarts {
                            requested: by,
                            idle: idle_now,
                        });
                    }
                    from + by
                } else {
                    if by >= from {
                        // Shrinking to zero members is starting a gang
                        // with none: the same contract violation.
                        return Err(DriveError::ZeroAllotment { node: i });
                    }
                    from - by
                };
                backend.resize(i, from, to, events as u64)?;
                allotment[i.index()] = to as u32;
                busy = busy + to - from;
            }
            // One tick's resizes are atomic for the occupancy ledger: the
            // peak reflects the settled allotments, not the transient
            // order actions were applied in.
            peak_busy = peak_busy.max(busy);
        }

        // Block until the next completion batch; each completion releases
        // its whole gang back to the idle pool.
        finished_batch.clear();
        backend.await_batch(events as u64, &mut finished_batch)?;
        // Simultaneous completions are delivered in ascending order of the
        // ids the caller knows them by: the delivery order is part of the
        // scheduler contract, and keying it by label makes a renumbered
        // tree schedule like its source under any policy.
        finished_batch.sort_unstable_by_key(|&i| tree.label(i));
        for &i in &finished_batch {
            debug_assert!(started.get(i.index()) && !finished.get(i.index()));
            finished.set(i.index());
            live.finish(i);
            completed += 1;
            in_flight -= 1;
            busy -= allotment[i.index()] as usize;
            // Swap-remove from the unordered running set, patching the
            // moved task's position index.
            let pos = run_pos[i.index()] as usize;
            debug_assert!(pos < running.len() && running[pos] == i);
            run_pos[i.index()] = u32::MAX;
            running.swap_remove(pos);
            if pos < running.len() {
                run_pos[running[pos].index()] = pos as u32;
            }
        }
    }

    Ok(DriveStats {
        events,
        scheduling_seconds,
        peak_booked,
        peak_actual: live.peak(),
        completed,
        peak_busy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fork, Greedy, InOrder, Lazy, Once, Script};

    /// A trivial backend: tasks complete immediately, one batch per event,
    /// in launch order. It keeps the trait's defaults: no resize, no
    /// progress.
    #[derive(Default)]
    struct Immediate {
        pending: Vec<NodeId>,
        launched: Vec<(NodeId, usize)>,
    }

    impl Backend for Immediate {
        fn launch(&mut self, i: NodeId, procs: usize, _epoch: u64) -> Result<(), DriveError> {
            self.pending.push(i);
            self.launched.push((i, procs));
            Ok(())
        }
        fn await_batch(&mut self, _epoch: u64, batch: &mut Vec<NodeId>) -> Result<(), DriveError> {
            batch.append(&mut self.pending);
            Ok(())
        }
    }

    /// [`Immediate`] plus resize support and canned progress — the
    /// minimal malleable backend.
    #[derive(Default)]
    struct Resizable {
        inner: Immediate,
        resized: Vec<(NodeId, usize, usize)>,
    }

    impl Backend for Resizable {
        fn launch(&mut self, i: NodeId, procs: usize, epoch: u64) -> Result<(), DriveError> {
            self.inner.launch(i, procs, epoch)
        }
        fn await_batch(&mut self, epoch: u64, batch: &mut Vec<NodeId>) -> Result<(), DriveError> {
            self.inner.await_batch(epoch, batch)
        }
        fn resize(&mut self, i: NodeId, from: usize, to: usize, _: u64) -> Result<(), DriveError> {
            self.resized.push((i, from, to));
            Ok(())
        }
        fn progress(&self, _i: NodeId) -> Option<(u32, u32)> {
            Some((1, 4))
        }
    }

    /// Drives the fork under `scheduler` on `workers` processors, with no
    /// rescheduler.
    fn drive_fork<S: Scheduler>(
        workers: usize,
        memory: u64,
        scheduler: S,
    ) -> (Result<DriveStats, DriveError>, Immediate) {
        let mut backend = Immediate::default();
        let cfg = DriveConfig::new(workers, memory);
        let outcome = drive(&fork(), cfg, scheduler, &mut backend, None);
        (outcome, backend)
    }

    /// Drives the fork one gang of `procs` at a time, in the order 1, 2, 0,
    /// under a rescheduler that applies `action` at event 1.
    fn drive_fork_resized<B: Backend + Default>(
        workers: usize,
        procs: usize,
        action: RescheduleAction,
    ) -> (Result<DriveStats, DriveError>, B, Script) {
        let mut backend = B::default();
        let mut script = Script {
            plan: vec![(1, action)],
            ..Script::default()
        };
        let outcome = drive(
            &fork(),
            DriveConfig::new(workers, 1_000),
            InOrder::new(vec![NodeId(1), NodeId(2), NodeId(0)], Some(procs), 1_000),
            &mut backend,
            Some(&mut script),
        );
        (outcome, backend, script)
    }

    fn grow(node: u32, extra: usize) -> RescheduleAction {
        RescheduleAction::Grow {
            node: NodeId(node),
            extra,
        }
    }

    fn shrink(node: u32, release: usize) -> RescheduleAction {
        RescheduleAction::Shrink {
            node: NodeId(node),
            release,
        }
    }

    #[test]
    fn drives_to_completion() {
        let t = fork();
        let stats = drive_fork(2, 1000, Greedy::new(&t, 1000)).0.unwrap();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.peak_booked, 1000);
        // Leaves in one batch, root in the next, plus the final event.
        assert_eq!(stats.events, 3);
        assert_eq!(stats.peak_actual, 6);
    }

    #[test]
    fn batches_are_delivered_in_ascending_label() {
        /// Starts every leaf at once, then the root, and keeps the
        /// labels of each batch it is handed.
        struct Recorder<'a> {
            tree: &'a TaskTree,
            seen: &'a mut Vec<Vec<NodeId>>,
        }
        impl Scheduler for Recorder<'_> {
            fn name(&self) -> &str {
                "recorder"
            }
            fn on_event(
                &mut self,
                finished: &[NodeId],
                _: usize,
                to_start: &mut Vec<(NodeId, usize)>,
            ) {
                if finished.is_empty() {
                    to_start.extend(self.tree.leaves().map(|i| (i, 1)));
                } else if finished != [self.tree.root()] {
                    to_start.push((self.tree.root(), 1));
                }
                let labels = finished.iter().map(|&i| self.tree.label(i));
                self.seen.push(labels.collect());
            }
            fn booked(&self) -> u64 {
                u64::MAX
            }
        }
        // The caller's leaves 1 and 2 become nodes 1 and 0: in one batch,
        // the caller's order is the reverse of the layout's.
        let t = fork()
            .renumbered(vec![NodeId(2), NodeId(1), NodeId(0)])
            .unwrap();
        let mut seen = Vec::new();
        let recorder = Recorder {
            tree: &t,
            seen: &mut seen,
        };
        let mut backend = Immediate::default();
        let cfg = DriveConfig {
            enforce_booking: false,
            ..DriveConfig::new(2, u64::MAX)
        };
        drive(&t, cfg, recorder, &mut backend, None).unwrap();
        assert_eq!(
            seen,
            [vec![], vec![NodeId(1), NodeId(2)], vec![NodeId(0)]],
            "completions are ordered by the ids the caller knows"
        );
    }

    #[test]
    fn zero_workers_rejected() {
        let t = fork();
        assert!(matches!(
            drive_fork(0, 10, Greedy::new(&t, 10)).0,
            Err(DriveError::BadConfig(_))
        ));
    }

    #[test]
    fn stall_detected_with_booked_memory() {
        assert_eq!(
            drive_fork(2, 10, Lazy(7)).0.unwrap_err(),
            DriveError::Stalled {
                completed: 0,
                total: 3,
                booked: 7
            }
        );
    }

    #[test]
    fn booking_violations_detected() {
        let t = fork();
        let err = drive_fork(2, 10, Greedy::new(&t, 1000)).0.unwrap_err();
        assert!(matches!(err, DriveError::BookedOverBound { .. }));
        let err = drive_fork(2, 10, Greedy::new(&t, 1)).0.unwrap_err();
        assert!(matches!(err, DriveError::ActualOverBooked { .. }));
    }

    #[test]
    fn gangs_claim_and_release_whole_allotments() {
        let order = vec![NodeId(1), NodeId(2), NodeId(0)];
        let (stats, backend) = drive_fork(3, 1_000, InOrder::new(order, Some(3), 1_000));
        let stats = stats.unwrap();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.peak_busy, 3);
        assert!(backend.launched.iter().all(|&(_, q)| q == 3));
        // One gang at a time: each event starts one task on the whole
        // machine, so there are n + 1 events.
        assert_eq!(stats.events, 4);
    }

    #[test]
    fn gang_capacity_counts_processors_not_tasks() {
        // Two tasks of 2 processors each on a 3-worker machine: 4 > 3.
        let greedy = Once(vec![(NodeId(1), 2), (NodeId(2), 2)]);
        let (err, backend) = drive_fork(3, 1_000, greedy);
        assert_eq!(
            err.unwrap_err(),
            DriveError::TooManyStarts {
                requested: 4,
                idle: 3
            }
        );
        assert!(
            backend.launched.is_empty(),
            "capacity is checked before any launch: no partial gangs"
        );
    }

    #[test]
    fn zero_allotment_rejected() {
        let err = drive_fork(2, 1_000, Once(vec![(NodeId(1), 0)]))
            .0
            .unwrap_err();
        assert_eq!(err, DriveError::ZeroAllotment { node: NodeId(1) });
    }

    #[test]
    fn rescheduler_tick_sees_settled_state_and_grows() {
        let (stats, backend, script) = drive_fork_resized::<Resizable>(4, 2, grow(1, 2));
        let stats = stats.unwrap();
        assert_eq!(stats.completed, 3);
        // The grown gang held 4 processors before its completion event.
        assert_eq!(stats.peak_busy, 4);
        assert_eq!(backend.resized, vec![(NodeId(1), 2, 4)]);
        // The first tick saw the just-launched gang with its launch
        // allotment and the backend's progress, booking settled.
        let snap = &script.snapshots[0];
        assert_eq!(snap.event, 1);
        assert_eq!((snap.workers, snap.busy, snap.idle), (4, 2, 2));
        assert_eq!(snap.gangs.len(), 1);
        assert_eq!(snap.gangs[0].node, NodeId(1));
        assert_eq!(snap.gangs[0].allotment, 2);
        assert_eq!((snap.gangs[0].shards_done, snap.gangs[0].shards), (1, 4));
        assert!((snap.gangs[0].remaining_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn rescheduler_shrink_frees_capacity_in_the_ledger() {
        let (stats, backend, script) = drive_fork_resized::<Resizable>(3, 3, shrink(1, 2));
        assert_eq!(stats.unwrap().completed, 3);
        assert_eq!(backend.resized, vec![(NodeId(1), 3, 1)]);
        // The completion after the shrink released the *current*
        // allotment (1), not the launch allotment (3): the ledger would
        // underflow otherwise, and the next gang still fit.
        let second = script
            .snapshots
            .iter()
            .find(|s| s.event == 2)
            .expect("a second tick");
        assert_eq!((second.busy, second.idle), (3, 0));
    }

    #[test]
    fn rescheduler_overgrow_rejected() {
        let (err, backend, _) = drive_fork_resized::<Resizable>(4, 2, grow(1, 3));
        assert_eq!(
            err.unwrap_err(),
            DriveError::TooManyStarts {
                requested: 3,
                idle: 2
            }
        );
        assert!(backend.resized.is_empty(), "no resize past the ledger");
    }

    #[test]
    fn rescheduler_shrink_to_zero_rejected() {
        let (err, ..) = drive_fork_resized::<Resizable>(4, 2, shrink(1, 2));
        assert_eq!(
            err.unwrap_err(),
            DriveError::ZeroAllotment { node: NodeId(1) }
        );
    }

    #[test]
    fn rescheduler_resize_of_not_running_task_rejected() {
        // Node 0 (the root) has not started at event 1.
        let (err, ..) = drive_fork_resized::<Resizable>(4, 2, grow(0, 1));
        match err.unwrap_err() {
            DriveError::Backend(msg) => assert!(msg.contains("not running"), "{msg}"),
            other => panic!("expected Backend, got {other:?}"),
        }
    }

    #[test]
    fn backend_without_resize_support_errors_loudly() {
        let (err, ..) = drive_fork_resized::<Immediate>(4, 2, grow(1, 1));
        match err.unwrap_err() {
            DriveError::Backend(msg) => assert!(msg.contains("resize"), "{msg}"),
            other => panic!("expected Backend, got {other:?}"),
        }
    }

    /// A rescheduler sees — and names — tasks by the ids the caller knows,
    /// whatever numbering the run executes in.
    #[test]
    fn live_stats_and_actions_are_in_caller_ids() {
        // Leaves first: the caller's leaves 1 and 2 are nodes 1 and 0.
        let t = fork()
            .renumbered(vec![NodeId(2), NodeId(1), NodeId(0)])
            .unwrap();
        let mut backend = Resizable::default();
        let mut script = Script {
            plan: vec![(1, grow(2, 1))],
            ..Script::default()
        };
        let leaves = Once(vec![(NodeId(0), 1), (NodeId(1), 1)]);
        let cfg = DriveConfig {
            enforce_booking: false,
            ..DriveConfig::new(3, u64::MAX)
        };
        // The policy never starts the root, so the run ends stalled; the
        // first tick is what this test reads.
        drive(&t, cfg, leaves, &mut backend, Some(&mut script)).unwrap_err();
        let gangs: Vec<NodeId> = script.snapshots[0].gangs.iter().map(|g| g.node).collect();
        assert_eq!(gangs, [NodeId(1), NodeId(2)], "ascending caller id");
        // Growing the caller's leaf 2 resized the layout's node 0.
        assert_eq!(backend.resized, vec![(NodeId(0), 1, 2)]);
    }

    #[test]
    fn unit_allotments_report_task_level_peak_busy() {
        let t = fork();
        let stats = drive_fork(2, 1000, Greedy::new(&t, 1000)).0.unwrap();
        // Both leaves run concurrently on unit allotments.
        assert_eq!(stats.peak_busy, 2);
    }

    #[test]
    fn precedence_enforced() {
        let t = fork();
        let mut backend = Immediate::default();
        let cfg = DriveConfig {
            enforce_booking: false,
            ..DriveConfig::new(2, u64::MAX)
        };
        let eager = Once(vec![(t.root(), 1)]);
        let err = drive(&t, cfg, eager, &mut backend, None).unwrap_err();
        assert!(matches!(err, DriveError::PrecedenceViolation { .. }));
    }
}
