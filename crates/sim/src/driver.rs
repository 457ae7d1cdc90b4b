//! The shared driver behind every execution platform: one step core that
//! never blocks, and two steppers over it.
//!
//! Every regime runs the same loop: deliver a completion batch to the
//! scheduler, start the requested tasks, re-check the booking invariants,
//! wait for the next batch. Only *where completions come from* differs —
//! a virtual clock, futures, or real worker threads. [`DriverCore`] holds
//! one iteration of that loop and every check and ledger in it: its
//! [`DriverCore::step`] takes the completions, runs the scheduler and
//! returns the tick's launches and resizes for the caller to apply, and
//! never waits for anything. It has one stepper per clock: the engine's
//! run loop over the virtual clock ([`crate::engine`]), and the runtime's
//! gang step, which the threaded pool's workers and the futures
//! platform's pump both call (DESIGN.md §6.4, §6.8).
//!
//! The core is **gang-aware**: every start carries a processor allotment
//! `q ≥ 1`, and the capacity ledger counts processors, not tasks. The
//! classic one-processor-per-task regime is the allotment `q ≡ 1` — not an
//! adapter over this core but this core: one [`Scheduler`] trait, one
//! contract, every platform.
//!
//! The core enforces the full scheduler contract on every platform:
//!
//! * precedence — a started task has all children finished;
//! * single start — no task starts twice;
//! * capacity — the live allotments sum to at most `p` (at most `idle`
//!   processors claimed per event), and no gang is ever launched without
//!   its full processor complement free;
//! * booking — `actual ≤ booked ≤ M` at every event;
//! * progress — no event may leave zero tasks in flight while the tree is
//!   unfinished (the stall/deadlock check).

use crate::scheduler::Scheduler;
use memtree_tree::memory::LiveSet;
use memtree_tree::{BitSet, NodeId, TaskTree};
use std::sync::OnceLock;
// The callback clock's time source. This crate's unit tests swap in one
// they can script (`tests::Instant`), so the estimator is checked exactly.
#[cfg(not(test))]
use std::time::Instant;
#[cfg(test)]
use tests::Instant;

/// Driver configuration shared by all platforms.
#[derive(Clone, Copy, Debug)]
pub struct DriveConfig {
    /// Number of processors / worker threads (the model's `p`).
    pub workers: usize,
    /// Shared memory bound `M` (model units).
    pub memory: u64,
}

impl DriveConfig {
    /// `workers` processors and memory `M`.
    pub fn new(workers: usize, memory: u64) -> Self {
        DriveConfig { workers, memory }
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
/// at the end of the step). Nodes are named by [`TaskTree::label`] on
/// every backend, so a rescheduler sees the caller's ids also when the run
/// is over a renumbered tree.
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

/// What the driver learned from a completed run: the one aggregates
/// record every platform returns beside its own clock (the makespan of
/// [`crate::simulate_summary`], the wall clock of a threaded run) and
/// builds its report from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriveStats {
    /// Events processed (steps: completion batches + the initial event).
    pub events: usize,
    /// Estimated wall-clock seconds spent inside scheduler and rescheduler
    /// callbacks. The callbacks of the first 61 steps are timed exactly;
    /// after them one step in 61 is timed, the samples are dealt round
    /// robin into seven groups, and the median of the group means stands
    /// for every step past the first 61, so one preempted sample moves
    /// one group, not the estimate. A run of at most 61 events reports
    /// its exact sum. Each timing has the stopwatch's own reading,
    /// calibrated once per process, taken off it.
    pub scheduling_seconds: f64,
    /// Peak memory booked by the policy.
    pub peak_booked: u64,
    /// Peak model-level resident memory (replayed by the driver).
    pub peak_actual: u64,
    /// Tasks completed (the full tree on success).
    pub completed: usize,
    /// Peak sum of live allotments (busy processors). Always ≤ the
    /// configured worker count — the driver rejects the start otherwise.
    /// The threaded executor reports its workers' own measurement here
    /// instead of the ledger's: workers inside a payload at once. A gang
    /// member counts from the first shard it claims until it leaves, so
    /// one that finds every shard already claimed never counts.
    pub peak_busy: usize,
}

/// How a driven run fails, on every platform: raised by
/// [`DriverCore::new`], [`DriverCore::step`] and the backends, and
/// returned unchanged by [`crate::simulate`], the threaded executor and
/// the platforms. Nodes are named by [`TaskTree::label`], the id the
/// caller knows them by, also when the run is over a renumbered tree.
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
    /// The backend lost its ability to complete tasks: a payload or a
    /// worker panicked, a thread could not be spawned, a service session
    /// was lost.
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

/// A validated allotment change of a running task, in the numbering of the
/// tree the core drives: the gang of `node` goes from `from` to `to`
/// members. The core's processor ledger already counts `to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resize {
    /// The running task.
    pub node: NodeId,
    /// Its allotment before the change.
    pub from: usize,
    /// Its allotment after the change (≥ 1).
    pub to: usize,
}

/// What one [`DriverCore::step`] asks its caller to do, in this order:
/// launch `launches` (each task on a gang of its allotment), then apply
/// `resizes`. Every check has passed by the time a tick exists.
#[derive(Debug)]
pub struct Tick<'c> {
    /// The step's event index (1-based; the initial step is 1).
    pub epoch: u64,
    /// `(task, allotment)` pairs in the order the scheduler pushed them.
    /// The idle pool covers all of them at once.
    pub launches: &'c [(NodeId, usize)],
    /// The rescheduler's validated grows and shrinks, in its order.
    pub resizes: &'c [Resize],
    /// Actual resident memory after the launches.
    pub actual: u64,
    /// Memory booked by the policy after the launches.
    pub booked: u64,
    /// Every task has completed: there is nothing left to wait for.
    pub done: bool,
}

/// One run's scheduler, optional rescheduler and every ledger and check
/// of the driver, stepped one completion batch at a time. `step` never
/// blocks: it returns what to launch and resize, so the caller can be the
/// simulator's event loop, a pump blocked on a completion channel, or a
/// worker thread that has just finished a task. No decision reads a
/// clock; the clock is read only around the callbacks of the steps that
/// [`DriveStats::scheduling_seconds`] times.
///
/// `R` is the rescheduler's type — `dyn Rescheduler` by default; a core
/// that must cross threads names `dyn Rescheduler + Send`.
pub struct DriverCore<'a, S, R: Rescheduler + ?Sized + 'a = dyn Rescheduler + 'a> {
    tree: &'a TaskTree,
    cfg: DriveConfig,
    scheduler: S,
    rescheduler: Option<&'a mut R>,
    started: BitSet,
    finished: BitSet,
    /// Running tasks with their live allotments, unordered. Every gang
    /// needs ≥ 1 processor, so at most `workers` tasks run: a completion
    /// finds its task by a scan of at most `p` entries and swap-removes
    /// it, and no per-node array is kept for the running set.
    running: Vec<(NodeId, u32)>,
    live: LiveSet<'a>,
    peak_booked: u64,
    completed: usize,
    /// Processors busy (sum of live allotments); tasks in flight are
    /// `running.len()` — distinct ledgers under gangs.
    busy: usize,
    peak_busy: usize,
    events: usize,
    callbacks: CallbackClock,
    done: bool,
    // Step scratch, recycled across every step: the steady state
    // allocates nothing (asserted by tests/alloc_count.rs).
    to_start: Vec<(NodeId, usize)>,
    resizes: Vec<Resize>,
    actions: Vec<RescheduleAction>,
    /// Built only when a rescheduler is attached; the snapshot and its
    /// gang vector are recycled across ticks, and the ascending-caller-id
    /// ordering contract is met by sorting a scratch copy of `running`
    /// only when a snapshot is actually published.
    stats: LiveStats,
    snapshot_order: Vec<(NodeId, u32)>,
}

impl<'a, S: Scheduler, R: Rescheduler + ?Sized + 'a> DriverCore<'a, S, R> {
    /// A core for one run of `scheduler` over `tree`; calls the
    /// scheduler's `on_begin`. The first [`step`](Self::step) is the
    /// initial event, with no completions.
    pub fn new(
        tree: &'a TaskTree,
        cfg: DriveConfig,
        mut scheduler: S,
        rescheduler: Option<&'a mut R>,
    ) -> Result<Self, DriveError> {
        if cfg.workers == 0 {
            return Err(DriveError::BadConfig("zero workers".into()));
        }
        let n = tree.len();
        let slots = cfg.workers.min(n);
        let snapshot_slots = if rescheduler.is_some() { slots } else { 0 };
        scheduler.on_begin();
        Ok(DriverCore {
            tree,
            cfg,
            scheduler,
            rescheduler,
            started: BitSet::new(n),
            finished: BitSet::new(n),
            running: Vec::with_capacity(slots),
            live: LiveSet::new(tree),
            peak_booked: 0,
            completed: 0,
            busy: 0,
            peak_busy: 0,
            events: 0,
            callbacks: CallbackClock::default(),
            done: false,
            to_start: Vec::with_capacity(slots),
            resizes: Vec::new(),
            actions: Vec::new(),
            stats: LiveStats {
                event: 0,
                workers: cfg.workers,
                busy: 0,
                idle: 0,
                completed: 0,
                total: n,
                booked: 0,
                actual: 0,
                gangs: Vec::with_capacity(snapshot_slots),
            },
            snapshot_order: Vec::with_capacity(snapshot_slots),
        })
    }

    /// One event: releases the gangs of `completions` (tasks launched by
    /// earlier ticks, sorted here by the ids the caller knows them by),
    /// hands them to the scheduler, checks and books its starts, checks
    /// `actual ≤ booked ≤ M`, decides done or stalled, and ticks the
    /// rescheduler, whose `progress` reads a running task's shard
    /// progress as `(done, total)` (`None`: not tracked — also the answer
    /// for a gang this very step launches, which has run nothing yet).
    ///
    /// An `Err` is the run's verdict: nothing of the failed step is
    /// returned to launch, and the core must not be stepped again.
    pub fn step(
        &mut self,
        completions: &mut [NodeId],
        progress: impl Fn(NodeId) -> Option<(u32, u32)>,
    ) -> Result<Tick<'_>, DriveError> {
        debug_assert!(!self.done, "stepped a finished run");
        let tree = self.tree;
        // Simultaneous completions are delivered in ascending order of the
        // ids the caller knows them by: the delivery order is part of the
        // scheduler contract, and keying it by label makes a renumbered
        // tree schedule like its source under any policy.
        completions.sort_unstable_by_key(|&i| tree.label(i));
        for &i in completions.iter() {
            self.release(i);
        }

        self.to_start.clear();
        self.resizes.clear();
        let idle = self.cfg.workers - self.busy;
        self.callbacks.call(self.events, || {
            self.scheduler
                .on_event(completions, idle, &mut self.to_start)
        });
        self.events += 1;
        self.start_requested(idle)?;

        // Booking invariants at this instant.
        let booked = self.scheduler.booked();
        let actual = self.live.current();
        self.peak_booked = self.peak_booked.max(booked);
        if booked > self.cfg.memory {
            return Err(DriveError::BookedOverBound {
                booked,
                bound: self.cfg.memory,
            });
        }
        if actual > booked {
            return Err(DriveError::ActualOverBooked { actual, booked });
        }

        if self.completed == tree.len() {
            self.done = true;
        } else if self.running.is_empty() {
            return Err(DriveError::Stalled {
                completed: self.completed,
                total: tree.len(),
                booked,
            });
        } else if self.rescheduler.is_some() {
            // State is settled (starts booked and checked, at least one
            // task in flight): the one instant per event where allotments
            // may change.
            self.tick_rescheduler(booked, actual, progress)?;
        }
        Ok(Tick {
            epoch: self.events as u64,
            launches: &self.to_start,
            resizes: &self.resizes,
            actual,
            booked,
            done: self.done,
        })
    }

    /// Whether every task has completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// The run's aggregates so far (final once [`Tick::done`]).
    pub fn stats(&self) -> DriveStats {
        DriveStats {
            events: self.events,
            scheduling_seconds: self.callbacks.seconds(self.events),
            peak_booked: self.peak_booked,
            peak_actual: self.live.peak(),
            completed: self.completed,
            peak_busy: self.peak_busy,
        }
    }

    /// Completion of running task `i`: its whole gang returns to the idle
    /// pool, and its output becomes resident.
    fn release(&mut self, i: NodeId) {
        debug_assert!(self.started.get(i.index()) && !self.finished.get(i.index()));
        self.finished.set(i.index());
        self.live.finish(i);
        self.completed += 1;
        let pos = self
            .running
            .iter()
            .position(|&(r, _)| r == i)
            .expect("a completed task was running");
        let (_, q) = self.running.swap_remove(pos);
        self.busy -= q as usize;
    }

    /// Checks and books the scheduler's starts. The capacity check counts
    /// processors and comes first: either every requested gang fits in
    /// the idle pool or nothing starts — no partial gangs.
    fn start_requested(&mut self, idle: usize) -> Result<(), DriveError> {
        let requested: usize = self.to_start.iter().map(|&(_, q)| q).sum();
        if requested > idle {
            return Err(DriveError::TooManyStarts { requested, idle });
        }
        let tree = self.tree;
        for &(i, q) in &self.to_start {
            if q == 0 {
                return Err(DriveError::ZeroAllotment {
                    node: tree.label(i),
                });
            }
            if self.started.get(i.index()) {
                return Err(DriveError::DoubleStart {
                    node: tree.label(i),
                });
            }
            if tree
                .children(i)
                .iter()
                .any(|c| !self.finished.get(c.index()))
            {
                return Err(DriveError::PrecedenceViolation {
                    node: tree.label(i),
                });
            }
            self.started.set(i.index());
            self.live.start(i);
            self.busy += q;
            self.running.push((i, q as u32));
        }
        self.peak_busy = self.peak_busy.max(self.busy);
        Ok(())
    }

    /// Publishes a [`LiveStats`] snapshot to the rescheduler and validates
    /// its actions into `resizes`, keeping the processor ledger exact.
    fn tick_rescheduler(
        &mut self,
        booked: u64,
        actual: u64,
        progress: impl Fn(NodeId) -> Option<(u32, u32)>,
    ) -> Result<(), DriveError> {
        let tree = self.tree;
        let Some(resched) = self.rescheduler.as_deref_mut() else {
            return Ok(());
        };
        // The snapshot contract (gangs in ascending caller id) is paid for
        // only here, on the publish path: the running set itself stays
        // unordered for O(1) completion removal.
        self.snapshot_order.clear();
        self.snapshot_order.extend_from_slice(&self.running);
        self.snapshot_order
            .sort_unstable_by_key(|&(i, _)| tree.label(i));
        let stats = &mut self.stats;
        stats.event = self.events as u64;
        stats.busy = self.busy;
        stats.idle = self.cfg.workers - self.busy;
        stats.completed = self.completed;
        stats.booked = booked;
        stats.actual = actual;
        stats.gangs.clear();
        stats
            .gangs
            .extend(self.snapshot_order.iter().map(|&(i, allotment)| {
                let (done, shards) = progress(i).unwrap_or((0, 0));
                GangSnapshot {
                    node: tree.label(i),
                    allotment,
                    shards,
                    shards_done: done,
                }
            }));
        self.actions.clear();
        // The step's 0-based index: `events` already counts it.
        self.callbacks.call(self.events - 1, || {
            resched.tick(&self.stats, &mut self.actions)
        });
        for &action in &self.actions {
            let (node, grow, by) = match action {
                RescheduleAction::Grow { node, extra } => (node, true, extra),
                RescheduleAction::Shrink { node, release } => (node, false, release),
            };
            if by == 0 {
                continue;
            }
            // Actions name tasks as the snapshot did; at most `workers`
            // tasks run, so resolving the label is a short scan.
            let Some(slot) = self
                .running
                .iter_mut()
                .find(|(i, _)| tree.label(*i) == node)
            else {
                return Err(DriveError::Backend(format!(
                    "rescheduler resized {node:?}, which is not running"
                )));
            };
            let (i, from) = (slot.0, slot.1 as usize);
            let to = if grow {
                let idle_now = self.cfg.workers - self.busy;
                if by > idle_now {
                    return Err(DriveError::TooManyStarts {
                        requested: by,
                        idle: idle_now,
                    });
                }
                from + by
            } else {
                if by >= from {
                    // Shrinking to zero members is starting a gang with
                    // none: the same contract violation.
                    return Err(DriveError::ZeroAllotment { node });
                }
                from - by
            };
            self.resizes.push(Resize { node: i, from, to });
            slot.1 = to as u32;
            self.busy = self.busy + to - from;
        }
        // One tick's resizes are atomic for the occupancy ledger: the peak
        // reflects the settled allotments, not the transient order actions
        // were applied in.
        self.peak_busy = self.peak_busy.max(self.busy);
        Ok(())
    }
}

/// Steps the callback clock times exactly before it starts sampling, and
/// the sampling period after them. Prime, so a period in the run (the
/// power-of-two shapes of `memtree_gen::shapes`, a scheduler's cost that
/// recurs every 2ᵏ events) cannot alias with it.
const STRIDE: usize = 61;

/// Groups the samples are dealt into, sample `k` (step `(k + 1)·STRIDE`)
/// to group `k mod GROUPS`. Odd, so a cost that recurs every 2ᵏ samples
/// spreads over the groups (64 ≡ 1 mod 7) instead of filling one.
const GROUPS: usize = 7;

/// Empty clock-read pairs whose minimum is the stopwatch's own reading.
const FLOOR_PAIRS: usize = 32;

/// Seconds `callback` takes, as the callback clock reads them: the
/// stopwatch's own cost included.
fn time(callback: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    callback();
    t0.elapsed().as_secs_f64()
}

/// What the callback clock reads around nothing: the minimum over
/// `FLOOR_PAIRS` empty timings, calibrated once per process.
fn stopwatch_floor() -> f64 {
    static FLOOR: OnceLock<f64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        (0..FLOOR_PAIRS)
            .map(|_| time(|| {}))
            .fold(f64::INFINITY, f64::min)
    })
}

/// The estimate behind [`DriveStats::scheduling_seconds`]. A clock read
/// pair costs about as much as a cheap scheduler callback, so only the
/// steps `0..STRIDE` and every `STRIDE`-th step after them are timed; on a
/// timed step both callbacks are, and each timing has the stopwatch's own
/// reading (`stopwatch_floor`) taken off, clamped at zero. The median of
/// the `GROUPS` group means stands for the steps past `STRIDE`: one
/// outlier sample, a preemption say, moves one group's mean, not the
/// median. Fixed arrays, so the clock allocates nothing.
#[derive(Default)]
struct CallbackClock {
    /// Seconds in the callbacks of steps `0..STRIDE`.
    exact: f64,
    /// Seconds in the callbacks of the sampled steps `STRIDE`, `2·STRIDE`,
    /// …, summed per group.
    sampled: [f64; GROUPS],
}

impl CallbackClock {
    /// Runs a callback of the 0-based step `step`, timing it if the step
    /// is timed.
    fn call(&mut self, step: usize, callback: impl FnOnce()) {
        if step >= STRIDE && !step.is_multiple_of(STRIDE) {
            callback();
            return;
        }
        let seconds = (time(callback) - stopwatch_floor()).max(0.0);
        if step < STRIDE {
            self.exact += seconds;
        } else {
            self.sampled[(step / STRIDE - 1) % GROUPS] += seconds;
        }
    }

    /// Estimated seconds in the callbacks of the first `steps` steps: the
    /// exact prefix, plus the median group mean for every step after it.
    fn seconds(&self, steps: usize) -> f64 {
        if steps <= STRIDE {
            return self.exact;
        }
        // The sampled steps below `steps`: STRIDE, 2·STRIDE, …, at least one.
        let samples = (steps - 1) / STRIDE;
        let groups = samples.min(GROUPS);
        let mut means = [0.0; GROUPS];
        for (g, mean) in means[..groups].iter_mut().enumerate() {
            let count = samples / GROUPS + usize::from(g < samples % GROUPS);
            *mean = self.sampled[g] / count as f64;
        }
        let means = &mut means[..groups];
        means.sort_unstable_by(f64::total_cmp);
        let median = (means[(groups - 1) / 2] + means[groups / 2]) / 2.0;
        self.exact + median * (steps - STRIDE) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fork, Greedy, InOrder, Lazy, Once, Script};
    use memtree_tree::TaskSpec;
    use std::cell::Cell;
    use std::time::Duration;

    /// What [`pump`] handed out: every launch and every resize.
    #[derive(Default)]
    struct Pumped {
        launched: Vec<(NodeId, usize)>,
        resized: Vec<(NodeId, usize, usize)>,
    }

    /// Steps a core to the end of its run on a trivial clock: every task
    /// completes immediately, one batch per event, in launch order, and
    /// every running task reports canned progress (1 of 4 shards).
    fn pump<S: Scheduler>(
        tree: &TaskTree,
        cfg: DriveConfig,
        scheduler: S,
        rescheduler: Option<&mut dyn Rescheduler>,
    ) -> (Result<DriveStats, DriveError>, Pumped) {
        let mut seen = Pumped::default();
        let rescheduler = rescheduler.map(|r| -> &mut dyn Rescheduler { r });
        let mut core: DriverCore<'_, S> = match DriverCore::new(tree, cfg, scheduler, rescheduler) {
            Ok(core) => core,
            Err(e) => return (Err(e), seen),
        };
        let mut batch = Vec::new();
        loop {
            let tick = match core.step(&mut batch, |_| Some((1, 4))) {
                Ok(tick) => tick,
                Err(e) => return (Err(e), seen),
            };
            batch.clear();
            batch.extend(tick.launches.iter().map(|&(i, _)| i));
            seen.launched.extend_from_slice(tick.launches);
            let resized = tick.resizes.iter().map(|r| (r.node, r.from, r.to));
            seen.resized.extend(resized);
            if tick.done {
                return (Ok(core.stats()), seen);
            }
        }
    }

    /// Drives the fork under `scheduler` on `workers` processors, with no
    /// rescheduler.
    fn drive_fork<S: Scheduler>(
        workers: usize,
        memory: u64,
        scheduler: S,
    ) -> (Result<DriveStats, DriveError>, Pumped) {
        pump(&fork(), DriveConfig::new(workers, memory), scheduler, None)
    }

    /// Drives the fork one gang of `procs` at a time, in the order 1, 2, 0,
    /// under a rescheduler that applies `action` at event 1.
    fn drive_fork_resized(
        workers: usize,
        procs: usize,
        action: RescheduleAction,
    ) -> (Result<DriveStats, DriveError>, Pumped, Script) {
        let mut script = Script {
            plan: vec![(1, action)],
            ..Script::default()
        };
        let (outcome, seen) = pump(
            &fork(),
            DriveConfig::new(workers, 1_000),
            InOrder::new(vec![NodeId(1), NodeId(2), NodeId(0)], Some(procs), 1_000),
            Some(&mut script),
        );
        (outcome, seen, script)
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
        let cfg = DriveConfig::new(2, u64::MAX);
        pump(&t, cfg, recorder, None).0.unwrap();
        assert_eq!(
            seen,
            [vec![], vec![NodeId(1), NodeId(2)], vec![NodeId(0)]],
            "completions are ordered by the ids the caller knows"
        );
    }

    #[test]
    fn display_messages() {
        let e = DriveError::Stalled {
            completed: 3,
            total: 10,
            booked: 42,
        };
        assert!(e.to_string().contains("3/10"));
        assert!(e.to_string().contains("42"));
        let e = DriveError::TooManyStarts {
            requested: 5,
            idle: 2,
        };
        assert!(e.to_string().contains('5'));
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
        let (stats, seen) = drive_fork(3, 1_000, InOrder::new(order, Some(3), 1_000));
        let stats = stats.unwrap();
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.peak_busy, 3);
        assert!(seen.launched.iter().all(|&(_, q)| q == 3));
        // One gang at a time: each event starts one task on the whole
        // machine, so there are n + 1 events.
        assert_eq!(stats.events, 4);
    }

    #[test]
    fn gang_capacity_counts_processors_not_tasks() {
        // Two tasks of 2 processors each on a 3-worker machine: 4 > 3.
        let greedy = Once(vec![(NodeId(1), 2), (NodeId(2), 2)]);
        let (err, seen) = drive_fork(3, 1_000, greedy);
        assert_eq!(
            err.unwrap_err(),
            DriveError::TooManyStarts {
                requested: 4,
                idle: 3
            }
        );
        assert!(
            seen.launched.is_empty(),
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
        let (stats, seen, script) = drive_fork_resized(4, 2, grow(1, 2));
        let stats = stats.unwrap();
        assert_eq!(stats.completed, 3);
        // The grown gang held 4 processors before its completion event.
        assert_eq!(stats.peak_busy, 4);
        assert_eq!(seen.resized, vec![(NodeId(1), 2, 4)]);
        // The first tick saw the just-launched gang with its launch
        // allotment and the clock's progress, booking settled.
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
        let (stats, seen, script) = drive_fork_resized(3, 3, shrink(1, 2));
        assert_eq!(stats.unwrap().completed, 3);
        assert_eq!(seen.resized, vec![(NodeId(1), 3, 1)]);
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
        let (err, seen, _) = drive_fork_resized(4, 2, grow(1, 3));
        assert_eq!(
            err.unwrap_err(),
            DriveError::TooManyStarts {
                requested: 3,
                idle: 2
            }
        );
        assert!(seen.resized.is_empty(), "no resize past the ledger");
    }

    #[test]
    fn rescheduler_shrink_to_zero_rejected() {
        let (err, ..) = drive_fork_resized(4, 2, shrink(1, 2));
        assert_eq!(
            err.unwrap_err(),
            DriveError::ZeroAllotment { node: NodeId(1) }
        );
    }

    #[test]
    fn rescheduler_resize_of_not_running_task_rejected() {
        // Node 0 (the root) has not started at event 1.
        let (err, ..) = drive_fork_resized(4, 2, grow(0, 1));
        match err.unwrap_err() {
            DriveError::Backend(msg) => assert!(msg.contains("not running"), "{msg}"),
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
        let mut script = Script {
            plan: vec![(1, grow(2, 1))],
            ..Script::default()
        };
        let leaves = Once(vec![(NodeId(0), 1), (NodeId(1), 1)]);
        let cfg = DriveConfig::new(3, u64::MAX);
        // The policy never starts the root, so the run ends stalled; the
        // first tick is what this test reads.
        let (err, seen) = pump(&t, cfg, leaves, Some(&mut script));
        err.unwrap_err();
        let gangs: Vec<NodeId> = script.snapshots[0].gangs.iter().map(|g| g.node).collect();
        assert_eq!(gangs, [NodeId(1), NodeId(2)], "ascending caller id");
        // Growing the caller's leaf 2 resized the layout's node 0.
        assert_eq!(seen.resized, vec![(NodeId(0), 1, 2)]);
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
        let cfg = DriveConfig::new(2, u64::MAX);
        let eager = Once(vec![(t.root(), 1)]);
        let err = pump(&t, cfg, eager, None).0.unwrap_err();
        assert!(matches!(err, DriveError::PrecedenceViolation { .. }));
    }

    /// One tick's launches come out in the order the scheduler pushed
    /// them, and a completion stepped on its own is one event.
    #[test]
    fn a_ticks_launches_come_out_in_launch_order() {
        let t = fork();
        let cfg = DriveConfig::new(4, u64::MAX);
        let starts = Once(vec![(NodeId(2), 1), (NodeId(1), 3)]);
        let mut core: DriverCore<'_, _> = DriverCore::new(&t, cfg, starts, None).unwrap();
        let tick = core.step(&mut [], |_| None).unwrap();
        assert_eq!(tick.launches, [(NodeId(2), 1), (NodeId(1), 3)]);
        assert_eq!((tick.epoch, tick.done), (1, false));
        assert!(tick.resizes.is_empty());
        let tick = core.step(&mut [NodeId(1)], |_| None).unwrap();
        assert!(tick.launches.is_empty());
        assert_eq!(tick.epoch, 2);
        assert_eq!(core.stats().completed, 1);
    }

    /// A step that fails returns nothing to launch — not even the legal
    /// gang the scheduler pushed before the illegal one.
    #[test]
    fn an_aborted_step_returns_no_launches() {
        let twice = Once(vec![(NodeId(1), 1), (NodeId(2), 1), (NodeId(1), 1)]);
        let (err, seen) = drive_fork(3, 1_000, twice);
        assert_eq!(
            err.unwrap_err(),
            DriveError::DoubleStart { node: NodeId(1) }
        );
        assert!(
            seen.launched.is_empty(),
            "an aborted tick reached the clock"
        );
    }

    thread_local! {
        /// This thread's scripted time in nanoseconds, or `None` while
        /// no script runs and [`Instant`] reads the real clock.
        static SCRIPT: Cell<Option<u64>> = const { Cell::new(None) };
    }

    /// The callback clock's `Instant` in this crate's unit tests: the
    /// real clock, or, inside [`scripted`], a point of the thread's script.
    #[derive(Clone, Copy)]
    pub(super) enum Instant {
        Real(std::time::Instant),
        Scripted(u64),
    }

    impl Instant {
        pub(super) fn now() -> Self {
            match SCRIPT.get() {
                Some(ns) => Instant::Scripted(ns),
                None => Instant::Real(std::time::Instant::now()),
            }
        }

        pub(super) fn elapsed(&self) -> Duration {
            match *self {
                Instant::Real(t0) => t0.elapsed(),
                Instant::Scripted(t0) => {
                    Duration::from_nanos(SCRIPT.get().expect("a reading outlived its script") - t0)
                }
            }
        }
    }

    /// Runs `f` on scripted time, which stands still but for [`advance`].
    /// The stopwatch floor is calibrated on the real clock first, as any
    /// other run of the process would find it.
    fn scripted<T>(f: impl FnOnce() -> T) -> T {
        stopwatch_floor();
        SCRIPT.set(Some(0));
        let out = f();
        SCRIPT.set(None);
        out
    }

    fn advance(by: Duration) {
        let now = SCRIPT.get().expect("advance outside a script");
        SCRIPT.set(Some(now + by.as_nanos() as u64));
    }

    /// Runs `inner`, and spends `cost(step)` of scripted time in the
    /// `on_event` of every 0-based step, adding it to `injected`.
    struct Costly<S> {
        inner: S,
        cost: fn(usize) -> Duration,
        step: usize,
        injected: Duration,
    }

    impl<S: Scheduler> Scheduler for Costly<S> {
        fn name(&self) -> &str {
            "costly-test"
        }
        fn on_event(
            &mut self,
            finished: &[NodeId],
            idle: usize,
            to_start: &mut Vec<(NodeId, usize)>,
        ) {
            let cost = (self.cost)(self.step);
            self.step += 1;
            advance(cost);
            self.injected += cost;
            self.inner.on_event(finished, idle, to_start)
        }
        fn booked(&self) -> u64 {
            self.inner.booked()
        }
    }

    /// Drives a chain of `n` nodes on one worker (`n + 1` events) on
    /// scripted time with `cost` injected; returns the estimate, the
    /// injected seconds, and the estimate worked out by hand: each timed
    /// step reads its cost less the stopwatch floor, the steps below
    /// `STRIDE` count as read, and the median over `GROUPS` groups of the
    /// mean of the sampled steps `(g + 1)·STRIDE`, `(g + 1 + GROUPS)·STRIDE`,
    /// … stands for every step past `STRIDE`.
    fn injected_chain(n: usize, cost: fn(usize) -> Duration) -> (f64, f64, f64) {
        let t = memtree_gen::shapes::chain(n, TaskSpec::new(0, 1, 1.0));
        let mut costly = Costly {
            inner: Greedy::new(&t, 2),
            cost,
            step: 0,
            injected: Duration::ZERO,
        };
        let stats = scripted(|| pump(&t, DriveConfig::new(1, 2), &mut costly, None).0).unwrap();
        let steps = n + 1;
        assert_eq!(stats.events, steps);
        let read = |step: usize| (cost(step).as_secs_f64() - stopwatch_floor()).max(0.0);
        let exact: f64 = (0..steps.min(STRIDE)).map(read).sum();
        let sampled: Vec<f64> = (STRIDE..steps).step_by(STRIDE).map(read).collect();
        let mut means: Vec<f64> = (0..GROUPS.min(sampled.len()))
            .map(|g| {
                let group = sampled[g..].iter().step_by(GROUPS);
                group.clone().sum::<f64>() / group.count() as f64
            })
            .collect();
        means.sort_by(f64::total_cmp);
        let expected = match means.len() {
            0 => exact,
            k => exact + (means[(k - 1) / 2] + means[k / 2]) / 2.0 * (steps - STRIDE) as f64,
        };
        let injected = costly.injected.as_secs_f64();
        (stats.scheduling_seconds, injected, expected)
    }

    /// The estimate is the hand-worked one, to rounding.
    fn assert_exact(estimate: f64, expected: f64) {
        assert!(
            (estimate - expected).abs() <= 1e-9 * expected,
            "estimated {estimate} s, worked out {expected} s"
        );
    }

    #[test]
    fn a_run_past_the_stride_is_estimated_from_samples() {
        let (estimate, injected, expected) = injected_chain(3_000, |_| Duration::from_micros(20));
        assert_exact(estimate, expected);
        let ratio = estimate / injected;
        assert!(
            (0.9..=3.0).contains(&ratio),
            "estimated {estimate} s of {injected} s"
        );
    }

    /// One sampled step stalled for 10 ms (a preemption, say) lands in one
    /// group of seven, and the median group mean is the steady step's.
    /// By hand: all 3 001 steps read 20 µs less the floor. The plain mean
    /// of the 49 samples read 0.66 s here, against 0.07 s injected.
    #[test]
    fn one_outlier_sample_is_not_scaled_into_the_estimate() {
        let stalled = |step: usize| {
            let micros = if step == 10 * STRIDE { 10_000 } else { 20 };
            Duration::from_micros(micros)
        };
        let (estimate, _, expected) = injected_chain(3_000, stalled);
        assert_exact(estimate, expected);
        let steady = Duration::from_micros(20).as_secs_f64();
        assert_exact(estimate, 3_001.0 * (steady - stopwatch_floor()).max(0.0));
        let ratio = estimate / (3_001.0 * steady);
        assert!(
            (0.9..=3.0).contains(&ratio),
            "estimated {estimate} s of a steady {} s",
            3_001.0 * steady
        );
    }

    #[test]
    fn a_run_shorter_than_the_stride_is_timed_exactly() {
        let (estimate, _, expected) = injected_chain(40, |_| Duration::from_micros(100));
        const { assert!(40 + 1 < STRIDE) };
        // Every step was timed, so nothing was scaled: the estimate is the
        // injected time less one stopwatch floor per step.
        assert_exact(estimate, expected);
    }

    /// Starts a chain built root first (`memtree_gen::shapes::chain`)
    /// leaf first, one node per event: about the least a callback can do
    /// and still drive the run.
    struct ChainWalker(usize);

    impl Scheduler for ChainWalker {
        fn name(&self) -> &str {
            "chain-walker-test"
        }
        fn on_event(&mut self, _: &[NodeId], _: usize, to_start: &mut Vec<(NodeId, usize)>) {
            if let Some(next) = self.0.checked_sub(1) {
                self.0 = next;
                to_start.push((NodeId(next as u32), 1));
            }
        }
        fn booked(&self) -> u64 {
            2
        }
    }

    /// A callback that does next to nothing reads next to nothing: less
    /// than half the stopwatch floor per event. Counted in, the stopwatch
    /// alone would read about the floor per event or more (the floor is
    /// the fastest of a few dozen empty pairs; a typical pair is slower).
    /// A run whose thread was preempted inside enough sampled steps to
    /// move the median group can still read high, so the best of a few
    /// runs is what is compared.
    /// Unoptimised, the callback alone costs about the floor (≈ 40 ns per
    /// event against a floor of 35–50 ns), so the claim is checked in
    /// release builds.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "ns-scale timing; run with --release")]
    fn the_stopwatch_is_not_counted() {
        let n = 100_000;
        let t = memtree_gen::shapes::chain(n, TaskSpec::new(0, 1, 1.0));
        let floor = stopwatch_floor();
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let stats = pump(&t, DriveConfig::new(1, 2), ChainWalker(n), None)
                .0
                .unwrap();
            assert_eq!(stats.events, n + 1);
            best = best.min(stats.scheduling_seconds / stats.events as f64);
            if best < floor / 2.0 {
                return;
            }
        }
        panic!(
            "{:.1} ns per event, stopwatch floor {:.1} ns",
            best * 1e9,
            floor * 1e9
        );
    }

    /// A cost that recurs every 2ᵏ steps cannot line up with a prime
    /// sampling period: one sample in 64 lands on it, as one step in 64
    /// pays it, and an odd group count spreads those samples over the
    /// groups.
    #[test]
    fn a_power_of_two_period_does_not_alias_with_the_stride() {
        let every_64th = |step: usize| {
            let wait = if step.is_multiple_of(64) { 200 } else { 0 };
            Duration::from_micros(wait)
        };
        let (estimate, injected, expected) = injected_chain(50_000, every_64th);
        assert_exact(estimate, expected);
        let ratio = estimate / injected;
        assert!(
            (0.75..=1.25).contains(&ratio),
            "estimated {estimate} s of {injected} s"
        );
    }
}
