//! The threaded executor: real worker threads as a
//! [`Backend`](memtree_sim::Backend) under the shared
//! `memtree_sim::driver` loop.
//!
//! The main thread owns the scheduler and runs
//! [`memtree_sim::drive`]; workers pull **gang-member** entries from
//! a [`BatchQueue`], run their shard of the [`Workload`] payload and report
//! completions back through a second one. A moldable task with allotment
//! `q` is launched as `q` member entries sharing one [`GangState`]: the
//! driver only launches when `q` workers are idle, so all members are
//! picked up without any hold-and-wait — no partial gangs, no deadlock.
//! Dispatch is **batched per driver event** (DESIGN.md §6.4): launches and
//! grows only buffer their entries, and the one flush — one lock, wakes
//! counted against parked workers — happens when the driver is about to
//! block for completions, which it then drains all at once. Members claim
//! payload shards from a shared atomic index (the same dynamic-scheduling
//! idiom as the vendored rayon stand-in), so a member delayed by the OS
//! donates its shards to its gang mates, and the last member out reports
//! the single completion that releases the whole gang.
//!
//! Sequential policies ride the very same pool: they start every task
//! on an allotment of 1, a gang of one. The scheduler sees completions in real-time order — the dynamic regime the
//! paper designs for — while the driver re-asserts `actual ≤ booked ≤ M`
//! at every event, so a booking bug aborts the run rather than silently
//! overcommitting.

use crate::dispatch::BatchQueue;
use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::workload::Workload;
use memtree_sim::driver::{drive, Backend, DriveConfig, DriveError, Rescheduler};
use memtree_sim::Scheduler;
use memtree_tree::{NodeId, TaskTree};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Payload shards per *worker* for a malleable gang. A fixed-allotment
/// gang has exactly one shard per member, but a gang that may grow to the
/// whole machine shards its payload at machine granularity times this
/// oversubscription factor, so retirement (which only happens at shard
/// boundaries) stays responsive and grown members find work to claim.
pub(crate) const MALLEABLE_CHUNKS: usize = 4;

/// Executor configuration.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Number of worker threads (the model's `p`).
    pub workers: usize,
    /// Memory bound `M` (model units).
    pub memory: u64,
}

impl RuntimeConfig {
    /// Worker counts a cross-platform test sweep should cover: the
    /// comma-separated `MEMTREE_TEST_WORKERS` environment variable when
    /// set (the CI matrix pins one count per job), `default` otherwise.
    ///
    /// # Panics
    /// When `MEMTREE_TEST_WORKERS` is set but contains no count ≥ 1.
    pub fn worker_counts_from_env(default: &[usize]) -> Vec<usize> {
        match std::env::var("MEMTREE_TEST_WORKERS") {
            Ok(v) => {
                let counts: Vec<usize> = v
                    .split(',')
                    .filter_map(|s| s.trim().parse().ok())
                    .filter(|&p| p >= 1)
                    .collect();
                assert!(
                    !counts.is_empty(),
                    "MEMTREE_TEST_WORKERS has no counts: {v}"
                );
                counts
            }
            Err(_) => default.to_vec(),
        }
    }
}

/// Outcome of a threaded execution.
#[derive(Clone, Debug)]
pub struct RuntimeReport {
    /// Wall-clock duration of the whole run.
    pub wall_seconds: f64,
    /// Tasks executed (always the full tree on success).
    pub tasks_run: usize,
    /// Peak model-level resident memory.
    pub peak_actual: u64,
    /// Peak booked memory.
    pub peak_booked: u64,
    /// Scheduler events processed on the main thread.
    pub events: usize,
    /// Wall-clock seconds spent inside scheduler callbacks.
    pub scheduling_seconds: f64,
    /// Peak number of worker threads concurrently inside a payload,
    /// measured by the workers themselves (not the driver's ledger). Never
    /// exceeds the configured worker count — the observable half of the
    /// gang-pool capacity invariant.
    pub peak_busy: usize,
}

/// Failures of a threaded execution.
#[derive(Debug)]
pub enum RuntimeError {
    /// The scheduler stopped issuing work with tasks outstanding.
    Stalled {
        /// Completed task count.
        completed: usize,
        /// Total task count.
        total: usize,
    },
    /// The memory ledger caught a booking violation
    /// (`booked > M` or `actual > booked`).
    Ledger(String),
    /// The scheduler broke the start protocol (double start, precedence
    /// violation, or more starts than idle workers).
    Protocol(String),
    /// Zero workers or another unusable configuration.
    BadConfig(String),
    /// A worker thread panicked.
    WorkerPanic,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Stalled { completed, total } => {
                write!(f, "runtime stalled after {completed}/{total} tasks")
            }
            RuntimeError::Ledger(msg) => write!(f, "memory ledger violation: {msg}"),
            RuntimeError::Protocol(msg) => write!(f, "scheduler protocol violation: {msg}"),
            RuntimeError::BadConfig(msg) => write!(f, "bad runtime config: {msg}"),
            RuntimeError::WorkerPanic => write!(f, "a worker thread panicked"),
        }
    }
}

impl std::error::Error for RuntimeError {}

pub(crate) fn to_runtime_error(e: DriveError) -> RuntimeError {
    match e {
        DriveError::Stalled {
            completed, total, ..
        } => RuntimeError::Stalled { completed, total },
        DriveError::BookedOverBound { .. } | DriveError::ActualOverBooked { .. } => {
            RuntimeError::Ledger(e.to_string())
        }
        DriveError::TooManyStarts { .. }
        | DriveError::DoubleStart { .. }
        | DriveError::ZeroAllotment { .. }
        | DriveError::PrecedenceViolation { .. } => RuntimeError::Protocol(e.to_string()),
        DriveError::BadConfig(msg) => RuntimeError::BadConfig(msg),
        DriveError::Backend(_) => RuntimeError::WorkerPanic,
    }
}

/// Shared state of one gang: the payload shards its members claim and the
/// member ledger that decides who reports the completion. One protocol
/// for both gang pools — threaded members here, futures in
/// [`crate::async_platform`] — and the substrate of malleability: a
/// [`Rescheduler`] grows a gang by admitting extra members that share this
/// state, and shrinks it by lowering `target` so surplus members retire
/// at their next shard boundary.
///
/// Public (not `pub(crate)`) so the `memtree_loom` model suite in
/// `tests/model/` can drive the protocol directly under minloom's
/// exhaustive scheduler; the invariants it enumerates are inventoried in
/// DESIGN.md §6.13.
pub struct GangState {
    /// Fixed payload shard count. Equals the launch allotment for a
    /// fixed gang; a malleable gang shards at machine granularity
    /// (workers × [`MALLEABLE_CHUNKS`]) so any allotment in `1..=p`
    /// divides the payload usefully.
    pub(crate) shards: u32,
    /// Next unclaimed payload shard (rayon-style dynamic claiming: a
    /// member delayed by the OS donates its shards to its gang mates).
    next_shard: AtomicUsize,
    /// Shards whose payload has finished executing — the backlog signal
    /// [`Backend::progress`] reports to the rescheduler.
    shards_done: AtomicUsize,
    /// Members the gang is entitled to — the driver's current allotment.
    /// Only the driver thread moves it (via resize), and it never drops
    /// below 1 while the gang runs.
    target: AtomicUsize,
    /// Members admitted and not yet exited. Counts buffered and queued
    /// member entries too: admission increments on the driver thread
    /// *before* the entry is staged, so a slow pickup can never let the
    /// count touch zero early and double-report the completion.
    active: AtomicUsize,
    /// Latches the single completion report. A grow can land on a gang
    /// whose completion is already in flight (the driver resizes before
    /// it reaps the batch); the late members re-raise `active` from zero
    /// and drain it again, and without the latch the last of them would
    /// report the gang a second time.
    reported: AtomicBool,
}

impl GangState {
    /// A fresh gang of `procs` members over `shards` payload shards.
    pub fn new(procs: usize, shards: u32) -> Self {
        GangState {
            shards,
            next_shard: AtomicUsize::new(0),
            shards_done: AtomicUsize::new(0),
            target: AtomicUsize::new(procs),
            active: AtomicUsize::new(procs),
            reported: AtomicBool::new(false),
        }
    }

    /// Claims the next unexecuted payload shard, or `None` when the
    /// payload is exhausted (the member should exit).
    pub fn claim(&self) -> Option<u32> {
        // ordering: Relaxed — the fetch_add only allocates a unique shard
        // index; the payload it indexes was published to every member by
        // the spawn/queue-push edge before the gang started. Model-
        // checked by model/gang.rs::claim_complete_exhaustive.
        let shard = self.next_shard.fetch_add(1, Ordering::Relaxed);
        (shard < self.shards as usize).then_some(shard as u32)
    }

    /// Records one shard's payload as finished (progress accounting).
    pub fn finish_shard(&self) {
        // ordering: AcqRel — the release half publishes the shard's
        // payload effects to whoever observes the count ([`progress`]
        // loads Acquire); the acquire half chains prior finishers so the
        // count covers their payloads too.
        self.shards_done.fetch_add(1, Ordering::AcqRel);
    }

    /// `(shards finished, total shards)` for the rescheduler's backlog.
    pub fn progress(&self) -> (u32, u32) {
        // ordering: Acquire — pairs with the release in [`finish_shard`]:
        // a count of n implies n shards' payload effects are visible.
        let done = self.shards_done.load(Ordering::Acquire);
        (done.min(self.shards as usize) as u32, self.shards)
    }

    /// True when this member must retire at the current shard boundary:
    /// more members are active than the shrunk target entitles, and this
    /// member won the CAS race to be the one that leaves. The CAS floor
    /// guarantees `active` never drops below `max(target, 1)`, so a gang
    /// always keeps a member to finish the payload and report completion.
    pub fn try_retire(&self) -> bool {
        // ordering: Acquire on both loads — the retire decision must see
        // the freshest entitlement a driver-side release published; the
        // CAS below revalidates anyway, so these could arguably relax,
        // but the pairing keeps the proof local. Model-checked by
        // model/gang.rs::shrink_retires_exact_surplus.
        let mut active = self.active.load(Ordering::Acquire);
        loop {
            if active <= 1 || active <= self.target.load(Ordering::Acquire) {
                return false;
            }
            #[cfg(memtree_loom_mutate_cas_floor)]
            {
                // Seeded regression (CI teeth check): a blind decrement
                // instead of the validating CAS lets every member that
                // read the same stale `active` retire at once, dropping
                // the gang below max(target, 1) — the model suite must
                // catch the unfinished payload / missing report.
                self.active.fetch_sub(1, Ordering::AcqRel);
                return true;
            }
            #[cfg(not(memtree_loom_mutate_cas_floor))]
            // ordering: AcqRel/Acquire — success is a member-ledger edit
            // others must observe atomically with the guard above
            // (release publishes this member's payload work, acquire
            // chains the ledger); failure re-reads like the initial load.
            match self.active.compare_exchange_weak(
                active,
                active - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(seen) => active = seen,
            }
        }
    }

    /// Admits `extra` members (driver thread, **before** their member
    /// entries are staged).
    pub fn admit(&self, extra: usize) {
        // ordering: AcqRel ×2, and `target` must rise FIRST. A running
        // member's retire check loads `active` then `target` (both
        // Acquire): if `active` rose first, the member could observe the
        // raised occupancy while still reading the stale entitlement —
        // no happens-before edge forces the fresh `target` — and retire
        // spuriously (harmless for safety, the CAS floor still holds,
        // but it sheds a worker the driver just granted). With `target`
        // first, a member that observes the raised `active` synchronizes
        // with this RMW's release, which already carries the new
        // entitlement. Found by, and model-checked in,
        // model/gang.rs::grow_after_final_shard_reports_once.
        self.target.fetch_add(extra, Ordering::AcqRel);
        self.active.fetch_add(extra, Ordering::AcqRel);
    }

    /// Lowers the member entitlement by `members`; surplus members retire
    /// at their next shard boundary. The driver guarantees the target
    /// stays ≥ 1.
    pub fn release(&self, members: usize) {
        // ordering: AcqRel — the lowered entitlement must be observable
        // to [`try_retire`]'s Acquire loads; acquire half orders it after
        // any prior admit on the driver thread.
        self.target.fetch_sub(members, Ordering::AcqRel);
    }

    /// Records a non-retirement member exit (payload exhausted); true for
    /// the last member out, who must report the gang's completion — at
    /// that point every claimed shard has finished and every member has
    /// already left the occupancy counter.
    pub fn member_exit(&self) -> bool {
        // ordering: AcqRel — the acquire half is load-bearing: the member
        // whose decrement lands on 1 synchronizes with every earlier
        // exit's release, which carries those members' finish_shard
        // writes, so the reporter provably observes the whole payload
        // complete. Model-checked by model/gang.rs (the
        // memtree_loom_mutate_relaxed_exit teeth check downgrades this
        // to Relaxed and the suite must fail on the stale progress read).
        #[cfg(not(memtree_loom_mutate_relaxed_exit))]
        let last_out = self.active.fetch_sub(1, Ordering::AcqRel) == 1;
        #[cfg(memtree_loom_mutate_relaxed_exit)]
        let last_out = self.active.fetch_sub(1, Ordering::Relaxed) == 1;
        // ordering: AcqRel — the latch must be a single atomic
        // read-modify-write: a grow landing after completion re-raises
        // `active` from zero and drains it again, and only the swap keeps
        // the second drain from reporting twice.
        last_out && !self.reported.swap(true, Ordering::AcqRel)
    }
}

/// One worker's membership in a gang-scheduled task.
struct GangMember {
    task: NodeId,
    gang: Arc<GangState>,
}

/// The worker-thread gang backend. Launching a task with allotment `q`
/// (or growing a gang by `q`) only stages `q` member entries; the whole
/// driver tick is flushed to the workers under one lock when the driver
/// is about to block, and completions come back the same way — block for
/// one, take everything. A completion is the reporting member itself, so
/// the gang's state comes home with it and is freed on the driver thread
/// that allocated it (measured ≈ 10 % of a no-op unit task against the
/// last worker out freeing it). With a [`Rescheduler`] attached, running
/// gangs are kept in a registry so it can resize them mid-flight.
struct GangThreadedBackend<'q> {
    tasks: &'q BatchQueue<GangMember>,
    done: &'q BatchQueue<GangMember>,
    /// Member entries staged since the last flush. The driver's capacity
    /// ledger bounds one tick's launches by the worker count, so the
    /// buffer is sized once and the steady state never reallocates it.
    pending: Vec<GangMember>,
    /// Reporting members of the completion batch being reaped (scratch,
    /// recycled across ticks like `pending`).
    reaped: Vec<GangMember>,
    /// Running gangs by task, for `resize`/`progress` — the rescheduler's
    /// hooks and the registry's only readers, so it stays empty without
    /// one.
    gangs: HashMap<NodeId, Arc<GangState>>,
    workers: usize,
    malleable: bool,
}

impl GangThreadedBackend<'_> {
    /// Stages `n ≥ 1` member entries of `gang` for the next flush.
    fn stage_members(&mut self, task: NodeId, gang: Arc<GangState>, n: usize) {
        for _ in 1..n {
            self.pending.push(GangMember {
                task,
                gang: gang.clone(),
            });
        }
        self.pending.push(GangMember { task, gang });
    }
}

impl Backend for GangThreadedBackend<'_> {
    fn launch(&mut self, i: NodeId, procs: usize, _epoch: u64) -> Result<(), DriveError> {
        let shards = if self.malleable {
            (self.workers * MALLEABLE_CHUNKS) as u32
        } else {
            procs as u32
        };
        let gang = Arc::new(GangState::new(procs, shards));
        if self.malleable {
            self.gangs.insert(i, gang.clone());
        }
        self.stage_members(i, gang, procs);
        Ok(())
    }

    fn await_batch(&mut self, _epoch: u64, batch: &mut Vec<NodeId>) -> Result<(), DriveError> {
        // The tick is settled: hand every staged member to the workers in
        // one flush, then block for one completion and take whatever else
        // has arrived. A tick the driver aborts never gets here, and its
        // staged entries are dropped with the backend.
        self.tasks
            .push_batch(&mut self.pending)
            .map_err(|_| DriveError::Backend("workers exited early".into()))?;
        self.done
            .drain_blocking(&mut self.reaped)
            .map_err(|_| DriveError::Backend("a worker thread panicked".into()))?;
        for member in self.reaped.drain(..) {
            if self.malleable {
                self.gangs.remove(&member.task);
            }
            batch.push(member.task);
        }
        Ok(())
    }

    fn resize(&mut self, i: NodeId, from: usize, to: usize, _epoch: u64) -> Result<(), DriveError> {
        let gang = self
            .gangs
            .get(&i)
            .cloned()
            .ok_or_else(|| DriveError::Backend(format!("resize of unknown gang {i:?}")))?;
        if to > from {
            // Admit before staging: the active count covers the buffered
            // entries, so the completion countdown cannot race them.
            gang.admit(to - from);
            self.stage_members(i, gang, to - from);
        } else if to < from {
            gang.release(from - to);
        }
        Ok(())
    }

    fn progress(&self, i: NodeId) -> Option<(u32, u32)> {
        self.gangs.get(&i).map(|g| g.progress())
    }
}

/// Closes both dispatch queues when its thread — a worker or the driver —
/// is done with them, however that happens: a pool that has lost a member
/// must not leave the other workers parked on the task queue or the
/// driver parked on the completion queue.
struct CloseOnExit<'q> {
    tasks: &'q BatchQueue<GangMember>,
    done: &'q BatchQueue<GangMember>,
}

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        self.tasks.close();
        self.done.close();
    }
}

/// Executes `tree` with `cfg.workers` real threads under `scheduler`:
/// each started task claims its allotment of workers as a gang and runs
/// its payload `q`-way parallel (one shard per gang member, dynamically
/// claimed) — a sequential policy's tasks are gangs of one.
///
/// An optional [`Rescheduler`] closes the feedback loop: the driver ticks
/// it once per event with a [`memtree_sim::LiveStats`] snapshot, and
/// grow/shrink actions land on the running gangs through the shared
/// [`GangState`] — growing stages extra member entries, shrinking retires
/// surplus members at their next shard boundary. With a rescheduler
/// present, gangs shard their payload at machine granularity so any
/// allotment divides it usefully.
pub fn execute<S: Scheduler>(
    tree: &TaskTree,
    cfg: RuntimeConfig,
    scheduler: S,
    workload: Workload,
    rescheduler: Option<&mut dyn Rescheduler>,
) -> Result<RuntimeReport, RuntimeError> {
    if cfg.workers == 0 {
        return Err(RuntimeError::BadConfig("zero workers".into()));
    }
    let started_at = std::time::Instant::now();
    let malleable = rescheduler.is_some();

    let tasks = BatchQueue::<GangMember>::with_capacity(cfg.workers);
    let done = BatchQueue::<GangMember>::with_capacity(cfg.workers);
    // Worker-side occupancy measurement, independent of the driver's
    // processor ledger.
    let busy = AtomicUsize::new(0);
    let peak_busy = AtomicUsize::new(0);

    let stats = std::thread::scope(|scope| {
        for _ in 0..cfg.workers {
            let (tasks, done) = (&tasks, &done);
            let (busy, peak_busy) = (&busy, &peak_busy);
            scope.spawn(move || {
                let _shutdown = CloseOnExit { tasks, done };
                while let Some(member) = tasks.pop() {
                    let gang = &member.gang;
                    let now_busy = busy.fetch_add(1, Ordering::AcqRel) + 1;
                    peak_busy.fetch_max(now_busy, Ordering::AcqRel);
                    // A panicking payload must not unwind out of the
                    // scope (it would re-panic on join, and the other
                    // workers would never learn): it ends this worker,
                    // whose exit guard fails the run cleanly.
                    let retired = catch_unwind(AssertUnwindSafe(|| loop {
                        // Shard boundaries are the only malleability
                        // points: check for retirement before claiming.
                        if gang.try_retire() {
                            break true;
                        }
                        let Some(shard) = gang.claim() else {
                            break false;
                        };
                        workload.run_shard(tree, member.task, shard, gang.shards);
                        gang.finish_shard();
                    }));
                    busy.fetch_sub(1, Ordering::AcqRel);
                    let Ok(retired) = retired else { return };
                    // Retired members never report: the member ledger
                    // keeps at least one member who exits via payload
                    // exhaustion, and the last such exit is the
                    // completion — every shard claimed and finished,
                    // every member already out of the occupancy count.
                    if !retired && gang.member_exit() && done.push(member).is_err() {
                        return;
                    }
                }
            });
        }

        // Closing the task queue ends the workers once its backlog is
        // empty (a completion pushed after that is simply refused) — on
        // every way out of the driver, a panicking scheduler included, or
        // the scope's join would wait on parked workers forever.
        let _shutdown = CloseOnExit {
            tasks: &tasks,
            done: &done,
        };
        let mut backend = GangThreadedBackend {
            tasks: &tasks,
            done: &done,
            pending: Vec::with_capacity(cfg.workers),
            reaped: Vec::with_capacity(cfg.workers),
            gangs: HashMap::new(),
            workers: cfg.workers,
            malleable,
        };
        drive(
            tree,
            DriveConfig::new(cfg.workers, cfg.memory),
            scheduler,
            &mut backend,
            rescheduler,
        )
    });
    debug_assert_eq!(
        busy.load(Ordering::Acquire),
        0,
        "every gang member left its payload before the pool shut down"
    );

    let stats = stats.map_err(to_runtime_error)?;
    Ok(RuntimeReport {
        wall_seconds: started_at.elapsed().as_secs_f64(),
        tasks_run: stats.completed,
        peak_actual: stats.peak_actual,
        peak_booked: stats.peak_booked,
        events: stats.events,
        scheduling_seconds: stats.scheduling_seconds,
        peak_busy: peak_busy.load(Ordering::Acquire),
    })
}

// Unit tests drive real thread pools; under the loom cfg the façade's
// primitives only work inside minloom::model, so they are compiled out.
#[cfg(all(test, not(memtree_loom)))]
mod tests {
    use super::*;
    use memtree_order::mem_postorder;
    use memtree_sched::{Activation, MemBooking};

    #[test]
    fn membooking_runs_threaded_at_minimum_memory() {
        for seed in 0..5 {
            let tree = memtree_gen::synthetic::paper_tree(200, seed);
            let ao = mem_postorder(&tree);
            let m = ao.sequential_peak(&tree);
            let sched = MemBooking::try_new(&tree, &ao, &ao, m).unwrap();
            let report = execute(
                &tree,
                RuntimeConfig {
                    workers: 4,
                    memory: m,
                },
                sched,
                Workload::Noop,
                None,
            )
            .unwrap();
            assert_eq!(report.tasks_run, tree.len());
            assert!(report.peak_booked <= m);
            assert!(report.peak_actual <= report.peak_booked);
        }
    }

    #[test]
    fn activation_runs_threaded() {
        let tree = memtree_gen::synthetic::paper_tree(150, 7);
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree) * 2;
        let sched = Activation::try_new(&tree, &ao, &ao, m).unwrap();
        let report = execute(
            &tree,
            RuntimeConfig {
                workers: 3,
                memory: m,
            },
            sched,
            Workload::quick(),
            None,
        )
        .unwrap();
        assert_eq!(report.tasks_run, tree.len());
        // Completions are drained in batches, so events ≤ n + 1, and at
        // least one event per batch of ≤ `workers` completions.
        assert!(report.events >= tree.len() / 3);
        assert!(report.events <= tree.len() + 1);
    }

    #[test]
    fn alloc_workload_runs() {
        let tree = memtree_gen::synthetic::paper_tree(60, 2);
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree);
        let sched = MemBooking::try_new(&tree, &ao, &ao, m).unwrap();
        let report = execute(
            &tree,
            RuntimeConfig {
                workers: 2,
                memory: m,
            },
            sched,
            Workload::AllocTouch {
                bytes_per_output_unit: 8.0,
                max_bytes: 1 << 20,
            },
            None,
        )
        .unwrap();
        assert_eq!(report.tasks_run, 60);
    }

    #[test]
    fn zero_workers_rejected() {
        let tree = memtree_gen::synthetic::paper_tree(10, 1);
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree);
        let sched = MemBooking::try_new(&tree, &ao, &ao, m).unwrap();
        assert!(matches!(
            execute(
                &tree,
                RuntimeConfig {
                    workers: 0,
                    memory: m
                },
                sched,
                Workload::Noop,
                None,
            ),
            Err(RuntimeError::BadConfig(_))
        ));
    }

    #[test]
    fn moldable_membooking_runs_threaded() {
        use memtree_sched::{AllotmentCaps, MoldableMemBooking};
        for seed in 0..4 {
            let tree = memtree_gen::synthetic::paper_tree(150, 40 + seed);
            let ao = mem_postorder(&tree);
            let m = ao.sequential_peak(&tree);
            let caps = AllotmentCaps::uniform(&tree, 4);
            let sched = MoldableMemBooking::try_new(&tree, &ao, &ao, m, caps).unwrap();
            let report = execute(
                &tree,
                RuntimeConfig {
                    workers: 4,
                    memory: m,
                },
                sched,
                Workload::Noop,
                None,
            )
            .unwrap();
            assert_eq!(report.tasks_run, tree.len());
            assert!(report.peak_booked <= m);
            assert!(report.peak_actual <= report.peak_booked);
            assert!(report.peak_busy <= 4, "gang pool oversubscribed");
        }
    }

    /// A full-machine gang on a chain: every task runs as one gang of `p`
    /// members, and the measured occupancy actually reaches `p` (the gang
    /// really fans out over the workers).
    struct WholeMachineChain {
        order: Vec<NodeId>,
        next: usize,
        procs: usize,
    }

    impl memtree_sim::Scheduler for WholeMachineChain {
        fn name(&self) -> &str {
            "whole-machine-chain"
        }
        fn on_event(&mut self, _: &[NodeId], idle: usize, to_start: &mut Vec<(NodeId, usize)>) {
            if idle >= self.procs && self.next < self.order.len() {
                to_start.push((self.order[self.next], self.procs));
                self.next += 1;
            }
        }
        fn booked(&self) -> u64 {
            u64::MAX / 2
        }
    }

    #[test]
    fn gangs_fan_out_over_the_workers() {
        let p = 4;
        let tree = memtree_gen::shapes::chain(20, memtree_tree::TaskSpec::new(1, 2, 4.0));
        let order = memtree_tree::traverse::postorder(&tree);
        let report = execute(
            &tree,
            RuntimeConfig {
                workers: p,
                memory: u64::MAX / 2,
            },
            WholeMachineChain {
                order,
                next: 0,
                procs: p,
            },
            // Long enough shards (1 ms each) that gang members overlap
            // rather than one member draining the shard index alone.
            Workload::Spin {
                nanos_per_time_unit: 1_000_000.0,
                max_nanos: 4_000_000,
            },
            None,
        )
        .unwrap();
        assert_eq!(report.tasks_run, tree.len());
        assert!(report.peak_busy <= p);
        assert!(
            report.peak_busy >= 2,
            "a whole-machine gang must occupy several workers, got {}",
            report.peak_busy
        );
    }

    fn backend<'q>(
        tasks: &'q BatchQueue<GangMember>,
        done: &'q BatchQueue<GangMember>,
        malleable: bool,
    ) -> GangThreadedBackend<'q> {
        GangThreadedBackend {
            tasks,
            done,
            pending: Vec::with_capacity(4),
            reaped: Vec::with_capacity(4),
            gangs: HashMap::new(),
            workers: 4,
            malleable,
        }
    }

    /// Launches and grows only stage their members; the one flush of a
    /// tick happens in `await_batch`, in launch order, before the driver
    /// blocks — and it reuses the staging buffer.
    #[test]
    fn a_tick_is_flushed_once_when_the_driver_blocks() {
        let (tasks, done) = (BatchQueue::with_capacity(4), BatchQueue::with_capacity(4));
        let mut backend = backend(&tasks, &done, true);
        backend.launch(NodeId(5), 2, 1).unwrap();
        backend.launch(NodeId(6), 1, 1).unwrap();
        backend.resize(NodeId(6), 1, 2, 1).unwrap();
        assert_eq!(backend.pending.len(), 4, "nothing dispatched mid-tick");
        let staged_at = backend.pending.as_ptr();

        // A completion is already waiting, so the flush is the only thing
        // `await_batch` has left to do before it returns.
        done.push(GangMember {
            task: NodeId(9),
            gang: Arc::new(GangState::new(1, 1)),
        })
        .unwrap();
        let mut batch = Vec::new();
        backend.await_batch(1, &mut batch).unwrap();
        assert_eq!(batch, [NodeId(9)]);
        assert!(backend.pending.is_empty());
        assert_eq!(backend.pending.as_ptr(), staged_at, "buffer recycled");

        tasks.close();
        let flushed: Vec<u32> = std::iter::from_fn(|| tasks.pop())
            .map(|m| m.task.0)
            .collect();
        assert_eq!(flushed, [5, 5, 6, 6]);
    }

    /// A tick the driver aborts (protocol error after a legal launch)
    /// never reaches the flush: its staged members go away with the
    /// backend instead of reaching a worker.
    #[test]
    fn staged_members_of_an_aborted_tick_are_dropped() {
        let (tasks, done) = (BatchQueue::with_capacity(4), BatchQueue::with_capacity(4));
        let mut backend = backend(&tasks, &done, false);
        backend.launch(NodeId(0), 3, 1).unwrap();
        assert!(
            backend.gangs.is_empty(),
            "no registry without a rescheduler"
        );
        drop(backend);
        tasks.close();
        assert!(tasks.pop().is_none());
    }

    /// The same through the whole executor: a legal start followed by a
    /// double start in one event.
    struct DoubleStarter {
        leaf: NodeId,
    }

    impl memtree_sim::Scheduler for DoubleStarter {
        fn name(&self) -> &str {
            "double-starter"
        }
        fn on_event(&mut self, _: &[NodeId], _: usize, to_start: &mut Vec<(NodeId, usize)>) {
            to_start.extend([(self.leaf, 1), (self.leaf, 1)]);
        }
        fn booked(&self) -> u64 {
            u64::MAX / 2
        }
    }

    /// The run must return the protocol error with every worker released,
    /// not wait on a pool parked on a queue nobody will ever flush.
    #[test]
    fn aborted_tick_releases_the_pool() {
        let tree = memtree_gen::synthetic::paper_tree(20, 9);
        let leaf = tree.leaves().next().unwrap();
        for workers in [2, 4] {
            let cfg = RuntimeConfig {
                workers,
                memory: u64::MAX / 2,
            };
            let err =
                execute(&tree, cfg, DoubleStarter { leaf }, Workload::Noop, None).unwrap_err();
            assert!(matches!(err, RuntimeError::Protocol(_)), "got {err}");
        }
    }

    /// A moldable policy that over-claims processors must abort with a
    /// protocol error, and one that issues empty gangs likewise.
    struct OverClaimer {
        leaf: NodeId,
        procs: usize,
    }

    impl memtree_sim::Scheduler for OverClaimer {
        fn name(&self) -> &str {
            "over-claimer"
        }
        fn on_event(&mut self, _: &[NodeId], _: usize, to_start: &mut Vec<(NodeId, usize)>) {
            to_start.push((self.leaf, self.procs));
        }
        fn booked(&self) -> u64 {
            u64::MAX / 2
        }
    }

    #[test]
    fn gang_overclaim_and_zero_allotment_rejected() {
        let tree = memtree_gen::synthetic::paper_tree(20, 9);
        let leaf = tree.leaves().next().unwrap();
        let cfg = RuntimeConfig {
            workers: 2,
            memory: u64::MAX / 2,
        };
        let err = execute(
            &tree,
            cfg,
            OverClaimer { leaf, procs: 3 },
            Workload::Noop,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::Protocol(_)), "got {err}");
        let err = execute(
            &tree,
            cfg,
            OverClaimer { leaf, procs: 0 },
            Workload::Noop,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::Protocol(_)), "got {err}");
    }

    /// A policy that books correctly but stops issuing work after the
    /// first task: the driver must detect the stall, not hang.
    struct GivesUp<'a> {
        tree: &'a TaskTree,
        issued: bool,
    }

    impl memtree_sim::Scheduler for GivesUp<'_> {
        fn name(&self) -> &str {
            "gives-up"
        }
        fn on_event(
            &mut self,
            _: &[memtree_tree::NodeId],
            _: usize,
            to_start: &mut Vec<(memtree_tree::NodeId, usize)>,
        ) {
            if !self.issued {
                self.issued = true;
                // Issue exactly one leaf, then go silent forever.
                to_start.push((self.tree.leaves().next().expect("tree has a leaf"), 1));
            }
        }
        fn booked(&self) -> u64 {
            u64::MAX / 2
        }
    }

    #[test]
    fn stalled_policy_detected() {
        let tree = memtree_gen::synthetic::paper_tree(40, 3);
        let err = execute(
            &tree,
            RuntimeConfig {
                workers: 2,
                memory: u64::MAX / 2,
            },
            GivesUp {
                tree: &tree,
                issued: false,
            },
            Workload::Noop,
            None,
        )
        .unwrap_err();
        match err {
            RuntimeError::Stalled { completed, total } => {
                assert_eq!(completed, 1);
                assert_eq!(total, tree.len());
            }
            other => panic!("expected Stalled, got {other}"),
        }
    }

    /// A policy whose `booked()` under-reports (books nothing while tasks
    /// hold memory): the ledger check must abort the run.
    struct UnderBooker {
        ready: Vec<memtree_tree::NodeId>,
    }

    impl memtree_sim::Scheduler for UnderBooker {
        fn name(&self) -> &str {
            "under-booker"
        }
        fn on_event(
            &mut self,
            finished: &[memtree_tree::NodeId],
            idle: usize,
            to_start: &mut Vec<(memtree_tree::NodeId, usize)>,
        ) {
            let _ = finished;
            while to_start.len() < idle {
                let Some(i) = self.ready.pop() else { break };
                to_start.push((i, 1));
            }
        }
        fn booked(&self) -> u64 {
            0 // lies: running tasks hold actual memory
        }
    }

    #[test]
    fn underbooking_policy_aborts_with_ledger_error() {
        let tree = memtree_gen::synthetic::paper_tree(40, 4);
        let ready: Vec<_> = tree.leaves().collect();
        let err = execute(
            &tree,
            RuntimeConfig {
                workers: 2,
                memory: u64::MAX / 2,
            },
            UnderBooker { ready },
            Workload::Noop,
            None,
        )
        .unwrap_err();
        match err {
            RuntimeError::Ledger(msg) => {
                assert!(msg.contains("exceeds booked"), "unexpected message: {msg}")
            }
            other => panic!("expected Ledger, got {other}"),
        }
        // The tree itself is fine: leaves exist and hold output memory.
        assert!(tree.leaves().next().is_some());
    }

    /// A policy that books over the bound must abort with a ledger error
    /// too (the `booked ≤ M` half of the invariant).
    struct OverBooker<'a> {
        tree: &'a TaskTree,
        started: bool,
    }

    impl memtree_sim::Scheduler for OverBooker<'_> {
        fn name(&self) -> &str {
            "over-booker"
        }
        fn on_event(
            &mut self,
            _: &[memtree_tree::NodeId],
            _: usize,
            to_start: &mut Vec<(memtree_tree::NodeId, usize)>,
        ) {
            if !self.started {
                self.started = true;
                to_start.push((self.tree.leaves().next().expect("tree has a leaf"), 1));
            }
        }
        fn booked(&self) -> u64 {
            u64::MAX // far over any bound
        }
    }

    #[test]
    fn overbooking_policy_aborts_with_ledger_error() {
        let tree = memtree_gen::synthetic::paper_tree(30, 5);
        let err = execute(
            &tree,
            RuntimeConfig {
                workers: 2,
                memory: 1_000,
            },
            OverBooker {
                tree: &tree,
                started: false,
            },
            Workload::Noop,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::Ledger(_)), "got {err}");
    }
}
