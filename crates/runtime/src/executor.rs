//! The threaded executor: real worker threads that step the shared
//! [`DriverCore`] themselves — there is no driver thread — through the one
//! gang step that the futures platform steps too.
//!
//! The gang step (`GangStep`) owns the core (the scheduler, every check
//! and ledger) and the running-gang registry, and turns each tick into
//! gang members: a moldable task with allotment `q` is launched as `q`
//! member entries sharing one [`GangState`]; a grow admits and stages
//! extra members, a shrink retires members at their next shard boundary.
//! The core only launches when `q` processors are idle, so all members
//! are picked up without any hold-and-wait — no partial gangs, no
//! deadlock. Members claim payload shards from a shared atomic index, so
//! a member delayed by the OS donates its shards to its gang mates, and
//! the last member out reports the gang's completion.
//!
//! In a [`WorkerPool`] the gang step sits behind one lock, and the worker
//! whose member reports a completion takes the step itself (DESIGN.md
//! §6.4): it keeps one member of the first launched gang and runs it next
//! — a chain never leaves its worker — and flushes the rest to the other
//! workers through a [`BatchQueue`] in one batch.
//! [`AsyncPlatform`](crate::AsyncPlatform) takes the same step on its
//! calling thread and spawns every staged member as a future (§6.8).
//!
//! Sequential policies ride the very same pool: they start every task on
//! an allotment of 1, a gang of one. The scheduler sees completions in
//! real-time order, one per step — the dynamic regime the paper designs
//! for — while the core re-asserts `actual ≤ booked ≤ M` at every event,
//! so a booking bug aborts the run rather than silently overcommitting.

use crate::dispatch::BatchQueue;
use crate::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use crate::sync::Mutex;
use crate::workload::Workload;
use memtree_sim::driver::{DriveConfig, DriveError, DriveStats, DriverCore, Rescheduler};
use memtree_sim::Scheduler;
use memtree_tree::{NodeId, TaskTree};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Payload shards per *worker* for a malleable gang. A fixed-allotment
/// gang has exactly one shard per member, but a gang that may grow to the
/// whole machine shards its payload at machine granularity times this
/// oversubscription factor, so retirement (which only happens at shard
/// boundaries) stays responsive and grown members find work to claim.
const MALLEABLE_CHUNKS: usize = 4;

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
    /// (workers × `MALLEABLE_CHUNKS`, 4) so any allotment in `1..=p`
    /// divides the payload usefully.
    pub(crate) shards: u32,
    /// Next unclaimed payload shard (dynamic claiming: a member delayed
    /// by the OS donates its shards to its gang mates).
    next_shard: AtomicUsize,
    /// Shards whose payload has finished executing — the backlog signal
    /// the rescheduler's [`memtree_sim::LiveStats`] snapshot reports.
    shards_done: AtomicUsize,
    /// Members the gang is entitled to — the driver's current allotment.
    /// Only the driver side moves it (a resize in the gang step, taken by
    /// the async pump or by a worker under the pool lock), and it never
    /// drops below 1 while the gang runs.
    target: AtomicUsize,
    /// Members admitted and not yet exited. Counts buffered and queued
    /// member entries too: admission increments on the driver side
    /// *before* the entry is staged, so a slow pickup can never let the
    /// count touch zero early and double-report the completion.
    active: AtomicUsize,
    /// Latches the single completion report. A grow can land on a gang
    /// whose completion is already in flight (a resize can land before
    /// the reporter's completion reaches the core); the late members re-raise `active` from zero
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

    /// Admits `extra` members (driver side, **before** their member
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
        // any prior admit on the driver side.
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

/// How a run that lost a worker to a panic fails.
fn worker_panicked() -> DriveError {
    DriveError::Backend("a worker thread panicked".into())
}

/// One member of a gang-scheduled task: the unit a gang step stages and a
/// worker thread or a spawned future runs.
pub(crate) struct GangMember {
    pub(crate) task: NodeId,
    pub(crate) gang: Arc<GangState>,
}

/// Pushes `n` member entries of `task`'s gang onto `staged`.
fn stage(staged: &mut Vec<GangMember>, task: NodeId, gang: &Arc<GangState>, n: usize) {
    staged.extend((0..n).map(|_| GangMember {
        task,
        gang: gang.clone(),
    }));
}

/// What one [`GangStep::step`] leaves its caller to do beside running the
/// staged members.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stepped {
    /// The tick launched a gang: the staged entries open with its members.
    pub(crate) launched: bool,
    /// The run is over: no completion will ever come again.
    pub(crate) over: bool,
}

/// The gang step: turns one [`DriverCore`] tick into gang members, for
/// both wall clocks — the [`WorkerPool`]'s workers take it under
/// the pool lock, [`AsyncPlatform`](crate::AsyncPlatform)'s pump on its
/// calling thread. It owns the core and the running-gang registry; it
/// mints each launched gang's [`GangState`], admits grows before staging
/// their members, and releases shrunk members at their next shard
/// boundary (DESIGN.md §6.4).
pub(crate) struct GangStep<'a, S> {
    core: DriverCore<'a, S, dyn Rescheduler + Send + 'a>,
    /// Running gangs by task, for resizes and progress — the rescheduler's
    /// hooks and the registry's only readers, so it stays empty without
    /// one.
    gangs: HashMap<NodeId, Arc<GangState>>,
    /// Payload shards of every gang of a malleable run; `None` when gangs
    /// keep their launch allotment and shard one per member.
    malleable_shards: Option<u32>,
}

impl<'a, S: Scheduler> GangStep<'a, S> {
    /// The step of one run of `scheduler` over `tree`. With a rescheduler,
    /// gangs shard their payload at machine granularity so any allotment
    /// divides it usefully.
    pub(crate) fn new(
        tree: &'a TaskTree,
        cfg: DriveConfig,
        scheduler: S,
        rescheduler: Option<&'a mut (dyn Rescheduler + Send + 'a)>,
    ) -> Result<Self, DriveError> {
        let malleable_shards = rescheduler
            .is_some()
            .then_some((cfg.workers * MALLEABLE_CHUNKS) as u32);
        Ok(GangStep {
            core: DriverCore::new(tree, cfg, scheduler, rescheduler)?,
            gangs: HashMap::new(),
            malleable_shards,
        })
    }

    /// Steps the core with `completions`, stages the members of the
    /// tick's launches (in launch order) and then of its grows onto
    /// `staged` — admitting before staging — and applies its shrinks. An
    /// `Err` is the run's verdict: the step must not be called again.
    pub(crate) fn step(
        &mut self,
        completions: &mut [NodeId],
        staged: &mut Vec<GangMember>,
    ) -> Result<Stepped, DriveError> {
        let GangStep {
            core,
            gangs,
            malleable_shards,
        } = self;
        if malleable_shards.is_some() {
            for i in completions.iter() {
                gangs.remove(i);
            }
        }
        let tick = core.step(completions, |i| gangs.get(&i).map(|g| g.progress()))?;
        for &(task, procs) in tick.launches {
            let gang = Arc::new(GangState::new(
                procs,
                malleable_shards.unwrap_or(procs as u32),
            ));
            if malleable_shards.is_some() {
                gangs.insert(task, gang.clone());
            }
            stage(staged, task, &gang, procs);
        }
        for r in tick.resizes {
            let gang = gangs.get(&r.node).ok_or_else(|| {
                DriveError::Backend(format!("resize of unknown gang {:?}", r.node))
            })?;
            if r.to > r.from {
                // Admit before staging: the active count covers the staged
                // entries, so the completion countdown cannot race them.
                gang.admit(r.to - r.from);
                stage(staged, r.node, gang, r.to - r.from);
            } else {
                gang.release(r.from - r.to);
            }
        }
        // Seeded regression (CI teeth check): taking "this step launched
        // nothing" for "the run is over" makes the pool close its queue at
        // the first completion that readies no task, under the feet of the
        // gangs still to come — model/stepping.rs must see the tree
        // unfinished.
        #[cfg(memtree_loom_mutate_early_close)]
        let over = tick.done || tick.launches.is_empty();
        #[cfg(not(memtree_loom_mutate_early_close))]
        let over = tick.done;
        Ok(Stepped {
            launched: !tick.launches.is_empty(),
            over,
        })
    }

    /// Whether every task has completed.
    pub(crate) fn is_done(&self) -> bool {
        self.core.is_done()
    }

    /// The run's aggregates so far (final once the run is over).
    pub(crate) fn stats(&self) -> DriveStats {
        self.core.stats()
    }
}

/// What the pool's one lock guards.
struct Shared<'a, S> {
    step: GangStep<'a, S>,
    /// The run's first error; later ones are dropped.
    error: Option<DriveError>,
}

/// Closes the task queue when its worker is done with it, however that
/// happens: a pool that has lost a member — a payload or a scheduler
/// panic — must not leave the other workers parked on it.
struct CloseOnExit<'q>(&'q BatchQueue<GangMember>);

impl Drop for CloseOnExit<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The worker pool of one threaded run, with no driver thread: the gang
/// step (`GangStep`) sits behind one lock, and the worker whose member
/// reports a gang's completion takes it itself (DESIGN.md §6.4).
///
/// [`execute`] is the way to run one. The pool is public so the
/// `memtree_loom` model suite (`tests/model/stepping.rs`) can drive the
/// production protocol under minloom: `payload(task, shard, shards)` runs
/// one shard of a task's payload.
pub struct WorkerPool<'a, S, F> {
    shared: Mutex<Shared<'a, S>>,
    tasks: BatchQueue<GangMember>,
    payload: F,
    workers: usize,
    /// Worker-side occupancy measurement, independent of the core's
    /// processor ledger.
    busy: AtomicUsize,
    peak_busy: AtomicUsize,
}

impl<'a, S, F> WorkerPool<'a, S, F>
where
    S: Scheduler + Send,
    F: Fn(NodeId, u32, u32) + Sync,
{
    /// A pool of `cfg.workers` workers for one run of `scheduler` over
    /// `tree`. With a rescheduler, gangs shard their payload at machine
    /// granularity so any allotment divides it usefully.
    pub fn new(
        tree: &'a TaskTree,
        cfg: DriveConfig,
        scheduler: S,
        rescheduler: Option<&'a mut (dyn Rescheduler + Send + 'a)>,
        payload: F,
    ) -> Result<Self, DriveError> {
        Ok(WorkerPool {
            shared: Mutex::new(Shared {
                step: GangStep::new(tree, cfg, scheduler, rescheduler)?,
                error: None,
            }),
            tasks: BatchQueue::with_capacity(cfg.workers),
            payload,
            workers: cfg.workers,
            busy: AtomicUsize::new(0),
            peak_busy: AtomicUsize::new(0),
        })
    }

    /// The initial event: steps the core with no completion and hands
    /// every member it launches to the queue.
    pub fn start(&self) {
        let mut staged = Vec::with_capacity(self.workers);
        let kept = self.step(&mut [], &mut staged);
        staged.extend(kept);
        // A refused flush means the run already failed.
        let _ = self.tasks.push_batch(&mut staged);
    }

    /// One worker's loop, until the queue closes. A member whose exit
    /// makes it its gang's reporter steps the core with that completion;
    /// the member the step keeps runs next on this thread, without a trip
    /// through the queue.
    pub fn work(&self) {
        let _close = CloseOnExit(&self.tasks);
        let mut staged = Vec::with_capacity(self.workers);
        let mut next = None;
        while let Some(member) = next.take().or_else(|| self.tasks.pop()) {
            // A panicking payload must not unwind out of the scope (it
            // would re-panic on join, and the other workers would never
            // learn): it ends this worker and fails the run.
            let Ok(retired) = self.run_member(&member) else {
                self.fail(worker_panicked());
                return;
            };
            // Retired members never report: the member ledger keeps at
            // least one member who exits via payload exhaustion, and the
            // last such exit is the completion — every shard claimed and
            // finished, every member already out of the occupancy count.
            if retired || !member.gang.member_exit() {
                continue;
            }
            next = self.step(&mut [member.task], &mut staged);
            if self.tasks.push_batch(&mut staged).is_err() {
                return;
            }
        }
    }

    /// The run's verdict once every worker has returned: the first error,
    /// or the wall clock since `started_at` beside the driver's stats,
    /// whose `peak_busy` is the workers' own occupancy measurement.
    pub fn finish(&self, started_at: std::time::Instant) -> Result<(f64, DriveStats), DriveError> {
        let shared = self.shared.lock().map_err(|_| worker_panicked())?;
        if let Some(e) = &shared.error {
            return Err(e.clone());
        }
        if !shared.step.is_done() {
            return Err(worker_panicked());
        }
        debug_assert_eq!(
            self.busy.load(Ordering::Acquire),
            0,
            "every gang member left its payload before the pool shut down"
        );
        let stats = DriveStats {
            peak_busy: self.peak_busy.load(Ordering::Acquire),
            ..shared.step.stats()
        };
        Ok((started_at.elapsed().as_secs_f64(), stats))
    }

    /// Runs `member` until the payload is exhausted (`Ok(false)`) or the
    /// member retires at a shard boundary (`Ok(true)`).
    fn run_member(&self, member: &GangMember) -> std::thread::Result<bool> {
        let gang = &member.gang;
        let now_busy = self.busy.fetch_add(1, Ordering::AcqRel) + 1;
        self.peak_busy.fetch_max(now_busy, Ordering::AcqRel);
        let retired = catch_unwind(AssertUnwindSafe(|| loop {
            // Shard boundaries are the only malleability points: check for
            // retirement before claiming.
            if gang.try_retire() {
                break true;
            }
            let Some(shard) = gang.claim() else {
                break false;
            };
            (self.payload)(member.task, shard, gang.shards);
            gang.finish_shard();
        }));
        self.busy.fetch_sub(1, Ordering::AcqRel);
        retired
    }

    /// Takes the gang step under the lock with `completions`, staging its
    /// members onto `staged`, and returns one member of the first launched
    /// gang for the caller to run itself. Closes the queue when the run is
    /// over: on the final step, or on the first error.
    fn step(&self, completions: &mut [NodeId], staged: &mut Vec<GangMember>) -> Option<GangMember> {
        // A poisoned lock means a scheduler panicked mid-step on another
        // worker: the run is over, and the scope re-raises the panic.
        let Ok(mut guard) = self.shared.lock() else {
            self.tasks.close();
            return None;
        };
        let Shared { step, error } = &mut *guard;
        if error.is_some() {
            return None;
        }
        let stepped = match step.step(completions, staged) {
            Ok(stepped) => stepped,
            Err(e) => {
                *error = Some(e);
                self.tasks.close();
                return None;
            }
        };
        if stepped.over {
            self.tasks.close();
        }
        stepped.launched.then(|| staged.remove(0))
    }

    /// Records `e` unless an error came first, and ends the run.
    fn fail(&self, e: DriveError) {
        if let Ok(mut shared) = self.shared.lock() {
            shared.error.get_or_insert(e);
        }
        self.tasks.close();
    }
}

/// Executes `tree` with `cfg.workers` real threads under `scheduler`:
/// each started task claims its allotment of workers as a gang and runs
/// its payload `q`-way parallel (one shard per gang member, dynamically
/// claimed) — a sequential policy's tasks are gangs of one. The calling
/// thread runs the initial event and then works as one of the
/// `cfg.workers`.
///
/// An optional [`Rescheduler`] closes the feedback loop: the core ticks
/// it once per event with a [`memtree_sim::LiveStats`] snapshot, and
/// grow/shrink actions land on the running gangs through the shared
/// [`GangState`] — growing stages extra member entries, shrinking retires
/// surplus members at their next shard boundary.
///
/// Returns the run's wall-clock seconds beside the driver's
/// [`DriveStats`], whose `peak_busy` is the number of workers the pool
/// itself saw inside a payload at once (never more than `cfg.workers`).
pub fn execute<S: Scheduler + Send>(
    tree: &TaskTree,
    cfg: DriveConfig,
    scheduler: S,
    workload: Workload,
    rescheduler: Option<&mut (dyn Rescheduler + Send)>,
) -> Result<(f64, DriveStats), DriveError> {
    let started_at = std::time::Instant::now();
    // Shorten the rescheduler's object lifetime to the tree's borrow.
    let rescheduler = rescheduler.map(|r| -> &mut (dyn Rescheduler + Send) { r });
    let payload = |task, shard, shards| workload.run_shard(tree, task, shard, shards);
    let pool = WorkerPool::new(tree, cfg, scheduler, rescheduler, payload)?;
    pool.start();
    std::thread::scope(|scope| {
        for _ in 1..cfg.workers {
            scope.spawn(|| pool.work());
        }
        pool.work();
    });
    pool.finish(started_at)
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
            let (_, stats) = execute(
                &tree,
                DriveConfig {
                    workers: 4,
                    memory: m,
                },
                sched,
                Workload::Noop,
                None,
            )
            .unwrap();
            assert_eq!(stats.completed, tree.len());
            assert!(stats.peak_booked <= m);
            assert!(stats.peak_actual <= stats.peak_booked);
        }
    }

    #[test]
    fn activation_runs_threaded() {
        let tree = memtree_gen::synthetic::paper_tree(150, 7);
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree) * 2;
        let sched = Activation::try_new(&tree, &ao, &ao, m).unwrap();
        let (_, stats) = execute(
            &tree,
            DriveConfig {
                workers: 3,
                memory: m,
            },
            sched,
            Workload::quick(),
            None,
        )
        .unwrap();
        assert_eq!(stats.completed, tree.len());
        // The reporter of each completion steps the core with it alone:
        // one event per task plus the initial one.
        assert_eq!(stats.events, tree.len() + 1);
    }

    #[test]
    fn alloc_workload_runs() {
        let tree = memtree_gen::synthetic::paper_tree(60, 2);
        let ao = mem_postorder(&tree);
        let m = ao.sequential_peak(&tree);
        let sched = MemBooking::try_new(&tree, &ao, &ao, m).unwrap();
        let (_, stats) = execute(
            &tree,
            DriveConfig {
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
        assert_eq!(stats.completed, 60);
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
                DriveConfig {
                    workers: 0,
                    memory: m
                },
                sched,
                Workload::Noop,
                None,
            ),
            Err(DriveError::BadConfig(_))
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
            let (_, stats) = execute(
                &tree,
                DriveConfig {
                    workers: 4,
                    memory: m,
                },
                sched,
                Workload::Noop,
                None,
            )
            .unwrap();
            assert_eq!(stats.completed, tree.len());
            assert!(stats.peak_booked <= m);
            assert!(stats.peak_actual <= stats.peak_booked);
            assert!(stats.peak_busy <= 4, "gang pool oversubscribed");
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
        let (_, stats) = execute(
            &tree,
            DriveConfig {
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
            Workload::Sleep {
                nanos_per_time_unit: 1_000_000.0,
                max_nanos: 4_000_000,
            },
            None,
        )
        .unwrap();
        assert_eq!(stats.completed, tree.len());
        assert!(stats.peak_busy <= p);
        assert!(
            stats.peak_busy >= 2,
            "a whole-machine gang must occupy several workers, got {}",
            stats.peak_busy
        );
    }

    /// A legal start followed by a double start in one event.
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
            let cfg = DriveConfig {
                workers,
                memory: u64::MAX / 2,
            };
            let err =
                execute(&tree, cfg, DoubleStarter { leaf }, Workload::Noop, None).unwrap_err();
            assert_eq!(err, DriveError::DoubleStart { node: leaf });
        }
    }

    /// A moldable policy that claims `procs` processors for one leaf at
    /// every event: more than the machine, or an empty gang.
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
        let cfg = DriveConfig::new(2, u64::MAX / 2);
        let err = execute(
            &tree,
            cfg,
            OverClaimer { leaf, procs: 3 },
            Workload::Noop,
            None,
        )
        .unwrap_err();
        assert_eq!(
            err,
            DriveError::TooManyStarts {
                requested: 3,
                idle: 2
            }
        );
        let err = execute(
            &tree,
            cfg,
            OverClaimer { leaf, procs: 0 },
            Workload::Noop,
            None,
        )
        .unwrap_err();
        assert_eq!(err, DriveError::ZeroAllotment { node: leaf });
    }

    /// A policy that never starts anything.
    struct Idle;

    impl memtree_sim::Scheduler for Idle {
        fn name(&self) -> &str {
            "idle"
        }
        fn on_event(&mut self, _: &[NodeId], _: usize, _: &mut Vec<(NodeId, usize)>) {}
        fn booked(&self) -> u64 {
            0
        }
    }

    /// The simulator and the threaded executor fail a broken policy with
    /// the same [`DriveError`], naming the caller's ids on a renumbered
    /// tree: one verdict, checked once, in the driver.
    #[test]
    fn protocol_errors_name_caller_ids() {
        let caller = memtree_gen::synthetic::paper_tree(20, 9);
        let layout = caller
            .renumbered(memtree_tree::traverse::postorder(&caller))
            .unwrap();
        let moved = layout
            .leaves()
            .find(|&l| layout.label(l) != l)
            .expect("the postorder moves a leaf");
        let named = layout.label(moved);
        let leaf = caller.leaves().next().unwrap();
        type Mint<'t> = Box<dyn Fn() -> Box<dyn memtree_sim::Scheduler + Send + 't> + 't>;
        let cases: [(&TaskTree, Mint<'_>, DriveError); 4] = [
            (
                &layout,
                Box::new(move || Box::new(DoubleStarter { leaf: moved })),
                DriveError::DoubleStart { node: named },
            ),
            (
                &caller,
                Box::new(move || Box::new(OverClaimer { leaf, procs: 3 })),
                DriveError::TooManyStarts {
                    requested: 3,
                    idle: 2,
                },
            ),
            (
                &caller,
                Box::new(move || Box::new(OverClaimer { leaf, procs: 0 })),
                DriveError::ZeroAllotment { node: leaf },
            ),
            (
                &caller,
                Box::new(|| Box::new(Idle)),
                DriveError::Stalled {
                    completed: 0,
                    total: caller.len(),
                    booked: 0,
                },
            ),
        ];
        for (tree, mint, want) in cases {
            let cfg = DriveConfig::new(2, u64::MAX / 2);
            let sim = memtree_sim::SimConfig::new(cfg.workers, cfg.memory);
            let simulated = memtree_sim::simulate_summary(tree, sim, mint(), None).unwrap_err();
            let threaded = execute(tree, cfg, mint(), Workload::Noop, None).unwrap_err();
            assert_eq!(simulated, threaded, "{want}");
            assert_eq!(threaded, want);
        }
        assert_ne!(named, moved, "the double start names the caller's id");
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
            DriveConfig {
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
            DriveError::Stalled {
                completed, total, ..
            } => {
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
            DriveConfig {
                workers: 2,
                memory: u64::MAX / 2,
            },
            UnderBooker { ready },
            Workload::Noop,
            None,
        )
        .unwrap_err();
        assert!(
            matches!(err, DriveError::ActualOverBooked { booked: 0, .. }),
            "got {err}"
        );
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
            DriveConfig {
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
        assert!(
            matches!(err, DriveError::BookedOverBound { bound: 1_000, .. }),
            "got {err}"
        );
    }
}
