//! **`AsyncPlatform`** — the futures-backed execution regime for IO-bound
//! fronts (DESIGN.md §6.8).
//!
//! Out-of-core multifrontal fronts spend much of their "processing time"
//! waiting on IO, so occupying one OS thread per logical processor — as
//! [`ThreadedPlatform`](crate::ThreadedPlatform) does — wastes the
//! machine. Here workers are **futures**: a started task becomes one
//! spawned future per gang member, polled by a small hand-rolled executor
//! (the vendored `minitok` stand-in, DESIGN.md §1) with however few OS
//! threads the embedding grants. A payload awaiting simulated IO
//! ([`Workload::IoBound`] / [`Workload::Sleep`]) parks in the timer and
//! occupies **no** executor thread, so `p` logical workers' worth of
//! in-flight IO rides on a single-threaded executor.
//!
//! The scheduling contract is untouched: the platform runs the very same
//! gang-aware driver loop (`memtree_sim::drive`) as every other
//! backend — the driver's capacity ledger still counts `workers` logical
//! processors, booking is still audited at every event, and completions
//! arrive through a channel exactly as they do from real threads. Every
//! [`PolicySpec`](memtree_sched::PolicySpec) — moldable and `MemBookingRedTree` included — runs
//! unmodified; the differential suite (`tests/async_equivalence.rs`) and
//! `platform_conformance!` pin the equivalence with `SimPlatform` and
//! `ThreadedPlatform`.

use crate::executor::{GangState, MALLEABLE_CHUNKS};
use crate::platform::{run_driven, Platform, PlatformError, RunReport};
use crate::workload::Workload;
use crossbeam::channel::{self, RecvTimeoutError};
use memtree_sched::ReschedulePolicy;
use memtree_sim::driver::{drive, Backend, DriveConfig, DriveError, DriveStats, Rescheduler};
use memtree_sim::Scheduler;
use memtree_tree::{NodeId, TaskTree};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// How often `await_batch` wakes to check for dead (panicked) payload
/// futures while blocked on the completion channel.
const PANIC_POLL: Duration = Duration::from_millis(25);

/// The futures-backed execution regime; see the module docs.
#[derive(Clone, Copy, Debug)]
pub struct AsyncPlatform {
    /// Logical processor count `p` — the driver's capacity ledger, i.e.
    /// how many gang members may be in flight at once. Independent of
    /// [`AsyncPlatform::threads`]: in-flight IO waits need no thread.
    pub workers: usize,
    /// OS threads polling the executor (≥ 1). Deliberately small — the
    /// platform's point is that IO-bound fronts don't need one thread per
    /// logical worker.
    pub threads: usize,
    /// Per-task payload, as on the other platforms (timed payloads run
    /// their async interpretation, [`Workload::run_shard_async`]).
    pub workload: Workload,
    /// When set, moldable runs become **malleable**: a
    /// [`ProportionalRescheduler`](memtree_sched::ProportionalRescheduler) built from the executed tree resizes
    /// running gangs from live backlog (DESIGN.md §6.10). Ignored by
    /// sequential policies.
    pub reschedule: Option<ReschedulePolicy>,
}

impl AsyncPlatform {
    /// `workers` logical processors on a two-thread executor with the
    /// no-op payload.
    pub fn new(workers: usize) -> Self {
        AsyncPlatform {
            workers,
            threads: 2,
            workload: Workload::Noop,
            reschedule: None,
        }
    }

    /// Overrides the executor OS-thread count (1 = the single-threaded
    /// executor flavour).
    ///
    /// # Panics
    /// When `threads` is 0.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "the executor needs at least one thread");
        self.threads = threads;
        self
    }

    /// Overrides the per-task payload.
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Enables malleability for moldable runs under `policy`.
    pub fn with_rescheduler(mut self, policy: ReschedulePolicy) -> Self {
        self.reschedule = Some(policy);
        self
    }

    /// Drives `scheduler` over `exec` on a fresh executor and returns the
    /// wall clock beside the driver's stats. The driver rejects zero
    /// workers; zero executor threads is this platform's own check.
    fn execute(
        &self,
        exec: &TaskTree,
        memory: u64,
        scheduler: impl Scheduler,
        rescheduler: Option<&mut dyn Rescheduler>,
    ) -> Result<(f64, DriveStats), DriveError> {
        if self.threads == 0 {
            return Err(DriveError::BadConfig("zero executor threads".into()));
        }
        let started_at = std::time::Instant::now();
        let malleable = rescheduler.is_some();
        // Spawned member futures are `'static`, so they share the tree by
        // `Arc` — one O(n) clone per run, amortised over the whole tree.
        let tree = Arc::new(exec.clone());
        let rt = minitok::Runtime::new(self.threads);
        let (done_tx, done_rx) = channel::unbounded::<NodeId>();
        let mut backend = AsyncBackend {
            rt: &rt,
            tree,
            workload: self.workload,
            done_tx,
            done_rx,
            gangs: HashMap::new(),
            workers: self.workers,
            malleable,
        };
        let cfg = DriveConfig::new(self.workers, memory);
        let stats = drive(exec, cfg, scheduler, &mut backend, rescheduler)?;
        Ok((started_at.elapsed().as_secs_f64(), stats))
        // `rt` drops here: the queue closes and the executor threads join.
    }
}

/// The futures gang backend: launching a task with allotment `q` spawns
/// `q` member futures onto the executor; awaiting blocks on the
/// completion channel, waking periodically to notice panicked payloads.
/// Running gangs live in a registry so a [`Rescheduler`] can resize them:
/// growing spawns extra member futures over the shared [`GangState`],
/// shrinking retires members at their next shard boundary.
struct AsyncBackend<'rt> {
    rt: &'rt minitok::Runtime,
    tree: Arc<TaskTree>,
    workload: Workload,
    done_tx: channel::Sender<NodeId>,
    done_rx: channel::Receiver<NodeId>,
    gangs: HashMap<NodeId, Arc<GangState>>,
    workers: usize,
    malleable: bool,
}

impl AsyncBackend<'_> {
    /// Spawns `n` member futures running the same claim-retire-report
    /// protocol as the threaded pool's worker loop.
    fn spawn_members(&self, i: NodeId, gang: &Arc<GangState>, n: usize) {
        for _ in 0..n {
            let gang = gang.clone();
            let tree = self.tree.clone();
            let workload = self.workload;
            let done_tx = self.done_tx.clone();
            self.rt.spawn(async move {
                let mut retired = false;
                loop {
                    // Shard boundaries are the only malleability points:
                    // check for retirement before claiming.
                    if gang.try_retire() {
                        retired = true;
                        break;
                    }
                    let Some(shard) = gang.claim() else { break };
                    workload.run_shard_async(&tree, i, shard, gang.shards).await;
                    gang.finish_shard();
                }
                // Retired members never report: the member ledger keeps at
                // least one member who exits via payload exhaustion, and
                // the last such exit is the one completion that releases
                // the whole gang.
                if !retired && gang.member_exit() {
                    let _ = done_tx.send(i);
                }
            });
        }
    }
}

impl Backend for AsyncBackend<'_> {
    fn launch(&mut self, i: NodeId, procs: usize, _epoch: u64) -> Result<(), DriveError> {
        let shards = if self.malleable {
            (self.workers * MALLEABLE_CHUNKS) as u32
        } else {
            procs as u32
        };
        let gang = Arc::new(GangState::new(procs, shards));
        self.gangs.insert(i, gang.clone());
        self.spawn_members(i, &gang, procs);
        Ok(())
    }

    fn resize(&mut self, i: NodeId, from: usize, to: usize, _epoch: u64) -> Result<(), DriveError> {
        let gang = self
            .gangs
            .get(&i)
            .cloned()
            .ok_or_else(|| DriveError::Backend(format!("resize of unknown gang {i:?}")))?;
        if to > from {
            // Admit before spawning: the active count covers the not-yet-
            // polled futures, so the completion countdown cannot race them.
            gang.admit(to - from);
            self.spawn_members(i, &gang, to - from);
        } else if to < from {
            gang.release(from - to);
        }
        Ok(())
    }

    fn progress(&self, i: NodeId) -> Option<(u32, u32)> {
        self.gangs.get(&i).map(|g| g.progress())
    }

    fn await_batch(&mut self, _epoch: u64, batch: &mut Vec<NodeId>) -> Result<(), DriveError> {
        // Block for one completion, then drain whatever else arrived. The
        // backend keeps a live sender, so a panicked payload future never
        // disconnects the channel — instead the executor counts the death
        // and the periodic check below turns it into a loud error.
        loop {
            match self.done_rx.recv_timeout(PANIC_POLL) {
                Ok(i) => {
                    batch.push(i);
                    break;
                }
                Err(RecvTimeoutError::Timeout) => {
                    if self.rt.panicked_tasks() > 0 {
                        return Err(DriveError::Backend("a payload future panicked".into()));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(DriveError::Backend("the executor exited early".into()));
                }
            }
        }
        while let Ok(i) = self.done_rx.try_recv() {
            batch.push(i);
        }
        for i in batch.iter() {
            self.gangs.remove(i);
        }
        Ok(())
    }
}

impl Platform for AsyncPlatform {
    fn name(&self) -> &'static str {
        "async"
    }

    /// In activation-order numbering, as on every platform (§6.3).
    /// Allotment q spawns q member futures sharing the payload's shard
    /// index; a sequential task is one future.
    fn run_instance(
        &self,
        tree: &TaskTree,
        instance: &memtree_sched::PolicyInstance,
    ) -> Result<RunReport, PlatformError> {
        run_driven(
            self.name(),
            tree,
            instance,
            self.reschedule,
            |exec, memory, sched, resched| {
                let resched = resched.map(|r| r as &mut dyn Rescheduler);
                self.execute(exec, memory, sched, resched)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_sched::{HeuristicKind, PolicySpec};

    fn min_memory(tree: &TaskTree) -> u64 {
        memtree_sched::min_feasible_memory(tree)
    }

    #[test]
    fn membooking_runs_async_at_minimum_memory() {
        for seed in 0..3 {
            let tree = memtree_gen::synthetic::paper_tree(200, seed);
            let m = min_memory(&tree);
            let spec = PolicySpec::new(HeuristicKind::MemBooking, m);
            let report = AsyncPlatform::new(4).run(&tree, &spec).unwrap();
            assert_eq!(report.tasks_run, tree.len());
            assert!(report.peak_booked <= m);
            assert!(report.peak_actual <= report.peak_booked);
            assert_eq!(report.platform, "async");
        }
    }

    #[test]
    fn io_waits_overlap_without_thread_parallelism() {
        // The platform's reason to exist: a flat forest of IO-bound tasks
        // on p = 8 logical workers but ONE executor thread finishes in
        // roughly max-chain time, not the serial sum — sleeping futures
        // hold no thread. 24 leaves + root, ~3 ms of IO each: the serial
        // sum is ≥ 72 ms, the overlapped run ~1/8th of it.
        let leaves = 24usize;
        let mut parents = vec![None];
        parents.extend((0..leaves).map(|_| Some(0usize)));
        let specs = vec![memtree_tree::TaskSpec::new(1, 2, 1.0); leaves + 1];
        let tree = memtree_tree::TaskTree::from_parents(&parents, &specs).unwrap();
        let m = min_memory(&tree) * 100;
        let spec = PolicySpec::new(HeuristicKind::MemBooking, m);
        let per_task = Duration::from_millis(3);
        let platform = AsyncPlatform::new(8)
            .with_threads(1)
            .with_workload(Workload::IoBound {
                nanos_per_time_unit: per_task.as_nanos() as f64,
                max_nanos: per_task.as_nanos() as u64,
                chunks: 3,
            });
        let report = platform.run(&tree, &spec).unwrap();
        assert_eq!(report.tasks_run, tree.len());
        let serial = per_task.as_secs_f64() * tree.len() as f64;
        assert!(
            report.wall_seconds < serial * 0.6,
            "IO waits serialised on the executor: {:.3}s vs {serial:.3}s serial",
            report.wall_seconds
        );
    }

    #[test]
    fn zero_workers_rejected() {
        let tree = memtree_gen::synthetic::paper_tree(10, 1);
        let spec = PolicySpec::new(HeuristicKind::MemBooking, min_memory(&tree));
        for (workers, threads) in [(0, 1), (2, 0)] {
            let err = AsyncPlatform {
                workers,
                threads,
                workload: Workload::Noop,
                reschedule: None,
            }
            .run(&tree, &spec)
            .unwrap_err();
            assert!(matches!(err, PlatformError::Run(DriveError::BadConfig(_))));
        }
    }

    #[test]
    fn panicking_payload_surfaces_a_clean_error() {
        let tree = memtree_gen::synthetic::paper_tree(40, 7);
        let m = min_memory(&tree) * 10;
        let spec = PolicySpec::new(HeuristicKind::MemBooking, m);
        let platform = AsyncPlatform::new(2).with_workload(Workload::FailAt { node: 3 });
        let err = platform.run(&tree, &spec).unwrap_err();
        assert!(
            matches!(err, PlatformError::Run(DriveError::Backend(_))),
            "got {err}"
        );
        // The platform value is reusable after the failure.
        let report = platform
            .with_workload(Workload::Noop)
            .run(&tree, &spec)
            .unwrap();
        assert_eq!(report.tasks_run, tree.len());
    }

    #[test]
    fn moldable_gangs_run_as_futures() {
        let tree = memtree_gen::synthetic::paper_tree(80, 11);
        let m = min_memory(&tree);
        let caps = memtree_sched::AllotmentCaps::uniform(&tree, 4);
        let spec = PolicySpec::new(HeuristicKind::MemBooking, m).with_caps(caps);
        let report = AsyncPlatform::new(4)
            .with_workload(Workload::quick_io())
            .run(&tree, &spec)
            .unwrap();
        assert_eq!(report.tasks_run, tree.len());
        assert!(report.peak_booked <= m);
    }
}
