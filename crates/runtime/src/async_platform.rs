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
//! The scheduling contract is untouched: the calling thread takes the
//! threaded pool's very gang step (`executor::GangStep`) — the same
//! driver core, gang registry, grows and shrinks — spawns every member it
//! stages as a future, and blocks on the completion channel for the next
//! batch. The driver's capacity ledger still counts `workers` logical
//! processors, and booking is still audited at every event. A panicking
//! payload ends its member with a notice on that same channel, so the
//! failure arrives as promptly as a completion. Every
//! [`PolicySpec`](memtree_sched::PolicySpec) — moldable and `MemBookingRedTree` included — runs
//! unmodified; the differential suite (`tests/async_equivalence.rs`) and
//! `platform_conformance!` pin the equivalence with `SimPlatform` and
//! `ThreadedPlatform`.

use crate::executor::{GangMember, GangStep};
use crate::platform::{run_driven, Platform, PlatformError, RunReport};
use crate::workload::Workload;
use crossbeam::channel::{self, Sender};
use memtree_sched::ReschedulePolicy;
use memtree_sim::driver::{DriveConfig, DriveError, DriveStats, Rescheduler};
use memtree_sim::Scheduler;
use memtree_tree::{NodeId, TaskTree};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::task::Poll;

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
        rescheduler: Option<&mut (dyn Rescheduler + Send)>,
    ) -> Result<(f64, DriveStats), DriveError> {
        if self.threads == 0 {
            return Err(DriveError::BadConfig("zero executor threads".into()));
        }
        let started_at = std::time::Instant::now();
        // Shorten the rescheduler's object lifetime to the tree's borrow.
        let rescheduler = rescheduler.map(|r| -> &mut (dyn Rescheduler + Send) { r });
        let cfg = DriveConfig::new(self.workers, memory);
        let mut step = GangStep::new(exec, cfg, scheduler, rescheduler)?;
        // Spawned member futures are `'static`, so they share the tree by
        // `Arc` — one O(n) clone per run, amortised over the whole tree.
        let tree = Arc::new(exec.clone());
        // Dropped on return: the queue closes and the executor threads join.
        let rt = minitok::Runtime::new(self.threads);
        // `Some(task)` reports a gang's completion, `None` a panicked member.
        let (done_tx, done_rx) = channel::unbounded::<Option<NodeId>>();
        let mut completions = Vec::with_capacity(self.workers);
        let mut staged = Vec::with_capacity(self.workers);
        loop {
            let stepped = step.step(&mut completions, &mut staged)?;
            for member in staged.drain(..) {
                spawn_member(&rt, &tree, self.workload, &done_tx, member);
            }
            if stepped.over {
                return Ok((started_at.elapsed().as_secs_f64(), step.stats()));
            }
            // Block for one notice, then drain whatever else arrived. The
            // pump holds a sender, so the channel never disconnects.
            completions.clear();
            let mut next = Some(done_rx.recv().unwrap_or(None));
            while let Some(notice) = next {
                let task = notice
                    .ok_or_else(|| DriveError::Backend("a payload future panicked".into()))?;
                completions.push(task);
                next = done_rx.try_recv().ok();
            }
        }
    }
}

/// Spawns `member` as a future running the same claim-retire-report
/// protocol as the threaded pool's worker loop. A panic in its payload is
/// caught at the poll and sent as a `None` notice instead.
fn spawn_member(
    rt: &minitok::Runtime,
    tree: &Arc<TaskTree>,
    workload: Workload,
    done_tx: &Sender<Option<NodeId>>,
    GangMember { task, gang }: GangMember,
) {
    let (tree, done_tx) = (tree.clone(), done_tx.clone());
    let mut member = Box::pin(async move {
        let mut retired = false;
        loop {
            // Shard boundaries are the only malleability points: check for
            // retirement before claiming.
            if gang.try_retire() {
                retired = true;
                break;
            }
            let Some(shard) = gang.claim() else { break };
            workload
                .run_shard_async(&tree, task, shard, gang.shards)
                .await;
            gang.finish_shard();
        }
        // Retired members never report: the member ledger keeps at least
        // one member who exits via payload exhaustion, and the last such
        // exit is the one completion that releases the whole gang.
        (!retired && gang.member_exit()).then_some(task)
    });
    rt.spawn(std::future::poll_fn(move |cx| {
        let notice = match catch_unwind(AssertUnwindSafe(|| member.as_mut().poll(cx))) {
            Ok(Poll::Pending) => return Poll::Pending,
            Ok(Poll::Ready(None)) => return Poll::Ready(()),
            Ok(Poll::Ready(Some(task))) => Some(task),
            Err(_) => None,
        };
        let _ = done_tx.send(notice);
        Poll::Ready(())
    }));
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
            |exec, memory, sched, resched| self.execute(exec, memory, sched, resched),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_sched::{HeuristicKind, PolicySpec};
    use std::time::Duration;

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
