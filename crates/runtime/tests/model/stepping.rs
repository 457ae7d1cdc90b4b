//! Worker-stepping model (`memtree_runtime::executor::WorkerPool`): the
//! production worker loop — pop a member, run its shards, step the driver
//! core under the pool lock on the gang's last exit, keep one member of
//! the first launched gang, flush the rest to the `BatchQueue` — on a
//! three-node tree with two workers: both leaves are gangs of 1, the root
//! a gang of 2. Every schedule must run each payload shard exactly once,
//! report each gang exactly once and finish the tree, which means the
//! queue closed only after the final step; a worker left parked is a
//! minloom deadlock report. The `memtree_loom_mutate_early_close` teeth
//! check closes the queue as soon as a step launches nothing — at the
//! first leaf's completion, long before the final step — and must die
//! here.

use memtree_runtime::executor::{RuntimeConfig, WorkerPool};
use memtree_sim::Scheduler;
use memtree_tree::{NodeId, TaskSpec, TaskTree};
use minloom::sync::Arc;
use minloom::{thread, Config};
// The counters are read only after every thread has joined, so they need
// no modelled ordering — and std atomics add no scheduling points inside
// the payload.
use std::sync::atomic::{AtomicUsize, Ordering};

const ROOT: NodeId = NodeId(0);
const BOUND: u64 = 100;

/// Starts both leaves on one processor each at the initial event, and the
/// root on two once both leaves have reported; counts every report.
struct Fork {
    reports: std::sync::Arc<[AtomicUsize; 3]>,
    leaves_done: usize,
}

impl Scheduler for Fork {
    fn name(&self) -> &str {
        "fork-model"
    }
    fn on_event(&mut self, finished: &[NodeId], _: usize, to_start: &mut Vec<(NodeId, usize)>) {
        if finished.is_empty() {
            to_start.extend([(NodeId(1), 1), (NodeId(2), 1)]);
        }
        for &i in finished {
            self.reports[i.index()].fetch_add(1, Ordering::Relaxed);
            if i != ROOT {
                self.leaves_done += 1;
                if self.leaves_done == 2 {
                    to_start.push((ROOT, 2));
                }
            }
        }
    }
    fn booked(&self) -> u64 {
        BOUND
    }
}

/// Slot of `(task, shard)` in the shard-run counters: one shard per leaf,
/// two for the root.
fn slot(task: NodeId, shard: u32) -> usize {
    if task == ROOT {
        2 + shard as usize
    } else {
        task.index() - 1
    }
}

#[test]
fn workers_step_the_core_to_completion() {
    let tree: &'static TaskTree = Box::leak(Box::new(
        TaskTree::from_parents(&[None, Some(0), Some(0)], &[TaskSpec::new(0, 1, 1.0); 3])
            .expect("a fork"),
    ));
    let iterations = minloom::model_with(Config::with_preemption_bound(2), move || {
        let reports: std::sync::Arc<[AtomicUsize; 3]> = Default::default();
        let shard_runs: std::sync::Arc<[AtomicUsize; 4]> = Default::default();
        let payload = {
            let shard_runs = shard_runs.clone();
            move |task: NodeId, shard: u32, _: u32| {
                shard_runs[slot(task, shard)].fetch_add(1, Ordering::Relaxed);
            }
        };
        let scheduler = Fork {
            reports: reports.clone(),
            leaves_done: 0,
        };
        let cfg = RuntimeConfig {
            workers: 2,
            memory: BOUND,
        };
        let pool =
            Arc::new(WorkerPool::new(tree, cfg, scheduler, None, payload).expect("a valid pool"));
        // As `execute` runs it: the calling thread takes the initial step,
        // then works beside the spawned worker.
        pool.start();
        let worker = {
            let pool = pool.clone();
            thread::spawn(move || pool.work())
        };
        pool.work();
        worker.join().expect("worker panicked");

        let report = pool
            .finish(std::time::Instant::now())
            .expect("the tree completes: the queue closed after the final step");
        assert_eq!(report.tasks_run, 3);
        assert_eq!(
            report.events, 4,
            "one step per completion plus the initial one"
        );
        assert!(report.peak_busy <= 2, "more members ran than workers exist");
        for (s, runs) in shard_runs.iter().enumerate() {
            assert_eq!(runs.load(Ordering::Relaxed), 1, "shard slot {s} ran once");
        }
        for (i, n) in reports.iter().enumerate() {
            assert_eq!(n.load(Ordering::Relaxed), 1, "task {i} reported once");
        }
    });
    assert!(iterations > 1, "model explored more than one schedule");
}
