//! Dispatch-queue models (`memtree_runtime::dispatch::BatchQueue`): a
//! batch reaches parked receivers with every entry popped exactly once
//! and nobody left parked while work is queued, `close` wakes every
//! parked receiver, and a blocking drain never misses an entry pushed
//! before the close. A lost wake shows up as a minloom deadlock report —
//! which is how the `memtree_loom_mutate_dispatch_wake` teeth check
//! (parked count read outside the pushing critical section) must die.

use memtree_runtime::dispatch::{BatchQueue, Closed};
use minloom::sync::Arc;
use minloom::{thread, Config};

/// The executor's launch direction at its smallest: a batch of 2 flushed
/// to 2 receivers that each take exactly one entry. Whatever mix of
/// "already parked" and "not there yet" the schedule produces, both
/// receivers must come back — one wake for the batch would strand the
/// second — and between them they hold each entry once.
#[test]
fn batch_wakes_a_receiver_per_entry() {
    let iterations = minloom::model_with(Config::with_preemption_bound(2), || {
        let queue = Arc::new(BatchQueue::with_capacity(2));
        let receivers: Vec<_> = (0..2)
            .map(|_| {
                let queue = queue.clone();
                thread::spawn(move || queue.pop())
            })
            .collect();
        let mut batch = vec![1u32, 2];
        queue.push_batch(&mut batch).expect("queue open");
        assert!(batch.is_empty(), "the flush empties the staging buffer");
        let mut got: Vec<u32> = receivers
            .into_iter()
            .map(|r| r.join().expect("receiver panicked").expect("an entry each"))
            .collect();
        got.sort_unstable();
        assert_eq!(got, [1, 2], "every entry exactly once");
    });
    assert!(iterations > 1, "model explored more than one schedule");
}

/// More entries than receivers, receivers looping until the close as the
/// executor's workers do: the first woken receiver may drain the whole
/// batch or share it, a receiver may park again between entries — every
/// entry is still popped exactly once and both loops end.
#[test]
fn batch_then_close_delivers_exactly_once() {
    minloom::model_with(Config::with_preemption_bound(2), || {
        let queue = Arc::new(BatchQueue::with_capacity(4));
        let receivers: Vec<_> = (0..2)
            .map(|_| {
                let queue = queue.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = queue.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        queue.push_batch(&mut vec![1u32, 2, 3]).expect("queue open");
        queue.close();
        let mut all = Vec::new();
        for r in receivers {
            let got = r.join().expect("receiver panicked");
            assert!(got.windows(2).all(|w| w[0] < w[1]), "FIFO per receiver");
            all.extend(got);
        }
        all.sort_unstable();
        assert_eq!(all, [1, 2, 3], "the backlog survives the close");
    });
}

/// Shutdown with nothing queued: both receivers may be parked, about to
/// park, or not started when the close lands; all of them must observe
/// it. (The payload-panic path of the executor rides on exactly this.)
#[test]
fn close_wakes_every_parked_receiver() {
    minloom::model_with(Config::with_preemption_bound(2), || {
        let queue = Arc::new(BatchQueue::<u32>::with_capacity(1));
        let popper = {
            let queue = queue.clone();
            thread::spawn(move || queue.pop())
        };
        let drainer = {
            let queue = queue.clone();
            thread::spawn(move || queue.drain_blocking(&mut Vec::new()))
        };
        queue.close();
        assert_eq!(popper.join().expect("popper panicked"), None);
        assert_eq!(drainer.join().expect("drainer panicked"), Err(Closed));
        assert_eq!(queue.push(7), Err(Closed), "closed for good");
    });
}

/// The completion direction: two workers each push one completion — the
/// wake is skipped whenever the driver is not parked — and the second
/// closes the queue behind it. The driver's block-for-one-then-everything
/// drain must collect both entries before it ever sees `Closed`.
#[test]
fn drain_misses_nothing_pushed_before_close() {
    minloom::model_with(Config::with_preemption_bound(2), || {
        let queue = Arc::new(BatchQueue::with_capacity(2));
        let first = {
            let queue = queue.clone();
            thread::spawn(move || queue.push(1u32).expect("pushed before the close"))
        };
        let second = {
            let queue = queue.clone();
            thread::spawn(move || {
                queue.push(2u32).expect("pushed before the close");
                first.join().expect("first pusher panicked");
                queue.close();
            })
        };
        let mut got = Vec::new();
        let mut drains = 0;
        while queue.drain_blocking(&mut got).is_ok() {
            drains += 1;
        }
        assert!((1..=2).contains(&drains), "a drain never comes back empty");
        got.sort_unstable();
        assert_eq!(got, [1, 2], "both completions drained before Closed");
        second.join().expect("second pusher panicked");
    });
}

/// Both directions together, as `executor.rs` wires them: the driver
/// flushes a tick to the task queue and blocks on the completion queue,
/// the worker pops a member and pushes its completion, and nothing but
/// those pushes may wake anybody — there is no close until every
/// completion is in. Two ticks (2 entries, then 1), so the worker parks
/// again between them and the driver parks behind a wake-skipping push.
/// (One worker: the receiver-per-entry side is modelled above, and a
/// third thread here costs minutes of schedules for no new race.)
#[test]
fn driver_and_worker_round_trip_without_a_lost_wake() {
    minloom::model_with(Config::with_preemption_bound(2), || {
        let tasks = Arc::new(BatchQueue::with_capacity(2));
        let done = Arc::new(BatchQueue::with_capacity(2));
        let worker = {
            let (tasks, done) = (tasks.clone(), done.clone());
            thread::spawn(move || {
                while let Some(task) = tasks.pop() {
                    done.push(task).expect("driver still draining");
                }
            })
        };
        let mut completed = Vec::new();
        for mut staged in [vec![1u32, 2], vec![3]] {
            let want = completed.len() + staged.len();
            tasks.push_batch(&mut staged).expect("queue open");
            while completed.len() < want {
                done.drain_blocking(&mut completed).expect("queue open");
            }
        }
        tasks.close();
        worker.join().expect("worker panicked");
        assert_eq!(completed, [1, 2, 3], "one worker: FIFO end to end");
    });
}
