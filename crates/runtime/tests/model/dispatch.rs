//! Dispatch-queue models (`memtree_runtime::dispatch::BatchQueue`): a
//! batch reaches parked receivers with every member popped or withdrawn
//! exactly once and nobody left parked while members are queued — a
//! counted entry wakes a receiver per member, not per entry — and `close`
//! wakes every parked receiver. A lost wake shows up as a minloom deadlock report —
//! which is how the `memtree_loom_mutate_dispatch_wake` teeth check
//! (parked count read outside the pushing critical section) and the
//! `memtree_loom_mutate_yield_recheck` one (a receiver that parks after
//! its yield without re-checking the queue) must die. The yield is a
//! scheduling point, so every model here explores pushes and closes that
//! land while a receiver yields.
//! The queue inside the executor's whole worker loop is modelled in
//! `stepping.rs`.

use memtree_runtime::dispatch::{BatchQueue, Closed};
use minloom::sync::Arc;
use minloom::{thread, Config};

/// The executor's flush at its smallest: a batch of 2 flushed
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
        let mut batch = vec![(1u32, 1), (2, 1)];
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
        queue
            .push_batch(&mut vec![(1u32, 1), (2, 1), (3, 1)])
            .expect("queue open");
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

/// A gang's flush: one entry of 2 members to 2 receivers that each take
/// exactly one member. The wakes count members, so both receivers come
/// back even though only one entry was pushed — counting entries would
/// strand the second receiver, a minloom deadlock report.
#[test]
fn counted_entry_wakes_a_receiver_per_member() {
    minloom::model_with(Config::with_preemption_bound(2), || {
        let queue = Arc::new(BatchQueue::with_capacity(1));
        let receivers: Vec<_> = (0..2)
            .map(|_| {
                let queue = queue.clone();
                thread::spawn(move || queue.pop())
            })
            .collect();
        queue.push_batch(&mut vec![(7u32, 2)]).expect("queue open");
        for r in receivers {
            assert_eq!(r.join().expect("receiver panicked"), Some(7));
        }
    });
}

/// A gang's exit racing its mates' pickup: a 3-member entry, 2 receivers
/// that each pop once, and a withdrawal of the entry followed by the
/// close, as the executor's exiting member and the end of the run do.
/// Each member is handed out or withdrawn exactly once, and the close
/// wakes whoever is still parked.
#[test]
fn withdrawal_racing_receivers_takes_each_member_once() {
    let iterations = minloom::model_with(Config::with_preemption_bound(2), || {
        let queue = Arc::new(BatchQueue::with_capacity(1));
        let receivers: Vec<_> = (0..2)
            .map(|_| {
                let queue = queue.clone();
                thread::spawn(move || queue.pop())
            })
            .collect();
        queue.push_batch(&mut vec![(7u32, 3)]).expect("queue open");
        let withdrawn = queue.withdraw(|&v| v == 7);
        queue.close();
        let got: Vec<Option<u32>> = receivers
            .into_iter()
            .map(|r| r.join().expect("receiver panicked"))
            .collect();
        let popped = got.iter().filter(|v| v.is_some()).count();
        assert_eq!(popped + withdrawn, 3, "every member exactly once");
        assert!(got.iter().flatten().all(|&v| v == 7));
    });
    assert!(iterations > 1, "model explored more than one schedule");
}

/// Shutdown with nothing queued: both receivers may be parked, about to
/// park, or not started when the close lands; all of them must observe
/// it. (The end of every executor run and its payload-panic path ride on
/// exactly this.)
#[test]
fn close_wakes_every_parked_receiver() {
    minloom::model_with(Config::with_preemption_bound(2), || {
        let queue = Arc::new(BatchQueue::<u32>::with_capacity(1));
        let poppers: Vec<_> = (0..2)
            .map(|_| {
                let queue = queue.clone();
                thread::spawn(move || queue.pop())
            })
            .collect();
        queue.close();
        for popper in poppers {
            assert_eq!(popper.join().expect("popper panicked"), None);
        }
        assert_eq!(
            queue.push_batch(&mut vec![(7, 1)]),
            Err(Closed),
            "closed for good"
        );
    });
}
