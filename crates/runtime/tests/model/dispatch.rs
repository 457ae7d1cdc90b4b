//! Dispatch-queue models (`memtree_runtime::dispatch::BatchQueue`): a
//! batch reaches parked receivers with every entry popped exactly once
//! and nobody left parked while work is queued, and `close` wakes every
//! parked receiver. A lost wake shows up as a minloom deadlock report —
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
            queue.push_batch(&mut vec![7]),
            Err(Closed),
            "closed for good"
        );
    });
}
