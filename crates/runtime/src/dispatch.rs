//! [`BatchQueue`]: the threaded executor's dispatch queue (DESIGN.md
//! §6.4).
//!
//! A worker that steps the driver core hands the gang-member entries of
//! the tasks it launched — all but the one it keeps to run itself — to
//! the rest of the pool. On a general-purpose MPMC channel each entry is
//! one `send` — one lock and one unconditional condvar notify, i.e. one
//! futex syscall — and on a busy CPU every such wake preempts the sender.
//! This queue is shaped for the protocol instead:
//!
//! * **One lock per step.** [`BatchQueue::push_batch`] moves a whole
//!   step's member entries in under one lock.
//! * **Wakes follow demand.** The queue counts its parked receivers. A
//!   push wakes one while there is both unclaimed work and a parked
//!   receiver, and re-checks under the lock after every wake: when the
//!   woken receiver gets to run first (an oversubscribed CPU) it drains
//!   the batch and the loop stops after one wake; when it does not (idle
//!   cores) the next parked receiver is woken straight away, up to one
//!   per entry.
//! * **No syscall without a sleeper.** A push that finds nobody parked
//!   never touches the condvar.
//! * **A receiver yields once before it sleeps.** A receiver that finds
//!   the queue empty drops the lock, yields its CPU once, and re-checks
//!   the queue and `closed` before it parks; while it yields it is not
//!   counted as parked. On a pinned or oversubscribed CPU the thread that
//!   will push next is usually runnable right there, so the yield hands
//!   it the CPU: its push finds nobody parked and makes no syscall, and
//!   the receiver takes the entry when it runs again. Parking at once
//!   instead costs a futex wait and a futex wake per handoff, and the
//!   woken receiver preempts the pusher and claims every shard of a gang
//!   alone (on `exec-gang`, every task a gang of 4, that round trip was
//!   about three quarters of the op). On idle cores the yield returns at
//!   once and the receiver parks as before. Two or four yields measured
//!   no better than one.
//!
//! Built on the [`crate::sync`] façade, so the minloom suite
//! (`tests/model/dispatch.rs`, DESIGN.md §6.13) checks the wake protocol
//! over every bounded interleaving: each entry is popped exactly once, no
//! receiver stays parked while work is queued, and `close` wakes every
//! parked receiver, including one that yields in between its empty check
//! and its park.

use crate::sync::{thread, Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::PoisonError;

/// Returned by [`BatchQueue::push_batch`] once [`BatchQueue::close`] has been
/// called.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Closed;

struct State<T> {
    queue: VecDeque<T>,
    /// Receivers blocked in `ready.wait` that no push has picked to wake
    /// yet. `parked + wakes` is the number of threads inside the wait.
    parked: usize,
    /// Wakes issued to parked receivers and not yet consumed by one
    /// returning from the wait — work those receivers are about to claim.
    wakes: usize,
    closed: bool,
}

/// An unbounded FIFO queue with batch push and demand-counted wakes; see
/// the module docs.
pub struct BatchQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> BatchQueue<T> {
    /// An open, empty queue with room for `capacity` entries before its
    /// ring buffer has to grow.
    pub fn with_capacity(capacity: usize) -> Self {
        BatchQueue {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity),
                parked: 0,
                wakes: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // Every critical section leaves the state valid at each step
        // (a counter bump or a ring-buffer push/pop), so a poisoned lock
        // still guards a usable queue.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Moves every entry of `items` into the queue, in order, under one
    /// lock, and leaves `items` empty with its capacity intact. An empty
    /// batch is a no-op.
    pub fn push_batch(&self, items: &mut Vec<T>) -> Result<(), Closed> {
        if items.is_empty() {
            return Ok(());
        }
        // Seeded regression (CI teeth check): the parked count is read in
        // a critical section of its own, before the one that enqueues. A
        // receiver that parks between the two is never woken — the model
        // suite must report the deadlock.
        #[cfg(memtree_loom_mutate_dispatch_wake)]
        let nobody_parked = self.lock().parked == 0;
        let mut st = self.lock();
        if st.closed {
            // A refused batch never reaches the queue: drop it here.
            items.clear();
            return Err(Closed);
        }
        st.queue.extend(items.drain(..));
        #[cfg(memtree_loom_mutate_dispatch_wake)]
        if nobody_parked {
            return Ok(());
        }
        // Wake while there is both unclaimed work (entries beyond those
        // the in-flight wakes already cover) and a parked receiver. The
        // notify happens outside the lock, so a receiver that preempts
        // this thread finds the mutex free; the state is then re-read,
        // because that receiver may already have drained the batch.
        while st.parked > 0 && st.queue.len() > st.wakes {
            st.parked -= 1;
            st.wakes += 1;
            drop(st);
            self.ready.notify_one();
            st = self.lock();
        }
        Ok(())
    }

    /// Parks the calling receiver until a push or `close` wakes it.
    fn park<'a>(&'a self, mut st: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        st.parked += 1;
        let mut st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        // A wake is anonymous: whoever returns first consumes it. A
        // receiver returning with none outstanding (woken by `close`, or
        // spuriously) was still counted as parked.
        if st.wakes > 0 {
            st.wakes -= 1;
        } else {
            st.parked -= 1;
        }
        st
    }

    /// Blocks for the next entry; `None` once the queue is closed and
    /// empty.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        let mut yielded = false;
        loop {
            if let Some(item) = st.queue.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            if !yielded {
                // Yield once, uncounted, before parking: a push that lands
                // meanwhile finds nobody parked and makes no syscall, and
                // this receiver takes its entry when it runs again.
                yielded = true;
                drop(st);
                thread::yield_now();
                st = self.lock();
                // Seeded regression (CI teeth check): the receiver parks
                // without re-checking the queue and `closed`, so an entry
                // or a close that landed during the yield is never seen —
                // the model suite must report the deadlock.
                #[cfg(memtree_loom_mutate_yield_recheck)]
                {
                    st = self.park(st);
                }
                continue;
            }
            st = self.park(st);
        }
    }

    /// Refuses further pushes and wakes every parked receiver; the
    /// backlog stays poppable. Idempotent.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

// Real-thread tests; under `memtree_loom` the queue is exercised by the
// exhaustive model suite in tests/model/dispatch.rs instead.
#[cfg(all(test, not(memtree_loom)))]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_and_across_batches() {
        let q = BatchQueue::with_capacity(4);
        let mut batch = vec![1, 2, 3];
        q.push_batch(&mut batch).unwrap();
        assert!(batch.is_empty() && batch.capacity() >= 3);
        q.push_batch(&mut vec![4]).unwrap();
        batch.extend([5, 6]);
        q.push_batch(&mut batch).unwrap();
        for want in 1..=6 {
            assert_eq!(q.pop(), Some(want));
        }
    }

    #[test]
    fn close_keeps_the_backlog_and_refuses_new_entries() {
        let q = BatchQueue::with_capacity(2);
        q.push_batch(&mut vec![1]).unwrap();
        q.close();
        q.close();
        assert_eq!(q.push_batch(&mut vec![2]), Err(Closed));
        let mut batch = vec![3, 4];
        assert_eq!(q.push_batch(&mut batch), Err(Closed));
        assert!(batch.is_empty(), "a refused batch is dropped, not kept");
        assert_eq!(
            q.push_batch(&mut batch),
            Ok(()),
            "an empty batch is a no-op"
        );
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_parked_receivers() {
        let q = BatchQueue::<u32>::with_capacity(1);
        std::thread::scope(|scope| {
            let poppers: Vec<_> = (0..3).map(|_| scope.spawn(|| q.pop())).collect();
            // Whether the receivers have parked yet or not, close must
            // release every one of them.
            q.close();
            for p in poppers {
                assert_eq!(p.join().unwrap(), None);
            }
        });
    }

    #[test]
    fn batches_reach_contending_receivers_exactly_once() {
        let q = BatchQueue::with_capacity(8);
        let batches = 500usize;
        let per_batch = 4usize;
        let mut seen = std::thread::scope(|scope| {
            let receivers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let mut got = Vec::new();
                        while let Some(v) = q.pop() {
                            got.push(v);
                        }
                        got
                    })
                })
                .collect();
            let mut batch = Vec::with_capacity(per_batch);
            for b in 0..batches {
                batch.extend((0..per_batch).map(|k| b * per_batch + k));
                q.push_batch(&mut batch).unwrap();
            }
            q.close();
            let mut seen = Vec::new();
            for r in receivers {
                let got = r.join().unwrap();
                // One receiver sees its entries in queue order.
                assert!(got.windows(2).all(|w| w[0] < w[1]));
                seen.extend(got);
            }
            seen
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..batches * per_batch).collect::<Vec<_>>());
    }
}
