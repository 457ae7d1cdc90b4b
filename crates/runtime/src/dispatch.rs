//! [`BatchQueue`]: the threaded executor's dispatch queue, in both
//! directions (DESIGN.md §6.4).
//!
//! The driver thread and the worker pool exchange two kinds of entries:
//! gang-member launches (driver → workers) and task completions (workers
//! → driver). On a general-purpose MPMC channel each entry is one `send`
//! — one lock and one unconditional condvar notify, i.e. one futex
//! syscall — and on a busy CPU every such wake preempts the sender, so
//! the driver is switched out once per *task*. This queue is shaped for
//! the protocol instead:
//!
//! * **One lock per driver tick.** [`BatchQueue::push_batch`] moves a
//!   whole tick's member entries in under one lock;
//!   [`BatchQueue::drain_blocking`] blocks for one completion, then takes
//!   everything that has arrived under the same lock.
//! * **Wakes follow demand.** The queue counts its parked receivers. A
//!   push wakes one while there is both unclaimed work and a parked
//!   receiver, and re-checks under the lock after every wake: when the
//!   woken receiver gets to run first (an oversubscribed CPU) it drains
//!   the batch and the loop stops after one wake; when it does not (idle
//!   cores) the next parked receiver is woken straight away, up to one
//!   per entry.
//! * **No syscall without a sleeper.** A push that finds nobody parked
//!   never touches the condvar — the common case for a completion, which
//!   lands while the driver is still flushing or scheduling.
//!
//! Built on the [`crate::sync`] façade, so the minloom suite
//! (`tests/model/dispatch.rs`, DESIGN.md §6.13) checks the wake protocol
//! over every bounded interleaving: each entry is popped exactly once, no
//! receiver stays parked while work is queued, and `close` wakes every
//! parked receiver.

use crate::sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::PoisonError;

/// Returned by the push and drain operations once [`BatchQueue::close`]
/// has been called (a drain reports it only after the backlog is empty).
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

/// An unbounded FIFO queue with batch push, batch drain and
/// demand-counted wakes; see the module docs.
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

    /// Enqueues one entry, waking a parked receiver only if there is one.
    pub fn push(&self, item: T) -> Result<(), Closed> {
        self.push_with(|queue| queue.push_back(item))
    }

    /// Moves every entry of `items` into the queue, in order, under one
    /// lock, and leaves `items` empty with its capacity intact. An empty
    /// batch is a no-op.
    pub fn push_batch(&self, items: &mut Vec<T>) -> Result<(), Closed> {
        if items.is_empty() {
            return Ok(());
        }
        let pushed = self.push_with(|queue| queue.extend(items.drain(..)));
        // A refused batch never reached the drain: drop it here.
        items.clear();
        pushed
    }

    fn push_with(&self, fill: impl FnOnce(&mut VecDeque<T>)) -> Result<(), Closed> {
        // Seeded regression (CI teeth check): the parked count is read in
        // a critical section of its own, before the one that enqueues. A
        // receiver that parks between the two is never woken — the model
        // suite must report the deadlock.
        #[cfg(memtree_loom_mutate_dispatch_wake)]
        let nobody_parked = self.lock().parked == 0;
        let mut st = self.lock();
        if st.closed {
            return Err(Closed);
        }
        fill(&mut st.queue);
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
        loop {
            if let Some(item) = st.queue.pop_front() {
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.park(st);
        }
    }

    /// Blocks until at least one entry is queued, then appends the whole
    /// backlog to `out` in FIFO order under the same lock. Entries pushed
    /// before `close` are still delivered; `Err(Closed)` means closed
    /// *and* empty.
    pub fn drain_blocking(&self, out: &mut Vec<T>) -> Result<(), Closed> {
        let mut st = self.lock();
        while st.queue.is_empty() {
            if st.closed {
                return Err(Closed);
            }
            st = self.park(st);
        }
        out.extend(st.queue.drain(..));
        Ok(())
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
        q.push(4).unwrap();
        batch.extend([5, 6]);
        q.push_batch(&mut batch).unwrap();
        for want in 1..=6 {
            assert_eq!(q.pop(), Some(want));
        }
    }

    #[test]
    fn blocking_drain_returns_the_whole_backlog() {
        let q = BatchQueue::with_capacity(2);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        let mut out = vec![99];
        q.drain_blocking(&mut out).unwrap();
        assert_eq!(out, [99, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        // Nothing is left behind for a second drain.
        q.close();
        assert_eq!(q.drain_blocking(&mut out), Err(Closed));
    }

    #[test]
    fn close_keeps_the_backlog_and_refuses_new_entries() {
        let q = BatchQueue::with_capacity(2);
        q.push(1).unwrap();
        q.close();
        q.close();
        assert_eq!(q.push(2), Err(Closed));
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
            let drainer = scope.spawn(|| q.drain_blocking(&mut Vec::new()));
            // Whether the receivers have parked yet or not, close must
            // release every one of them.
            q.close();
            for p in poppers {
                assert_eq!(p.join().unwrap(), None);
            }
            assert_eq!(drainer.join().unwrap(), Err(Closed));
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
