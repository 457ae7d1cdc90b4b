//! [`BatchQueue`]: the threaded executor's dispatch queue (DESIGN.md
//! §6.4).
//!
//! A worker that steps the driver core hands the gang members of the
//! tasks it launched — all but the one it keeps to run itself — to the
//! rest of the pool. On a general-purpose MPMC channel each member is one
//! `send` — one lock and one unconditional condvar notify, i.e. one futex
//! syscall — and on a busy CPU every such wake preempts the sender. This
//! queue is shaped for the protocol instead:
//!
//! * **One entry per gang.** An entry stands for `k ≥ 1` members of one
//!   item: [`BatchQueue::pop`] splits one member off the front entry and
//!   clones the item only when others stay behind, so a gang of `q`
//!   costs one queue slot and one clone per member actually popped.
//! * **Withdrawal.** [`BatchQueue::withdraw`] removes, under the lock,
//!   every entry a predicate picks and returns how many members they
//!   held. A gang member that finds the payload exhausted takes its
//!   still-queued mates back this way and leaves for all of them at once
//!   (`executor::WorkerPool`), instead of each mate paying a pop, a
//!   claim load and an exit of its own.
//! * **One lock per step.** [`BatchQueue::push_batch`] moves a whole
//!   step's entries in under one lock.
//! * **Wakes follow demand.** The queue counts its parked receivers and
//!   its queued members. A push wakes one receiver while there is both an
//!   unclaimed member and a parked receiver, and re-checks under the lock
//!   after every wake: when the woken receiver gets to run first (an
//!   oversubscribed CPU) it drains the batch and the loop stops after one
//!   wake; when it does not (idle cores) the next parked receiver is
//!   woken straight away, up to one per member.
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
//! over every bounded interleaving: each member is popped or withdrawn
//! exactly once, no receiver stays parked while members are queued, and
//! `close` wakes every parked receiver, including one that yields in
//! between its empty check and its park.

use crate::sync::{thread, Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::PoisonError;

/// Returned by [`BatchQueue::push_batch`] once [`BatchQueue::close`] has been
/// called.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Closed;

struct State<T> {
    /// Entries in FIFO order, each an item and its member count (≥ 1).
    queue: VecDeque<(T, usize)>,
    /// Members of every queued entry: the work the wakes are counted
    /// against.
    members: usize,
    /// Receivers blocked in `ready.wait` that no push has picked to wake
    /// yet. `parked + wakes` is the number of threads inside the wait.
    parked: usize,
    /// Wakes issued to parked receivers and not yet consumed by one
    /// returning from the wait — work those receivers are about to claim.
    wakes: usize,
    closed: bool,
}

/// An unbounded FIFO queue of counted entries with batch push, withdrawal
/// and demand-counted wakes; see the module docs.
pub struct BatchQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T: Clone> BatchQueue<T> {
    /// An open, empty queue with room for `capacity` entries before its
    /// ring buffer has to grow.
    pub fn with_capacity(capacity: usize) -> Self {
        BatchQueue {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity),
                members: 0,
                parked: 0,
                wakes: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // Every critical section leaves the state valid at each step
        // (a counter bump, or a ring-buffer push/pop with its member
        // count), so a poisoned lock still guards a usable queue.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Moves every `(item, members)` entry of `items` into the queue, in
    /// order, under one lock, and leaves `items` empty with its capacity
    /// intact. Every entry stands for `members ≥ 1` pops of its item. An
    /// empty batch is a no-op.
    pub fn push_batch(&self, items: &mut Vec<(T, usize)>) -> Result<(), Closed> {
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
        for (item, members) in items.drain(..) {
            debug_assert!(members >= 1, "an entry stands for at least one member");
            st.members += members;
            st.queue.push_back((item, members));
        }
        #[cfg(memtree_loom_mutate_dispatch_wake)]
        if nobody_parked {
            return Ok(());
        }
        // Wake while there is both unclaimed work (members beyond those
        // the in-flight wakes already cover) and a parked receiver. The
        // notify happens outside the lock, so a receiver that preempts
        // this thread finds the mutex free; the state is then re-read,
        // because that receiver may already have drained the batch.
        while st.parked > 0 && st.members > st.wakes {
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

    /// Blocks for the next member: splits one off the front entry, cloning
    /// its item only while other members stay queued. `None` once the
    /// queue is closed and empty.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        let mut yielded = false;
        loop {
            let popped = match st.queue.front_mut() {
                Some((item, members)) if *members > 1 => {
                    let item = item.clone();
                    *members -= 1;
                    Some(item)
                }
                _ => st.queue.pop_front().map(|(item, _)| item),
            };
            if popped.is_some() {
                st.members -= 1;
                return popped;
            }
            if st.closed {
                return None;
            }
            if !yielded {
                // Yield once, uncounted, before parking: a push that lands
                // meanwhile finds nobody parked and makes no syscall, and
                // this receiver takes its member when it runs again.
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

    /// Removes every queued entry whose item `pick` selects, keeping the
    /// others in order, and returns how many members the removed entries
    /// held. Works on a closed queue too. A wake already issued for a
    /// withdrawn member only sends its receiver back to the empty check.
    pub fn withdraw(&self, mut pick: impl FnMut(&T) -> bool) -> usize {
        let mut guard = self.lock();
        let st = &mut *guard;
        let mut withdrawn = 0;
        st.queue.retain(|&(ref item, members)| {
            let keep = !pick(item);
            if !keep {
                // Counted entry by entry, so a panicking `pick` leaves the
                // total in step with the queue.
                st.members -= members;
                withdrawn += members;
            }
            keep
        });
        withdrawn
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

    /// Entries of one member each.
    fn units(items: impl IntoIterator<Item = u32>) -> Vec<(u32, usize)> {
        items.into_iter().map(|v| (v, 1)).collect()
    }

    #[test]
    fn fifo_within_and_across_batches() {
        let q = BatchQueue::with_capacity(4);
        let mut batch = units([1, 2, 3]);
        q.push_batch(&mut batch).unwrap();
        assert!(batch.is_empty() && batch.capacity() >= 3);
        q.push_batch(&mut units([4])).unwrap();
        batch.extend(units([5, 6]));
        q.push_batch(&mut batch).unwrap();
        for want in 1..=6 {
            assert_eq!(q.pop(), Some(want));
        }
    }

    #[test]
    fn a_counted_entry_is_popped_once_per_member_in_place() {
        let q = BatchQueue::with_capacity(4);
        q.push_batch(&mut vec![(1, 1), (2, 3), (3, 1)]).unwrap();
        q.push_batch(&mut vec![(4, 2)]).unwrap();
        q.close();
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(popped, [1, 2, 2, 2, 3, 4, 4]);
    }

    #[test]
    fn withdrawal_counts_members_and_keeps_the_others_in_order() {
        let q = BatchQueue::with_capacity(4);
        q.push_batch(&mut vec![(1, 2), (7, 3), (2, 1), (7, 1), (3, 4)])
            .unwrap();
        // One member of the front entry is already out: only the queued
        // ones are withdrawn.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.withdraw(|&v| v == 1), 1);
        assert_eq!(q.withdraw(|&v| v == 7), 4, "both entries, every member");
        assert_eq!(q.withdraw(|&v| v == 7), 0, "nothing left to withdraw");
        q.close();
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            popped,
            [2, 3, 3, 3, 3],
            "a withdrawn member is never popped"
        );
    }

    #[test]
    fn withdrawal_works_on_a_closed_queue() {
        let q = BatchQueue::with_capacity(2);
        q.push_batch(&mut vec![(5, 3), (6, 1)]).unwrap();
        q.close();
        assert_eq!(q.withdraw(|&v| v == 5), 3);
        assert_eq!(q.pop(), Some(6));
        assert_eq!(q.pop(), None);
        assert_eq!(q.withdraw(|_| true), 0);
    }

    #[test]
    fn close_keeps_the_backlog_and_refuses_new_entries() {
        let q = BatchQueue::with_capacity(2);
        q.push_batch(&mut units([1])).unwrap();
        q.close();
        q.close();
        assert_eq!(q.push_batch(&mut units([2])), Err(Closed));
        let mut batch = units([3, 4]);
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
                batch.extend((0..per_batch).map(|k| (b * per_batch + k, 1)));
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

    /// Gang-shaped traffic: every batch is one entry of several members,
    /// and a pusher withdraws whatever of the previous one is still
    /// queued. Every member is popped or withdrawn exactly once.
    #[test]
    fn counted_entries_reach_contending_receivers_or_come_back_exactly_once() {
        let q = BatchQueue::with_capacity(8);
        let batches = 500usize;
        let members = 3usize;
        let (popped, withdrawn) = std::thread::scope(|scope| {
            let receivers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let mut got = vec![0usize; batches];
                        while let Some(b) = q.pop() {
                            got[b] += 1;
                        }
                        got
                    })
                })
                .collect();
            let mut withdrawn = vec![0usize; batches];
            for b in 0..batches {
                q.push_batch(&mut vec![(b, members)]).unwrap();
                if b > 0 {
                    withdrawn[b - 1] = q.withdraw(|&v| v == b - 1);
                }
            }
            q.close();
            let mut popped = vec![0usize; batches];
            for r in receivers {
                for (total, got) in popped.iter_mut().zip(r.join().unwrap()) {
                    *total += got;
                }
            }
            (popped, withdrawn)
        });
        for b in 0..batches {
            assert_eq!(popped[b] + withdrawn[b], members, "entry {b}");
        }
    }
}
