//! Gang member-ledger models: every payload shard runs exactly once,
//! exactly one completion report per gang, the retire CAS floor, and the
//! grow-after-completion latch. Every member runs the production member
//! step, `GangState::step` (malleable: `finish_shard` → `try_retire` →
//! `claim`; fixed: `claim` only), then `member_exit` unless it retired,
//! with the payload replaced by a per-shard run counter. The withdrawing
//! exit — a member that finds the payload exhausted takes its still-queued
//! mates back from the dispatch queue and leaves for all of them — runs
//! against the production `BatchQueue`.

use memtree_runtime::dispatch::BatchQueue;
use memtree_runtime::executor::{GangState, MemberStep};
use minloom::sync::atomic::{AtomicUsize, Ordering};
use minloom::sync::Arc;
use minloom::{thread, Config};

/// One gang member's whole life, as in the executor's worker loop; a
/// `malleable` gang's reporter also checks the progress count. Returns
/// `(retired, reported)`.
fn member(gang: &GangState, shard_runs: &[AtomicUsize], malleable: bool) -> (bool, bool) {
    if run_shards(gang, shard_runs) {
        return (true, false);
    }
    let reported = gang.member_exit(1);
    if reported {
        check_reporter(gang, shard_runs, malleable);
    }
    (false, reported)
}

/// Runs the member step until it retires (true) or exits (false).
fn run_shards(gang: &GangState, shard_runs: &[AtomicUsize]) -> bool {
    let mut next = gang.step(None);
    loop {
        match next {
            MemberStep::Run(shard) => {
                // The payload: visible, countable effect per shard.
                shard_runs[shard as usize].fetch_add(1, Ordering::Relaxed);
                next = gang.step(Some(shard));
            }
            MemberStep::Retire => return true,
            MemberStep::Exit => return false,
        }
    }
}

/// What the gang's reporter must observe, on its own thread.
fn check_reporter(gang: &GangState, shard_runs: &[AtomicUsize], malleable: bool) {
    // The invariant the executor's completion step rides on, and it
    // must hold HERE, on the reporter thread, at report time: the
    // exit chain's AcqRel decrements are the only edges carrying the
    // other members' payload writes to the reporter. (Asserting this
    // after join() on the main thread would prove nothing — joins
    // synchronize everything.) The relaxed-exit teeth check breaks
    // exactly this read: of `shards_done` in a malleable gang, of the
    // payload counters themselves in a fixed one.
    if malleable {
        let (done, total) = gang.progress();
        assert_eq!(
            done, total,
            "reporter must observe the whole payload finished"
        );
    }
    for (s, runs) in shard_runs.iter().enumerate() {
        assert_eq!(
            runs.load(Ordering::Relaxed),
            1,
            "reporter must observe shard {s}'s payload"
        );
    }
}

/// A fixed gang member's life in the executor's worker pool: run shards,
/// and on exit withdraw the gang's still-queued mates (gang id 0 in
/// `queue`) unless it has none, then leave for itself and them at once.
/// Returns whether it reported.
fn withdrawing_member(
    gang: &GangState,
    queue: &BatchQueue<u32>,
    shard_runs: &[AtomicUsize],
) -> bool {
    assert!(
        !run_shards(gang, shard_runs),
        "nobody retires from a fixed gang"
    );
    let withdrawn = if gang.has_mates() {
        queue.withdraw(|&id| id == 0)
    } else {
        0
    };
    let reported = gang.member_exit(1 + withdrawn);
    if reported {
        check_reporter(gang, shard_runs, false);
    }
    reported
}

fn check_all_shards_ran_once(shard_runs: &[AtomicUsize]) {
    for (s, runs) in shard_runs.iter().enumerate() {
        assert_eq!(
            runs.load(Ordering::Relaxed),
            1,
            "shard {s} must run exactly once"
        );
    }
}

/// 2 members × 3 shards, no resizing: every shard claimed and executed
/// exactly once, exactly one member reports, and the reporter observes
/// the whole payload finished (the invariant the relaxed-exit mutation
/// breaks: its Relaxed decrement lets the reporter read a stale
/// `shards_done`).
#[test]
fn claim_complete_exhaustive() {
    let iterations = minloom::model_with(Config::with_preemption_bound(2), || {
        let gang = Arc::new(GangState::malleable(2, 3));
        let shard_runs: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        let members: Vec<_> = (0..2)
            .map(|_| {
                let gang = gang.clone();
                let shard_runs = shard_runs.clone();
                thread::spawn(move || member(&gang, &shard_runs[..], true))
            })
            .collect();
        let mut reports = 0;
        for m in members {
            let (retired, reported) = m.join().expect("member panicked");
            assert!(!retired, "nobody retires from an unshrunk gang");
            reports += usize::from(reported);
        }
        check_all_shards_ran_once(&shard_runs[..]);
        assert_eq!(reports, 1, "exactly one completion report");
        // The last member out must have seen the payload complete — this
        // is what the reporter's caller (the completion push) relies on.
        let (done, total) = gang.progress();
        assert_eq!((done, total), (3, 3), "reporter left unfinished shards");
    });
    assert!(iterations > 1, "model explored more than one schedule");
}

/// 2 members × 3 shards with a concurrent shrink to 1: at most one
/// member retires (the CAS floor keeps `active ≥ max(target, 1)`), the
/// payload still completes exactly once, and exactly one report is made.
/// The `memtree_loom_mutate_cas_floor` teeth check replaces the CAS with
/// a blind decrement, letting both members retire off the same stale
/// read — this test must then see unfinished shards or a missing report.
#[test]
fn shrink_retires_exact_surplus() {
    minloom::model_with(Config::with_preemption_bound(2), || {
        let gang = Arc::new(GangState::malleable(2, 3));
        let shard_runs: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        let members: Vec<_> = (0..2)
            .map(|_| {
                let gang = gang.clone();
                let shard_runs = shard_runs.clone();
                thread::spawn(move || member(&gang, &shard_runs[..], true))
            })
            .collect();
        // Driver thread: shrink the entitlement to 1 mid-flight.
        gang.release(1);
        let mut retired = 0;
        let mut reports = 0;
        for m in members {
            let (r, rep) = m.join().expect("member panicked");
            retired += usize::from(r);
            reports += usize::from(rep);
        }
        assert!(retired <= 1, "only the surplus may retire");
        check_all_shards_ran_once(&shard_runs[..]);
        assert_eq!(reports, 1, "exactly one completion report");
        let (done, total) = gang.progress();
        assert_eq!((done, total), (3, 3), "reporter left unfinished shards");
    });
}

/// A grow landing after the final shard: the sole member may drain the
/// gang to zero and report before the admitted member even starts; the
/// late member re-raises `active`, drains it again, and must NOT report
/// a second time — the `reported` latch is the only thing stopping it.
#[test]
fn grow_after_final_shard_reports_once() {
    minloom::model_with(Config::with_preemption_bound(2), || {
        let gang = Arc::new(GangState::malleable(1, 1));
        let shard_runs: Arc<[AtomicUsize; 1]> = Arc::new(Default::default());
        let first = {
            let gang = gang.clone();
            let shard_runs = shard_runs.clone();
            thread::spawn(move || member(&gang, &shard_runs[..], true))
        };
        // Driver side: admit before staging the member entry, as the
        // stepping worker applies a grow — racing the first member's
        // completion.
        gang.admit(1);
        let second = {
            let gang = gang.clone();
            let shard_runs = shard_runs.clone();
            thread::spawn(move || member(&gang, &shard_runs[..], true))
        };
        let mut reports = 0;
        for m in [first, second] {
            let (retired, reported) = m.join().expect("member panicked");
            assert!(!retired, "target only ever grows here");
            reports += usize::from(reported);
        }
        check_all_shards_ran_once(&shard_runs[..]);
        assert_eq!(reports, 1, "the reported latch must stop the second drain");
    });
}

/// `members` members of a fixed gang over 3 shards, no resizing — the
/// gang of every run without a rescheduler, which keeps no progress
/// count and makes no retirement check. Every shard runs exactly once,
/// nobody retires, exactly one member reports, and the reporter observes
/// every shard's payload effect through the per-shard counters alone (the
/// `memtree_loom_mutate_relaxed_exit` teeth check must fail here by name:
/// without the exit chain's edges the reporter reads a stale counter).
fn fixed_gang(members: usize) {
    let iterations = minloom::model_with(Config::with_preemption_bound(2), move || {
        let gang = Arc::new(GangState::fixed(members, 3));
        let shard_runs: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        let handles: Vec<_> = (0..members)
            .map(|_| {
                let gang = gang.clone();
                let shard_runs = shard_runs.clone();
                thread::spawn(move || member(&gang, &shard_runs[..], false))
            })
            .collect();
        let mut reports = 0;
        for m in handles {
            let (retired, reported) = m.join().expect("member panicked");
            assert!(!retired, "nobody retires from a fixed gang");
            reports += usize::from(reported);
        }
        check_all_shards_ran_once(&shard_runs[..]);
        assert_eq!(reports, 1, "exactly one completion report");
    });
    assert!(iterations > 1, "model explored more than one schedule");
}

#[test]
fn fixed_gang_two_members_three_shards() {
    fixed_gang(2);
}

#[test]
fn fixed_gang_three_members_three_shards() {
    fixed_gang(3);
}

/// A fixed gang of 3 over 3 shards as the worker pool launches it: the
/// stepping worker keeps one member and queues one entry of the other 2.
/// A second worker pops mates while the keeper runs; whoever finds the
/// payload exhausted withdraws the mates still queued and leaves for
/// them. Every shard runs once, each member is run or withdrawn once, and
/// exactly one member reports, observing every payload effect. The
/// `memtree_loom_mutate_withdraw_count` teeth check leaves only for the
/// exiting member, so the gang never drains and must fail here by name.
#[test]
fn fixed_gang_withdrawing_exit_reports_once() {
    let iterations = minloom::model_with(Config::with_preemption_bound(2), || {
        let gang = Arc::new(GangState::fixed(3, 3));
        let shard_runs: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        let queue = Arc::new(BatchQueue::with_capacity(1));
        queue.push_batch(&mut vec![(0u32, 2)]).expect("queue open");
        let keeper = {
            let (gang, queue, shard_runs) = (gang.clone(), queue.clone(), shard_runs.clone());
            thread::spawn(move || usize::from(withdrawing_member(&gang, &queue, &shard_runs[..])))
        };
        let worker = {
            let (gang, queue, shard_runs) = (gang.clone(), queue.clone(), shard_runs.clone());
            thread::spawn(move || {
                let mut reports = 0;
                while queue.pop().is_some() {
                    reports += usize::from(withdrawing_member(&gang, &queue, &shard_runs[..]));
                }
                reports
            })
        };
        let mut reports = keeper.join().expect("keeper panicked");
        // The run's end: the queue closes once the gang has reported.
        queue.close();
        reports += worker.join().expect("worker panicked");
        check_all_shards_ran_once(&shard_runs[..]);
        assert_eq!(reports, 1, "exactly one completion report");
        assert_eq!(queue.withdraw(|_| true), 0, "no mate left queued");
    });
    assert!(iterations > 1, "model explored more than one schedule");
}
