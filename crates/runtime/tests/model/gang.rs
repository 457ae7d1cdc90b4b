//! Gang member-ledger models: every payload shard runs exactly once,
//! exactly one completion report per gang, the retire CAS floor, and the
//! grow-after-completion latch. Mirrors the worker protocol in
//! `executor.rs` (`try_retire` → `claim` → payload → `finish_shard`,
//! then `member_exit` for non-retired members) with the payload replaced
//! by a per-shard run counter.

use memtree_runtime::executor::GangState;
use minloom::sync::atomic::{AtomicUsize, Ordering};
use minloom::sync::Arc;
use minloom::{thread, Config};

/// One gang member's whole life, as in the executor's worker loop.
/// Returns `(retired, reported)`.
fn member(gang: &GangState, shard_runs: &[AtomicUsize]) -> (bool, bool) {
    loop {
        if gang.try_retire() {
            return (true, false);
        }
        let Some(shard) = gang.claim() else { break };
        // The payload: visible, countable effect per shard.
        shard_runs[shard as usize].fetch_add(1, Ordering::Relaxed);
        gang.finish_shard();
    }
    let reported = gang.member_exit();
    if reported {
        // The invariant the executor's completion push rides on, and it
        // must hold HERE, on the reporter thread, at report time: the
        // exit chain's AcqRel decrements are the only edges carrying the
        // other members' finish_shard writes to the reporter. (Asserting
        // this after join() on the driver thread would prove nothing —
        // joins synchronize everything.) The relaxed-exit teeth check
        // breaks exactly this read.
        let (done, total) = gang.progress();
        assert_eq!(
            done, total,
            "reporter must observe the whole payload finished"
        );
    }
    (false, reported)
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
        let gang = Arc::new(GangState::new(2, 3));
        let shard_runs: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        let members: Vec<_> = (0..2)
            .map(|_| {
                let gang = gang.clone();
                let shard_runs = shard_runs.clone();
                thread::spawn(move || member(&gang, &shard_runs[..]))
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
        let gang = Arc::new(GangState::new(2, 3));
        let shard_runs: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
        let members: Vec<_> = (0..2)
            .map(|_| {
                let gang = gang.clone();
                let shard_runs = shard_runs.clone();
                thread::spawn(move || member(&gang, &shard_runs[..]))
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
        let gang = Arc::new(GangState::new(1, 1));
        let shard_runs: Arc<[AtomicUsize; 1]> = Arc::new(Default::default());
        let first = {
            let gang = gang.clone();
            let shard_runs = shard_runs.clone();
            thread::spawn(move || member(&gang, &shard_runs[..]))
        };
        // Driver: admit before staging the member entry, as
        // GangThreadedBackend::resize does — racing the first member's
        // completion.
        gang.admit(1);
        let second = {
            let gang = gang.clone();
            let shard_runs = shard_runs.clone();
            thread::spawn(move || member(&gang, &shard_runs[..]))
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
