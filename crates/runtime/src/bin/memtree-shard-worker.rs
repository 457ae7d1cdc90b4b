//! The shard-worker executable behind
//! [`memtree_runtime::ProcessPlatform`]: reads one `memtree-worker v1`
//! job from stdin (see [`memtree_runtime::process::wire`]), runs the
//! shard subtree through [`run_part`] (the body a thread-backed shard
//! worker runs too), and writes the line-framed report stream — `ready`,
//! periodic `heartbeat` ticks, then exactly one `done`/`failed` verdict —
//! to stdout.
//!
//! Exit code 0 means the protocol completed (the verdict, success *or*
//! clean failure, was written); any other exit — including death by
//! signal — tells the coordinating supervisor the worker died before
//! its verdict, which is the retryable path.

use memtree_runtime::process::wire;
use memtree_runtime::sharded::run_part;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut chaos_kill = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // Diagnostic labels only (they show up in `ps`); the job
            // itself arrives on stdin.
            "--shard" | "--attempt" => {
                args.next();
            }
            "--chaos-kill" => chaos_kill = true,
            other => {
                report(&format!("failed error unknown argument {other:?}"));
                return 2;
            }
        }
    }

    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        report(&format!("failed error reading job: {e}"));
        return 2;
    }
    let job = match wire::parse_job(&input) {
        Ok(job) => job,
        Err(e) => {
            report(&format!("failed error bad job: {e}"));
            return 2;
        }
    };
    report("ready");

    if chaos_kill {
        // Chaos fault injection: die by SIGKILL after acknowledging the
        // job — no verdict, no exit handler, pipes slam shut. The parked
        // loop below is unreachable unless `kill` is missing, in which
        // case abort() still dies signal-style (SIGABRT).
        let _ = std::process::Command::new("kill")
            .args(["-9", &std::process::id().to_string()])
            .status();
        std::thread::sleep(Duration::from_millis(500));
        std::process::abort();
    }

    let stop = Arc::new(AtomicBool::new(false));
    let heartbeat = (!job.heartbeat.is_zero()).then(|| {
        let stop = stop.clone();
        let period = job.heartbeat;
        std::thread::spawn(move || {
            let mut due = Instant::now() + period;
            // ordering: SeqCst — a once-per-5ms shutdown flag on a
            // process boundary: clarity over the unmeasurable cost.
            while !stop.load(Ordering::SeqCst) {
                // Short sleep slices so the thread notices `stop`
                // promptly even under long heartbeat periods.
                std::thread::sleep(period.min(Duration::from_millis(5)));
                if Instant::now() >= due {
                    report("heartbeat");
                    due = Instant::now() + period;
                }
            }
        })
    });

    let outcome = run_part(&job.tree, &job.spec, job.workers, job.workload);

    // ordering: SeqCst — pairs with the heartbeat loop's load above.
    stop.store(true, Ordering::SeqCst);
    if let Some(h) = heartbeat {
        let _ = h.join();
    }
    report(&wire::verdict_line(&outcome));
    0
}

/// Writes one protocol line and flushes — stdout is block-buffered on a
/// pipe, and the coordinator judges liveness by line arrival.
fn report(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}
