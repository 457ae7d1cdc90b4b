//! **`ProcessPlatform`** — the shard coordinator of [`crate::sharded`]
//! over real worker *processes* (DESIGN.md §6.12).
//!
//! Each shard attempt is a spawned `memtree-shard-worker` process
//! connected only by its stdin/stdout pipes. The transport serialises the
//! shard's subtree (the `memtree_tree::io` v1 text format), its
//! [`PolicySpec`] (the `memtree-spec v1` format, pinned to
//! `PolicySpec::fingerprint`) and the run parameters down the pipe; the
//! worker answers with a line-framed report stream (`ready`, `heartbeat`,
//! then exactly one `done …` or `failed …` verdict). Both parsers are
//! strict — across a process boundary, lenient parsing turns corruption
//! into a silently different schedule.
//!
//! A worker that exits nonzero, is killed by a signal, or closes its pipe
//! before a verdict surfaces as `Died`, and the coordinator **requeues**
//! the shard onto a fresh worker process (its budget kept reserved) up to
//! [`ProcessPlatform::retries`] times before failing the run with
//! [`PlatformError::ShardFailed`]. Stopping an attempt kills the worker
//! and waits for its exit, so a stall releases every reservation and
//! quarantines nothing. Heartbeats keep the idle watchdog honest: it only
//! fires on a worker that is genuinely gone (killed, wedged, or its
//! heartbeats disabled).

use crate::platform::{Platform, PlatformError};
use crate::sharded::{coordinate, ShardTransport, ShardedPlatform, ShardedReport, Stop};
use crate::workload::Workload;
use crossbeam::channel::Sender;
use memtree_sched::PolicySpec;
use memtree_tree::partition::Partition;
use memtree_tree::TaskTree;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Duration;

pub mod wire;

/// Fault injection for the process chaos suite: the coordinator passes
/// `--chaos-kill` to exactly one spawned worker — shard `shard`, spawn
/// attempt `attempt` (0-based) — which then SIGKILLs itself after
/// acknowledging the job, exercising the death-detection and requeue
/// paths deterministically.
#[derive(Clone, Copy, Debug)]
pub struct ChaosKill {
    /// Shard whose worker self-kills.
    pub shard: usize,
    /// Spawn attempt (0 = the first process for the shard).
    pub attempt: usize,
}

/// The process-backed shard platform; see the module docs.
#[derive(Clone, Debug)]
pub struct ProcessPlatform {
    /// The coordinator settings — shard count, threads per worker
    /// process, payload (also of the local residual phase), watchdog and
    /// deadline — exactly a thread-backed platform's. The watchdog counts
    /// heartbeats as well as reports.
    pub coordinator: ShardedPlatform,
    /// How many times a shard is requeued onto a fresh worker process
    /// after its worker *dies* (exit without a verdict). Clean `failed`
    /// verdicts are never retried — the policy's refusal is
    /// deterministic.
    pub retries: usize,
    /// Worker heartbeat period ([`Duration::ZERO`] disables heartbeats,
    /// leaving the watchdog to judge workers by reports alone).
    pub heartbeat: Duration,
    /// Explicit path to the `memtree-shard-worker` binary. When unset,
    /// the `MEMTREE_WORKER_BIN` environment variable is consulted, then
    /// the directory of the current executable and its parent (which
    /// finds `target/<profile>/memtree-shard-worker` from both
    /// integration tests and installed binaries).
    pub worker_bin: Option<PathBuf>,
    /// Chaos fault injection; `None` in production.
    pub chaos_kill: Option<ChaosKill>,
}

impl ProcessPlatform {
    /// Up to `shards` worker processes of one thread each, no-op payload,
    /// no watchdog, one retry, 50 ms heartbeats.
    ///
    /// # Panics
    /// When `shards` is 0.
    pub fn new(shards: usize) -> Self {
        ProcessPlatform {
            coordinator: ShardedPlatform::new(shards),
            retries: 1,
            heartbeat: Duration::from_millis(50),
            worker_bin: None,
            chaos_kill: None,
        }
    }

    /// Overrides the per-process worker-thread count.
    pub fn with_workers_per_shard(mut self, workers: usize) -> Self {
        self.coordinator = self.coordinator.with_workers_per_shard(workers);
        self
    }

    /// Overrides the per-task payload.
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.coordinator = self.coordinator.with_workload(workload);
        self
    }

    /// Enables the idle watchdog.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.coordinator = self.coordinator.with_timeout(timeout);
        self
    }

    /// Enables the overall shard-phase deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.coordinator = self.coordinator.with_deadline(deadline);
        self
    }

    /// Overrides the death-requeue budget (0 = fail on first death).
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Overrides the worker heartbeat period (`Duration::ZERO` disables).
    pub fn with_heartbeat(mut self, heartbeat: Duration) -> Self {
        self.heartbeat = heartbeat;
        self
    }

    /// Pins the worker binary path (tests use
    /// `env!("CARGO_BIN_EXE_memtree-shard-worker")`).
    pub fn with_worker_bin(mut self, path: impl Into<PathBuf>) -> Self {
        self.worker_bin = Some(path.into());
        self
    }

    /// Arms chaos fault injection.
    pub fn with_chaos_kill(mut self, chaos: ChaosKill) -> Self {
        self.chaos_kill = Some(chaos);
        self
    }

    fn resolve_worker_bin(&self) -> Result<PathBuf, PlatformError> {
        if let Some(p) = &self.worker_bin {
            return Ok(p.clone());
        }
        if let Ok(p) = std::env::var("MEMTREE_WORKER_BIN") {
            return Ok(PathBuf::from(p));
        }
        let exe = std::env::current_exe().map_err(|e| {
            PlatformError::Process(format!("cannot locate current executable: {e}"))
        })?;
        let mut dir = exe.parent();
        while let Some(d) = dir {
            let candidate = d.join("memtree-shard-worker");
            if candidate.is_file() {
                return Ok(candidate);
            }
            // Integration tests run from target/<profile>/deps/; the
            // worker lands one level up in target/<profile>/.
            if d.file_name().is_some_and(|n| n != "deps") {
                break;
            }
            dir = d.parent();
        }
        Err(PlatformError::Process(
            "memtree-shard-worker binary not found; build it with \
             `cargo build -p memtree_runtime --bin memtree-shard-worker`, \
             set MEMTREE_WORKER_BIN, or use with_worker_bin(..)"
                .into(),
        ))
    }

    /// Runs `spec` over `tree` with one worker process per shard,
    /// returning full per-shard detail. The report's `platform` is
    /// `"process"`; shard reports carry `"process-worker"`.
    pub fn run_detailed(
        &self,
        tree: &TaskTree,
        spec: &PolicySpec,
    ) -> Result<ShardedReport, PlatformError> {
        coordinate(
            &self.coordinator,
            self.name(),
            self.retries,
            self,
            tree,
            spec,
        )
    }
}

/// One supervised worker process per attempt.
impl ShardTransport for ProcessPlatform {
    /// The worker binary and one serialized job per shard, reused
    /// verbatim across retries — a requeued worker sees byte-identical
    /// input.
    type Jobs = (PathBuf, Vec<String>);
    type Attempt = Supervisor;

    fn prepare(
        &self,
        part: &Arc<Partition>,
        specs: Vec<PolicySpec>,
    ) -> Result<Self::Jobs, PlatformError> {
        let worker_bin = self.resolve_worker_bin()?;
        let payloads = part
            .shards
            .iter()
            .zip(&specs)
            .map(|(shard, spec)| {
                wire::job_to_string(
                    &shard.tree,
                    spec,
                    self.coordinator.workers_per_shard,
                    self.coordinator.workload,
                    self.heartbeat,
                )
            })
            .collect();
        Ok((worker_bin, payloads))
    }

    /// Spawns one worker process and its supervisor thread. The
    /// supervisor writes the job down stdin, closes it, then relays every
    /// stdout line to the coordinator channel; on EOF it reaps the child
    /// and, if no verdict was seen, reports the death.
    fn launch(
        &self,
        (worker_bin, payloads): &Self::Jobs,
        shard: usize,
        attempt: usize,
        tx: &Sender<(usize, wire::WorkerMsg)>,
    ) -> Result<Supervisor, PlatformError> {
        let mut cmd = Command::new(worker_bin);
        cmd.arg("--shard")
            .arg(shard.to_string())
            .arg("--attempt")
            .arg(attempt.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if self
            .chaos_kill
            .is_some_and(|c| c.shard == shard && c.attempt == attempt)
        {
            cmd.arg("--chaos-kill");
        }
        let mut child = cmd.spawn().map_err(|e| {
            PlatformError::Process(format!(
                "spawning {} for shard {shard}: {e}",
                worker_bin.display()
            ))
        })?;
        // Both pipes were requested above; a hole means the OS handed us a
        // broken child — reap it and fail the attempt instead of panicking.
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(PlatformError::Process(format!(
                "worker pipes missing for shard {shard}"
            )));
        };
        let child = Arc::new(Mutex::new(Some(child)));
        let payload = payloads[shard].clone();
        let (thread_child, tx) = (child.clone(), tx.clone());
        let thread = std::thread::Builder::new()
            .name(format!("memtree-proc-sup-{shard}-{attempt}"))
            .spawn(move || {
                supervise(shard, stdin, stdout, thread_child, payload, tx);
            })
            .map_err(|e| {
                // No supervisor means nobody will ever reap the child:
                // kill and wait for it here, then fail the attempt.
                if let Ok(mut guard) = child.lock() {
                    if let Some(mut orphan) = guard.take() {
                        let _ = orphan.kill();
                        let _ = orphan.wait();
                    }
                }
                PlatformError::Process(format!("spawning supervisor for shard {shard}: {e}"))
            })?;
        Ok(Supervisor { child, thread })
    }

    /// SIGKILLs the worker if it is still ours to kill, then joins the
    /// supervisor, which returns only after reaping it: a process's exit
    /// is always confirmed. The lock is never held across a blocking
    /// wait (the supervisor reaps with `try_wait` under the same
    /// discipline), so this cannot deadlock.
    fn stop(&self, supervisor: Supervisor, _reported: bool) -> Stop {
        if let Ok(mut guard) = supervisor.child.lock() {
            if let Some(child) = guard.as_mut() {
                let _ = child.kill();
            }
        }
        let _ = supervisor.thread.join();
        Stop::Exited
    }
}

/// One worker-process attempt under supervision: the shared child handle
/// (the coordinator kills through it; the supervisor reaps through it)
/// and the supervisor thread.
pub(crate) struct Supervisor {
    child: Arc<Mutex<Option<Child>>>,
    thread: std::thread::JoinHandle<()>,
}

/// The supervisor body: feed the job, relay the report stream, reap.
/// Exactly one terminal message ([`wire::WorkerMsg::Done`] / `Failed` /
/// `Died`) is sent per attempt.
fn supervise(
    shard: usize,
    mut stdin: std::process::ChildStdin,
    stdout: std::process::ChildStdout,
    child: Arc<Mutex<Option<Child>>>,
    payload: String,
    tx: Sender<(usize, wire::WorkerMsg)>,
) {
    // Write-then-read cannot deadlock here: the worker drains its whole
    // stdin before writing anything, and its replies are tiny lines that
    // fit the pipe buffer regardless.
    let fed = stdin
        .write_all(payload.as_bytes())
        .and_then(|()| stdin.flush());
    drop(stdin); // EOF tells the worker the job is complete
    let mut verdict_sent = false;
    if fed.is_ok() {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            match wire::parse_report_line(&line) {
                Ok(msg) => {
                    let terminal =
                        matches!(msg, wire::WorkerMsg::Done(_) | wire::WorkerMsg::Failed(_));
                    let _ = tx.send((shard, msg));
                    if terminal {
                        verdict_sent = true;
                        break;
                    }
                }
                Err(e) => {
                    // A malformed line is a protocol violation — a clean,
                    // non-retryable failure (retrying corruption would
                    // re-run a worker we no longer understand).
                    let _ = tx.send((
                        shard,
                        wire::WorkerMsg::Failed(PlatformError::Process(format!(
                            "protocol violation from worker: {e}"
                        ))),
                    ));
                    verdict_sent = true;
                    break;
                }
            }
        }
    }
    // Reap. try_wait under the lock, never a blocking wait: the
    // coordinator takes the same lock to kill on the stall path.
    let status = loop {
        // A poisoned lock only means the coordinator panicked mid-kill;
        // the child handle inside is still valid, so keep reaping.
        let mut guard = match child.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        match guard.as_mut().map(|c| c.try_wait()) {
            None => break None, // already reaped (cannot happen twice)
            Some(Ok(Some(status))) => {
                guard.take();
                break Some(status);
            }
            Some(Ok(None)) => {}
            Some(Err(_)) => {
                guard.take();
                break None;
            }
        }
        drop(guard);
        std::thread::sleep(Duration::from_millis(2));
    };
    if !verdict_sent {
        let reason = match (fed, status) {
            (Err(e), _) => format!("worker closed stdin mid-job: {e}"),
            (Ok(()), Some(status)) => format!("worker exited without a verdict ({status})"),
            (Ok(()), None) => "worker exited without a verdict".to_string(),
        };
        let _ = tx.send((shard, wire::WorkerMsg::Died(reason)));
    }
}

// Real-process tests; the loom build has no processes to model.
#[cfg(all(test, not(memtree_loom)))]
mod tests {
    use super::*;
    use memtree_sched::HeuristicKind;
    use std::time::Instant;

    /// The real process transport, except that every prepared job is
    /// corrupted — `mutation` picks how, `seed` where — before any worker
    /// reads it. Retries re-send the same corrupted bytes.
    struct Corrupting {
        inner: ProcessPlatform,
        mutation: u64,
        seed: u64,
    }

    impl ShardTransport for Corrupting {
        type Jobs = <ProcessPlatform as ShardTransport>::Jobs;
        type Attempt = Supervisor;

        fn prepare(
            &self,
            part: &Arc<Partition>,
            specs: Vec<PolicySpec>,
        ) -> Result<Self::Jobs, PlatformError> {
            let (worker_bin, mut jobs) = self.inner.prepare(part, specs)?;
            for (shard, job) in jobs.iter_mut().enumerate() {
                *job = corrupt(job, self.mutation, self.seed ^ shard as u64);
            }
            Ok((worker_bin, jobs))
        }

        fn launch(
            &self,
            jobs: &Self::Jobs,
            shard: usize,
            attempt: usize,
            tx: &Sender<(usize, wire::WorkerMsg)>,
        ) -> Result<Supervisor, PlatformError> {
            self.inner.launch(jobs, shard, attempt, tx)
        }

        fn stop(&self, attempt: Supervisor, reported: bool) -> Stop {
            self.inner.stop(attempt, reported)
        }
    }

    /// splitmix64: `seed`'s `k`-th draw.
    fn draw(seed: u64, k: u64) -> usize {
        let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as usize
    }

    /// `job` with one seeded mutation: 0 truncates it, 1 flips a bit of
    /// one byte, 2 duplicates a line, 3 drops one. A flip of an ASCII
    /// byte stays ASCII, so a number can only become another digit or
    /// a non-digit: a worker count stays below 10.
    fn corrupt(job: &str, mutation: u64, seed: u64) -> String {
        let mut bytes = job.as_bytes().to_vec();
        let at = draw(seed, 1);
        match mutation {
            0 => bytes.truncate(at % bytes.len()),
            1 => {
                let i = at % bytes.len();
                bytes[i] ^= 1 << (draw(seed, 2) % 7);
            }
            _ => {
                let mut lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
                let i = at % lines.len();
                if mutation == 2 {
                    lines.insert(i, lines[i]);
                } else {
                    lines.remove(i);
                }
                bytes = lines.concat();
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// ROADMAP Y(3), coordinator half: whatever a corrupted job does to
    /// the real worker — refuse it, crash on it, or run a different but
    /// valid job — the run ends as `Ok` or `ShardFailed` within the
    /// watchdog, never as a stall, and nothing stays quarantined. The
    /// coordinator asserts its own ledger balanced on every such path
    /// (a debug assertion, so this suite checks it in debug builds).
    #[test]
    fn corrupted_jobs_end_as_a_verdict_never_a_hang() {
        let tree = memtree_gen::synthetic::paper_tree(60, 21);
        let memory = memtree_sched::min_feasible_memory(&tree) * 20;
        let spec = PolicySpec::new(HeuristicKind::MemBooking, memory);
        let platform = ProcessPlatform::new(2)
            .with_timeout(Duration::from_secs(5))
            .with_deadline(Duration::from_secs(10));
        let (mut ok, mut failed) = (0, 0);
        for mutation in 0..4u64 {
            for seed in 0..6u64 {
                let transport = Corrupting {
                    inner: platform.clone(),
                    mutation,
                    seed: draw(mutation, seed) as u64,
                };
                let started = Instant::now();
                let outcome = coordinate(
                    &platform.coordinator,
                    "process",
                    platform.retries,
                    &transport,
                    &tree,
                    &spec,
                );
                let case = format!("mutation {mutation}, seed {seed}");
                match outcome {
                    Ok(report) => {
                        assert!(report.report.peak_booked <= memory, "{case}");
                        ok += 1;
                    }
                    Err(PlatformError::ShardFailed { .. }) => failed += 1,
                    Err(other) => panic!("{case}: {other}"),
                }
                assert!(started.elapsed() < Duration::from_secs(5), "{case}");
            }
        }
        assert!(failed > 0, "no corruption reached a worker ({ok} ok)");
        // Process attempts always confirm their exit, so this run holds
        // nothing; the gauge is process-global, so wait out any other
        // test's quarantined workers.
        let deadline = Instant::now() + Duration::from_secs(60);
        while crate::quarantine::held() > 0 {
            assert!(Instant::now() < deadline, "quarantine never drained");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}
