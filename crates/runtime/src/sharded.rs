//! The shard protocol (DESIGN.md §6.7): **one coordinator** over a
//! transport, and **`ShardedPlatform`**, its thread transport
//! ([`crate::ProcessPlatform`] is the process one).
//!
//! The coordinator cuts the tree at subtree-weight frontiers
//! ([`partition()`]) into disjoint shard subtrees plus a
//! residual merge tree. In the **shard phase** every shard runs
//! concurrently on its own worker, connected to the coordinator only by
//! a channel, through [`run_part`]: each shard has an independent booking
//! ledger bounded by its [`ShardBudget`] slice of `M`, and the slices sum
//! to at most `M`. In the **merge phase** each report releases its
//! shard's budget back to the coordinator's ledger; once all are in, the
//! residual tree — each shard a proxy leaf carrying its root's output —
//! runs locally under the full bound. Every [`PolicySpec`] runs
//! unmodified: it is re-derived per part (split memory, caps projected
//! onto the part's ids).
//!
//! A transport only launches and stops shard attempts. The coordinator
//! owns the rest: partition, split, ledger, the one receive loop with its
//! idle watchdog and overall deadline, [`PlatformError::ShardFailed`] for
//! the lowest failed shard index, requeue of `Died` attempts, the stall
//! rule, the residual phase and the roll-up. On every error path each
//! reservation is released, except on [`PlatformError::ShardStalled`]:
//! there a budget is released only once the transport confirms its
//! attempt exited, and attempts still running are **quarantined** (see
//! [`crate::quarantine`]) — held until a reaper joins them. A thread
//! cannot be killed, so a stalled shard thread is quarantined; a worker
//! process is killed and reaped, so it never is.

use crate::platform::{Platform, PlatformError, RunReport, ThreadedPlatform};
use crate::process::wire::WorkerMsg;
use crate::sync::thread::{Builder, JoinHandle};
use crate::workload::Workload;
use crossbeam::channel::{self, Receiver, Sender};
use memtree_sched::{AllotmentCaps, BudgetLedger, PolicyInstance, PolicySpec, ShardBudget};
use memtree_sim::validate::validate_shard_plan;
use memtree_sim::DriveError;
use memtree_tree::partition::{partition, Partition, PartitionPolicy};
use memtree_tree::TaskTree;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The thread-backed shard platform; see the module docs.
#[derive(Clone, Copy, Debug)]
pub struct ShardedPlatform {
    /// Maximum shard count the partitioner may cut (≥ 1; the tree's
    /// structure may admit fewer).
    pub shards: usize,
    /// Worker threads inside each shard's executor.
    pub workers_per_shard: usize,
    /// Per-task payload, as on [`ThreadedPlatform`].
    pub workload: Workload,
    /// Idle watchdog: no shard report for this long fails the run with
    /// [`PlatformError::ShardStalled`] instead of blocking forever.
    pub shard_timeout: Option<Duration>,
    /// Overall deadline for the whole shard phase, measured from its
    /// start. The idle watchdog alone cannot bound the phase — shards
    /// that keep trickling reports reset it — so a deadline caps the
    /// total even when every individual gap stays short. On either stall
    /// the phase returns immediately; still-running workers are
    /// quarantined with their budgets held (see [`crate::quarantine`]).
    pub shard_deadline: Option<Duration>,
}

impl ShardedPlatform {
    /// Up to `shards` shard workers of one thread each, no-op payload,
    /// no watchdog, no deadline.
    ///
    /// # Panics
    /// When `shards` is 0.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a sharded platform needs at least one shard");
        ShardedPlatform {
            shards,
            workers_per_shard: 1,
            workload: Workload::Noop,
            shard_timeout: None,
            shard_deadline: None,
        }
    }

    /// Overrides the per-shard worker-thread count.
    pub fn with_workers_per_shard(mut self, workers: usize) -> Self {
        self.workers_per_shard = workers;
        self
    }

    /// Overrides the per-task payload.
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Enables the idle shard watchdog.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.shard_timeout = Some(timeout);
        self
    }

    /// Enables the overall shard-phase deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.shard_deadline = Some(deadline);
        self
    }

    /// The machine this platform models: every shard worker's threads
    /// plus nothing else (the coordinator only routes messages). The
    /// residual phase reclaims the whole machine.
    pub fn total_workers(&self) -> usize {
        self.shards * self.workers_per_shard
    }

    /// Runs `spec` sharded over `tree`, returning the full per-shard
    /// detail ([`ShardedReport`]); [`Platform::run`] flattens this to the
    /// common [`RunReport`].
    pub fn run_detailed(
        &self,
        tree: &TaskTree,
        spec: &PolicySpec,
    ) -> Result<ShardedReport, PlatformError> {
        coordinate(self, self.name(), 0, self, tree, spec)
    }
}

/// One thread per attempt. A thread turns its payload's panic into a
/// `Failed` verdict and never sends `Died`, so nothing is requeued.
impl ShardTransport for ShardedPlatform {
    type Jobs = (Arc<Partition>, Vec<PolicySpec>);
    type Attempt = JoinHandle<()>;

    fn prepare(
        &self,
        part: &Arc<Partition>,
        specs: Vec<PolicySpec>,
    ) -> Result<Self::Jobs, PlatformError> {
        Ok((part.clone(), specs))
    }

    fn launch(
        &self,
        (part, specs): &Self::Jobs,
        shard: usize,
        _attempt: usize,
        tx: &Sender<(usize, WorkerMsg)>,
    ) -> Result<JoinHandle<()>, PlatformError> {
        let (part, spec, tx) = (part.clone(), specs[shard].clone(), tx.clone());
        let (workers, workload) = (self.workers_per_shard, self.workload);
        Builder::new()
            .name(format!("memtree-shard-{shard}"))
            .spawn(move || {
                let verdict = match run_part(&part.shards[shard].tree, &spec, workers, workload) {
                    Ok(report) => WorkerMsg::Done(report),
                    Err(e) => WorkerMsg::Failed(e),
                };
                let _ = tx.send((shard, verdict));
            })
            // No thread for this shard (resource exhaustion): it fails
            // like a dead worker instead of aborting the phase mid-launch.
            .map_err(|e| DriveError::Backend(format!("shard thread spawn failed: {e}")).into())
    }

    fn stop(&self, handle: JoinHandle<()>, reported: bool) -> Stop {
        // A thread cannot be killed: its exit is confirmed by its verdict
        // (it only returns after sending) or by having finished.
        if reported || handle.is_finished() {
            let _ = handle.join();
            Stop::Exited
        } else {
            Stop::Running(handle)
        }
    }
}

/// [`Platform`] for a shard platform named `$name`. There is no
/// whole-tree instantiation: the parts resolve their own specs, so an
/// instance (resolved against the whole tree) is turned back into its
/// spec.
macro_rules! shard_platform {
    ($platform:ty, $name:literal) => {
        impl Platform for $platform {
            fn name(&self) -> &'static str {
                $name
            }

            fn run_instance(
                &self,
                tree: &TaskTree,
                instance: &PolicyInstance,
            ) -> Result<RunReport, PlatformError> {
                let spec = PolicySpec {
                    kind: instance.kind(),
                    ao: instance.ao().kind(),
                    eo: instance.eo().kind(),
                    memory: instance.memory(),
                    caps: instance.caps().cloned(),
                };
                Ok(self.run_detailed(tree, &spec)?.report)
            }

            fn run(&self, tree: &TaskTree, spec: &PolicySpec) -> Result<RunReport, PlatformError> {
                Ok(self.run_detailed(tree, spec)?.report)
            }
        }
    };
}

shard_platform!(ShardedPlatform, "sharded");
shard_platform!(crate::ProcessPlatform, "process");

/// Runs one part of a sharded tree — a shard subtree or the residual
/// merge tree — on `workers` local threads. This is the body of every
/// shard worker, thread or process: a panic anywhere in the run becomes
/// a [`DriveError::Backend`] verdict, never a silent death, because the
/// coordinator's only view of a worker is its messages.
pub fn run_part(
    tree: &TaskTree,
    spec: &PolicySpec,
    workers: usize,
    workload: Workload,
) -> Result<RunReport, PlatformError> {
    let platform = ThreadedPlatform::new(workers).with_workload(workload);
    catch_unwind(AssertUnwindSafe(|| platform.run(tree, spec)))
        .unwrap_or_else(|_| Err(DriveError::Backend("the shard run panicked".into()).into()))
}

/// How the coordinator reaches its shard workers.
///
/// Contract: every launched attempt sends, on the channel it was given
/// and tagged with its shard, any number of liveness messages (`Ready`,
/// `Heartbeat`) followed by **exactly one** terminal message — `Done`,
/// `Failed` or `Died` — and nothing after it. `Died` (the attempt ended
/// without a verdict) is the only message the coordinator retries.
pub(crate) trait ShardTransport {
    /// Every shard's launch input, prepared once per run and reused by
    /// every attempt.
    type Jobs;
    /// A launched attempt.
    type Attempt;

    /// Prepares the jobs. Transport setup that can fail fails here,
    /// before the coordinator reserves any budget.
    fn prepare(
        &self,
        part: &Arc<Partition>,
        specs: Vec<PolicySpec>,
    ) -> Result<Self::Jobs, PlatformError>;

    /// Launches attempt `attempt` (0-based) of shard `shard`. An error
    /// settles the shard as failed; a launch is never retried.
    fn launch(
        &self,
        jobs: &Self::Jobs,
        shard: usize,
        attempt: usize,
        tx: &Sender<(usize, WorkerMsg)>,
    ) -> Result<Self::Attempt, PlatformError>;

    /// Stops an attempt, killing it if the transport can, and says
    /// whether its exit is confirmed. `reported` tells whether its
    /// terminal message has arrived; when it has, every transport
    /// confirms.
    fn stop(&self, attempt: Self::Attempt, reported: bool) -> Stop;
}

/// What stopping an attempt found.
pub(crate) enum Stop {
    /// The attempt provably holds no memory any more.
    Exited,
    /// The attempt is still running; its thread goes to quarantine.
    Running(JoinHandle<()>),
}

/// Runs `spec` over `tree` under the coordinator settings a
/// [`ShardedPlatform`] carries, every shard reached through `transport`;
/// `platform` names the rolled-up report, and a shard whose attempt
/// `Died` is launched again up to `retries` times.
pub(crate) fn coordinate<T: ShardTransport>(
    settings: &ShardedPlatform,
    platform: &'static str,
    retries: usize,
    transport: &T,
    tree: &TaskTree,
    spec: &PolicySpec,
) -> Result<ShardedReport, PlatformError> {
    let started_at = Instant::now();
    let part = Arc::new(partition(tree, &PartitionPolicy::balanced(settings.shards)));
    validate_shard_plan(tree, &part.assignment, part.shard_count())
        .map_err(PlatformError::Partition)?;

    // Split the bound over the shards' minimum feasible memories —
    // the *policy's* threshold per shard, so a successful split
    // grants every shard a constructible scheduler.
    let mins: Vec<u64> = part
        .shards
        .iter()
        .map(|s| spec.min_feasible(&s.tree))
        .collect();
    let mut specs = spec.shard_specs(ShardBudget::Proportional, &mins)?;
    for (shard_spec, shard) in specs.iter_mut().zip(&part.shards) {
        shard_spec.caps = project_caps(spec, shard.to_global.iter().map(|&g| Some(g)));
    }
    let budgets: Vec<u64> = specs.iter().map(|s| s.memory).collect();
    let jobs = transport.prepare(&part, specs)?;

    // The coordinator level of the budget hierarchy: the shared
    // hard-error ledger — a release bug is a loud
    // PlatformError::Ledger, never silent drift.
    let mut ledger = BudgetLedger::new(spec.memory);
    for &b in &budgets {
        ledger.reserve(b)?;
    }
    let shard_reports = ShardPhase::launch(transport, &jobs, retries, &budgets, &mut ledger)
        .and_then(|phase| phase.run(settings.shard_timeout, settings.shard_deadline));
    // On a stall the quarantined workers' reservations legitimately
    // stay on the books (held, not leaked); every other path must
    // come back balanced.
    if !matches!(
        &shard_reports,
        Err(PlatformError::ShardStalled { quarantined, .. }) if *quarantined > 0
    ) {
        debug_assert_eq!(ledger.reserved(), 0, "a shard budget leaked");
    }
    let shard_reports = shard_reports?;

    // The merge: all budgets are back with the parent ledger, so the
    // residual tree runs locally under the full bound with the whole
    // machine.
    ledger.reserve(spec.memory)?;
    let residual_spec = PolicySpec {
        kind: spec.kind,
        ao: spec.ao,
        eo: spec.eo,
        memory: spec.memory,
        caps: project_caps(spec, part.residual.origin.iter().copied()),
    };
    let residual = run_part(
        &part.residual.tree,
        &residual_spec,
        settings.total_workers(),
        settings.workload,
    )?;
    ledger.release(spec.memory)?;

    Ok(ShardedReport::roll_up(
        platform,
        &part,
        budgets,
        shard_reports,
        residual,
        started_at.elapsed().as_secs_f64(),
    ))
}

/// The shard phase: every unsettled shard's live attempt, and the books
/// that settle each shard exactly once — its budget released, its
/// outcome recorded.
struct ShardPhase<'a, T: ShardTransport> {
    transport: &'a T,
    jobs: &'a T::Jobs,
    retries: usize,
    budgets: &'a [u64],
    ledger: &'a mut BudgetLedger,
    /// Kept for requeues, so the channel never disconnects mid-phase.
    tx: Sender<(usize, WorkerMsg)>,
    rx: Receiver<(usize, WorkerMsg)>,
    live: Vec<Option<T::Attempt>>,
    attempts: Vec<usize>,
    outcomes: Vec<Option<Result<RunReport, PlatformError>>>,
}

impl<'a, T: ShardTransport> ShardPhase<'a, T> {
    /// Launches the first attempt of every shard.
    fn launch(
        transport: &'a T,
        jobs: &'a T::Jobs,
        retries: usize,
        budgets: &'a [u64],
        ledger: &'a mut BudgetLedger,
    ) -> Result<Self, PlatformError> {
        let total = budgets.len();
        let (tx, rx) = channel::unbounded();
        let mut phase = ShardPhase {
            transport,
            jobs,
            retries,
            budgets,
            ledger,
            tx,
            rx,
            live: (0..total).map(|_| None).collect(),
            attempts: vec![0; total],
            outcomes: (0..total).map(|_| None).collect(),
        };
        for k in 0..total {
            phase.start(k)?;
        }
        Ok(phase)
    }

    /// Launches shard `k`'s next attempt; a failed launch settles it.
    fn start(&mut self, k: usize) -> Result<(), PlatformError> {
        match self
            .transport
            .launch(self.jobs, k, self.attempts[k], &self.tx)
        {
            Ok(attempt) => self.live[k] = Some(attempt),
            Err(e) => self.settle(k, Err(e))?,
        }
        Ok(())
    }

    fn settle(
        &mut self,
        k: usize,
        outcome: Result<RunReport, PlatformError>,
    ) -> Result<(), PlatformError> {
        self.ledger.release(self.budgets[k])?;
        self.outcomes[k] = Some(outcome);
        Ok(())
    }

    fn handle(&mut self, k: usize, msg: WorkerMsg) -> Result<(), PlatformError> {
        let (outcome, died) = match msg {
            // Any message proves liveness: arriving reset the watchdog.
            WorkerMsg::Ready | WorkerMsg::Heartbeat => return Ok(()),
            WorkerMsg::Done(report) => (Ok(report), false),
            WorkerMsg::Failed(e) => (Err(e), false),
            WorkerMsg::Died(reason) => (
                Err(PlatformError::Process(format!(
                    "worker died after {} attempts: {reason}",
                    self.attempts[k] + 1
                ))),
                true,
            ),
        };
        // A terminal message for a shard with no live attempt has nothing
        // left to settle.
        let Some(attempt) = self.live[k].take() else {
            return Ok(());
        };
        // Reported, so the transport confirms the exit.
        let _ = self.transport.stop(attempt, true);
        if died && self.attempts[k] < self.retries {
            // Requeue: the budget stays reserved — the shard still owns
            // its slice.
            self.attempts[k] += 1;
            return self.start(k);
        }
        self.settle(k, outcome)
    }

    /// The receive loop: every shard settles, or the idle watchdog or the
    /// overall deadline stalls the phase.
    fn run(
        mut self,
        idle: Option<Duration>,
        deadline: Option<Duration>,
    ) -> Result<Vec<RunReport>, PlatformError> {
        let deadline = deadline.map(|d| Instant::now() + d);
        while self.outcomes.iter().any(Option::is_none) {
            match next_message(&self.rx, idle, deadline) {
                Some((k, msg)) => self.handle(k, msg)?,
                None => return self.stall(),
            }
        }
        // Scanned in shard order, the first error fails the run: of
        // several failed shards the lowest index wins, whatever order
        // their messages arrived in.
        self.outcomes
            .into_iter()
            .flatten()
            .enumerate()
            .map(|(shard, outcome)| {
                outcome.map_err(|e| PlatformError::ShardFailed {
                    shard,
                    source: Box::new(e),
                })
            })
            .collect()
    }

    /// The stall rule: a budget is released only when the transport
    /// confirms its attempt exited; the rest are quarantined. Errors of
    /// already-settled shards lose to the stall — it is what stopped the
    /// phase.
    fn stall(mut self) -> Result<Vec<RunReport>, PlatformError> {
        let mut late = vec![false; self.budgets.len()];
        while let Ok((k, msg)) = self.rx.try_recv() {
            late[k] |= !matches!(msg, WorkerMsg::Ready | WorkerMsg::Heartbeat);
        }
        let mut stragglers = Vec::new();
        for (k, slot) in self.live.iter_mut().enumerate() {
            let Some(attempt) = slot.take() else { continue };
            match self.transport.stop(attempt, late[k]) {
                Stop::Exited => self.ledger.release(self.budgets[k])?,
                Stop::Running(handle) => stragglers.push((handle, self.budgets[k])),
            }
        }
        Err(PlatformError::ShardStalled {
            reported: self.outcomes.iter().flatten().count(),
            total: self.budgets.len(),
            quarantined: crate::quarantine::quarantine_threads(stragglers),
        })
    }
}

/// The next message, or `None` once the idle watchdog or the deadline
/// fires (or the channel disconnects, which cannot happen while the
/// coordinator holds a sender). Both receives take an already-delivered
/// message before they consult the clock, so a report that beat the
/// deadline counts even if the coordinator was descheduled past it.
fn next_message<M>(
    rx: &Receiver<M>,
    idle: Option<Duration>,
    deadline: Option<Instant>,
) -> Option<M> {
    let rest = deadline.map(|d| d.saturating_duration_since(Instant::now()));
    match (idle, rest) {
        (Some(idle), Some(rest)) => Some(idle.min(rest)),
        (idle, rest) => idle.or(rest),
    }
    .map_or_else(|| rx.recv().ok(), |wait| rx.recv_timeout(wait).ok())
}

/// `spec`'s allotment caps projected onto a part: mapped nodes keep
/// their cap, proxy leaves get 1.
fn project_caps(
    spec: &PolicySpec,
    origin: impl Iterator<Item = Option<memtree_tree::NodeId>>,
) -> Option<AllotmentCaps> {
    let caps = spec.caps.as_ref()?;
    Some(AllotmentCaps::from_caps(
        origin.map(|g| g.map_or(1, |g| caps.cap(g))).collect(),
    ))
}

/// The full outcome of a sharded run: the rolled-up [`RunReport`] plus
/// per-shard detail for differential tests and shard-scaling figures.
#[derive(Clone, Debug)]
pub struct ShardedReport {
    /// The platform-level report (what [`Platform::run`] returns).
    pub report: RunReport,
    /// Per-shard reports, in shard order.
    pub shard_reports: Vec<RunReport>,
    /// Per-shard ledger budgets granted by the budget split.
    pub budgets: Vec<u64>,
    /// The residual (merge-phase) report.
    pub residual: RunReport,
    /// Proxy leaves executed in the residual tree (one per shard) —
    /// bookkeeping tasks excluded from the rolled-up `tasks_run`.
    pub proxy_tasks: usize,
}

impl ShardedReport {
    fn roll_up(
        platform: &'static str,
        part: &Partition,
        budgets: Vec<u64>,
        shard_reports: Vec<RunReport>,
        residual: RunReport,
        wall_seconds: f64,
    ) -> ShardedReport {
        // Phase 1 runs the shards concurrently, so the platform-level
        // peak is bounded by the *sum* of the shard ledgers' peaks; the
        // residual phase runs alone. The rolled-up peak is the larger of
        // the two phases — conservative (a real co-schedule can only be
        // lower) and still provably ≤ M because the budgets sum to ≤ M.
        let shard_booked: u64 = shard_reports.iter().map(|r| r.peak_booked).sum();
        let shard_actual: u64 = shard_reports.iter().map(|r| r.peak_actual).sum();
        let proxy_tasks = part.shard_count();
        let report = RunReport {
            platform,
            policy: residual.policy.clone(),
            makespan: wall_seconds,
            wall_seconds,
            peak_booked: shard_booked.max(residual.peak_booked),
            peak_actual: shard_actual.max(residual.peak_actual),
            events: shard_reports.iter().map(|r| r.events).sum::<usize>() + residual.events,
            scheduling_seconds: shard_reports
                .iter()
                .map(|r| r.scheduling_seconds)
                .sum::<f64>()
                + residual.scheduling_seconds,
            // Proxy leaves are bookkeeping, not tasks: with them removed
            // the count covers every original task exactly once (plus any
            // fictitious tasks a transforming policy adds per part).
            tasks_run: shard_reports.iter().map(|r| r.tasks_run).sum::<usize>()
                + residual.tasks_run
                - proxy_tasks,
            // This run stalled nothing (it succeeded), but earlier
            // stalled runs may still have workers winding down; the
            // snapshot tells the caller how much machine memory is
            // spoken for outside this run's budget.
            quarantined: crate::quarantine::held(),
        };
        ShardedReport {
            report,
            shard_reports,
            budgets,
            residual,
            proxy_tasks,
        }
    }

    /// Sum of the shard ledgers' booked peaks — the quantity the
    /// acceptance invariant bounds by the global budget.
    pub fn shard_peak_sum(&self) -> u64 {
        self.shard_reports.iter().map(|r| r.peak_booked).sum()
    }
}

// Real-thread integration tests; the loom build exercises the same stall
// machinery exhaustively in tests/model/quarantine.rs instead.
#[cfg(all(test, not(memtree_loom)))]
mod tests {
    use super::*;
    use memtree_sched::HeuristicKind;
    use std::cell::RefCell;

    fn min_memory(tree: &TaskTree) -> u64 {
        memtree_sched::min_feasible_memory(tree)
    }

    #[test]
    fn sharded_runs_the_whole_tree() {
        let tree = memtree_gen::synthetic::paper_tree(200, 11);
        let m = min_memory(&tree) * 8;
        let spec = PolicySpec::new(HeuristicKind::MemBooking, m);
        for shards in [1, 2, 4, 8] {
            let detailed = ShardedPlatform::new(shards)
                .run_detailed(&tree, &spec)
                .unwrap();
            assert_eq!(detailed.report.tasks_run, tree.len(), "{shards} shards");
            assert!(detailed.report.peak_booked <= m, "{shards} shards");
            assert!(detailed.shard_peak_sum() <= m, "{shards} shards");
            for (r, &b) in detailed.shard_reports.iter().zip(&detailed.budgets) {
                assert!(r.peak_booked <= b, "shard ledger over its budget");
                assert!(r.peak_actual <= r.peak_booked);
            }
            assert!(detailed.residual.peak_booked <= m);
        }
    }

    /// CPU time (user + system) of the calling thread, in clock ticks.
    #[cfg(target_os = "linux")]
    fn thread_cpu_ticks() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("procfs available");
        // The comm field may contain spaces: fields 3.. start after the
        // closing paren. utime/stime are fields 14 and 15 (1-indexed).
        let rest = stat.rsplit(')').next().expect("stat has a comm field");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: u64 = fields[11].parse().expect("utime parses");
        let stime: u64 = fields[12].parse().expect("stime parses");
        utime + stime
    }

    /// Waits for every quarantined budget in the process to be reclaimed.
    fn wait_for_quarantine_to_drain() {
        let deadline = Instant::now() + Duration::from_secs(60);
        while crate::quarantine::held() > 0 {
            assert!(
                Instant::now() < deadline,
                "quarantined budgets never reclaimed"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// The stall path must park while waiting (never busy-spin) and must
    /// quarantine the still-running workers' budgets rather than release
    /// them: pinned by the coordinator thread's CPU time staying near
    /// zero and by the `quarantined` accounting on the error.
    #[cfg(target_os = "linux")]
    #[test]
    fn stall_parks_and_quarantines_instead_of_releasing() {
        let tree = memtree_gen::synthetic::paper_tree(60, 13);
        let m = min_memory(&tree) * 8;
        let spec = PolicySpec::new(HeuristicKind::MemBooking, m);
        // Every task sleeps the 30 ms cap (its time is ≥ 10 units), and
        // the split's shard subtree holds 36 tasks, so its worker sleeps
        // ≈ 1.08 s, over 6× the 150 ms watchdog: the run stalls with the
        // shard still mid-subtree, and the drain below waits that out.
        let platform = ShardedPlatform::new(2)
            .with_workload(Workload::Sleep {
                nanos_per_time_unit: 1_000_000_000.0,
                max_nanos: 30_000_000,
            })
            .with_timeout(Duration::from_millis(150));
        let cpu_before = thread_cpu_ticks();
        let wall = Instant::now();
        let err = platform.run(&tree, &spec).unwrap_err();
        let wall = wall.elapsed();
        let cpu_ticks = thread_cpu_ticks() - cpu_before;
        let quarantined = match err {
            PlatformError::ShardStalled { quarantined, .. } => quarantined,
            other => panic!("expected a stall, got {other}"),
        };
        // Both workers were still running: their budgets must be held in
        // quarantine, not released on a grace timer.
        assert!(quarantined > 0, "stalled workers' budgets were released");
        assert!(
            wall >= Duration::from_millis(150),
            "the watchdog cannot have tripped yet: {wall:?}"
        );
        // The watchdog wait parks; a busy-spin would burn the wall time
        // as CPU (≥ 15 ticks at the usual 100 Hz). Parked waits leave
        // only setup/partition work.
        assert!(
            cpu_ticks < 10,
            "stall path burned {cpu_ticks} CPU ticks over {wall:?} wall"
        );
        // The gauge drains once the reaper confirms the workers' exits.
        wait_for_quarantine_to_drain();
    }

    #[test]
    fn ledger_errors_surface_as_platform_errors() {
        // The promoted hard-error ledger (memtree_sched::BudgetLedger)
        // maps into the platform error space; accounting drift is loud
        // and distinguishable from a feasibility refusal.
        let mut ledger = BudgetLedger::new(100);
        ledger.reserve(100).unwrap();
        let err = PlatformError::from(ledger.reserve(1).unwrap_err());
        assert!(matches!(err, PlatformError::Ledger(_)), "got {err}");
        assert!(!err.is_infeasible());
        ledger.release(100).unwrap();
        let err = PlatformError::from(ledger.release(1).unwrap_err());
        assert!(err.to_string().contains("over-release"), "got {err}");
    }

    #[test]
    fn infeasible_split_is_distinguishable() {
        let tree = memtree_gen::synthetic::paper_tree(120, 5);
        // Tight bound: the per-shard minima cannot all fit.
        let spec = PolicySpec::new(HeuristicKind::MemBooking, min_memory(&tree));
        let err = ShardedPlatform::new(4).run(&tree, &spec).unwrap_err();
        assert!(err.is_infeasible(), "got {err}");
    }

    #[test]
    fn sharded_platform_satisfies_the_platform_trait() {
        let tree = memtree_gen::synthetic::paper_tree(150, 2);
        let m = min_memory(&tree) * 8;
        let spec = PolicySpec::new(HeuristicKind::MemBooking, m);
        let platform: &dyn Platform = &ShardedPlatform::new(2);
        let report = platform.run(&tree, &spec).unwrap();
        assert_eq!(report.platform, "sharded");
        assert_eq!(report.tasks_run, tree.len());
    }

    // Scripted terminal messages, in the worker's wire lines (a death
    // has none: the supervisor synthesises it).
    const DONE: &str = "done 0 0 0 0 0 0 1 0 scripted";
    const FAIL: &str = "failed backend a worker thread panicked";
    const DIE: &str = "died";

    fn msg(line: &str) -> WorkerMsg {
        crate::process::wire::parse_report_line(line)
            .unwrap_or_else(|_| WorkerMsg::Died(line.into()))
    }

    /// `(shard, attempt)`.
    type Launch = (usize, usize);

    /// A transport that spawns nothing and sleeps nowhere: launching
    /// attempt `a` of shard `k` sends the messages scripted for `(k, a)`
    /// at once, so the coordinator sees exactly the script's order.
    #[derive(Default)]
    struct Scripted {
        /// `((shard, attempt), [(shard, line)])`: what each launch sends.
        script: Vec<(Launch, Vec<(usize, &'static str)>)>,
        /// Launches that fail.
        refuse: Vec<Launch>,
        /// Setup fails before any launch.
        broken: bool,
        /// A shard whose attempt runs until stopped, and the thread
        /// standing in for it.
        running: RefCell<Option<(usize, JoinHandle<()>)>>,
        launches: RefCell<Vec<Launch>>,
    }

    impl ShardTransport for Scripted {
        type Jobs = ();
        /// The thread standing in for a still-running attempt, if any.
        type Attempt = Option<JoinHandle<()>>;

        fn prepare(&self, _: &Arc<Partition>, _: Vec<PolicySpec>) -> Result<(), PlatformError> {
            if self.broken {
                return Err(PlatformError::Process("no worker binary".into()));
            }
            Ok(())
        }

        fn launch(
            &self,
            _: &(),
            shard: usize,
            attempt: usize,
            tx: &Sender<(usize, WorkerMsg)>,
        ) -> Result<Self::Attempt, PlatformError> {
            self.launches.borrow_mut().push((shard, attempt));
            if self.refuse.contains(&(shard, attempt)) {
                return Err(PlatformError::Process("launch refused".into()));
            }
            for (_, says) in self.script.iter().filter(|(at, _)| *at == (shard, attempt)) {
                for &(k, line) in says {
                    tx.send((k, msg(line))).unwrap();
                }
            }
            let mut running = self.running.borrow_mut();
            Ok(running
                .take_if(|(k, _)| *k == shard)
                .map(|(_, handle)| handle))
        }

        fn stop(&self, attempt: Self::Attempt, reported: bool) -> Stop {
            match attempt {
                Some(handle) if !reported => Stop::Running(handle),
                _ => Stop::Exited,
            }
        }
    }

    const BUDGETS: [u64; 3] = [10, 20, 30];

    fn reserved_ledger() -> BudgetLedger {
        let mut ledger = BudgetLedger::new(60);
        for b in BUDGETS {
            ledger.reserve(b).unwrap();
        }
        ledger
    }

    /// Runs a three-shard phase over `t`; returns the outcome and what is
    /// still reserved afterwards.
    fn run_phase(
        t: &Scripted,
        retries: usize,
        idle: Option<Duration>,
    ) -> (Result<Vec<RunReport>, PlatformError>, u64) {
        let mut ledger = reserved_ledger();
        let outcome = ShardPhase::launch(t, &(), retries, &BUDGETS, &mut ledger)
            .and_then(|phase| phase.run(idle, None));
        (outcome, ledger.reserved())
    }

    fn failed_shard(outcome: Result<Vec<RunReport>, PlatformError>) -> (usize, PlatformError) {
        match outcome {
            Err(PlatformError::ShardFailed { shard, source }) => (shard, *source),
            other => panic!("expected ShardFailed, got {other:?}"),
        }
    }

    #[test]
    fn failures_in_reverse_order_report_the_lowest_failed_shard() {
        let t = Scripted {
            script: vec![((2, 0), vec![(2, FAIL), (1, FAIL), (0, DONE)])],
            ..Scripted::default()
        };
        let (outcome, reserved) = run_phase(&t, 0, None);
        let (shard, source) = failed_shard(outcome);
        assert_eq!(shard, 1);
        assert!(
            matches!(source, PlatformError::Run(DriveError::Backend(_))),
            "{source}"
        );
        assert_eq!(reserved, 0);
    }

    #[test]
    fn died_attempt_is_requeued_with_its_budget_held() {
        let t = Scripted {
            script: vec![
                ((0, 0), vec![(0, DIE)]),
                ((0, 1), vec![(0, DONE)]),
                ((1, 0), vec![(1, DONE)]),
                ((2, 0), vec![(2, DONE)]),
            ],
            ..Scripted::default()
        };
        let mut ledger = reserved_ledger();
        let mut phase = ShardPhase::launch(&t, &(), 1, &BUDGETS, &mut ledger).unwrap();
        let (k, died) = phase.rx.try_recv().unwrap();
        assert!(matches!(died, WorkerMsg::Died(_)));
        phase.handle(k, died).unwrap();
        assert_eq!(phase.ledger.reserved(), 60, "the respawn kept the budget");
        assert_eq!(t.launches.borrow().last(), Some(&(0, 1)));
        assert_eq!(phase.run(None, None).unwrap().len(), 3);
        assert_eq!(ledger.reserved(), 0);
    }

    #[test]
    fn exhausted_retries_fail_the_shard_as_a_process_error() {
        let t = Scripted {
            script: vec![
                ((0, 0), vec![(0, DIE)]),
                ((0, 1), vec![(0, DIE)]),
                ((1, 0), vec![(1, DONE)]),
                ((2, 0), vec![(2, DONE)]),
            ],
            ..Scripted::default()
        };
        let (outcome, reserved) = run_phase(&t, 1, None);
        let (shard, source) = failed_shard(outcome);
        assert_eq!(shard, 0);
        assert!(matches!(source, PlatformError::Process(_)), "{source}");
        assert_eq!(reserved, 0);
        assert!(!t.launches.borrow().contains(&(0, 2)), "one retry only");
    }

    #[test]
    fn failed_launch_is_reported_and_every_budget_comes_back() {
        let t = Scripted {
            script: vec![((0, 0), vec![(0, DONE)]), ((2, 0), vec![(2, DONE)])],
            refuse: vec![(1, 0)],
            ..Scripted::default()
        };
        let (outcome, reserved) = run_phase(&t, 1, None);
        let (shard, source) = failed_shard(outcome);
        assert_eq!(shard, 1);
        assert!(matches!(source, PlatformError::Process(_)), "{source}");
        assert_eq!(reserved, 0);
    }

    /// Setup runs before the first reservation, so its error returns with
    /// the books balanced (debug builds audit them on the way out).
    #[test]
    fn setup_failure_returns_before_any_launch() {
        let tree = memtree_gen::synthetic::paper_tree(60, 13);
        let spec = PolicySpec::new(HeuristicKind::MemBooking, min_memory(&tree) * 8);
        let t = Scripted {
            broken: true,
            ..Scripted::default()
        };
        let err =
            coordinate(&ShardedPlatform::new(2), "scripted", 0, &t, &tree, &spec).unwrap_err();
        assert!(matches!(err, PlatformError::Process(_)), "got {err}");
        assert!(t.launches.borrow().is_empty());
    }

    #[test]
    fn stall_releases_exited_attempts_and_quarantines_running_ones() {
        let (gate, parked) = std::sync::mpsc::channel::<()>();
        let runaway = std::thread::spawn(move || {
            let _ = parked.recv();
        });
        // Shard 0 reports; shards 1 and 2 fall silent, and when stopped
        // shard 1 has exited while shard 2 still runs.
        let t = Scripted {
            script: vec![((0, 0), vec![(0, DONE)])],
            running: RefCell::new(Some((2, runaway))),
            ..Scripted::default()
        };
        let (outcome, reserved) = run_phase(&t, 0, Some(Duration::from_millis(1)));
        assert!(
            matches!(
                outcome,
                Err(PlatformError::ShardStalled {
                    reported: 1,
                    total: 3,
                    quarantined: 30
                })
            ),
            "got {outcome:?}"
        );
        assert_eq!(reserved, 30, "held, not leaked");
        assert!(crate::quarantine::held() >= 30);
        drop(gate);
        wait_for_quarantine_to_drain();
    }
}
