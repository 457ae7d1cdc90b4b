//! **`Platform`** — one way to run a [`PolicySpec`] anywhere
//! (DESIGN.md §6.3).
//!
//! The paper evaluates the same event-driven booking policies in two
//! execution regimes: discrete-event simulation (fast, deterministic,
//! virtual time) and a real threaded runtime (OS-ordered completions,
//! wall-clock time). A [`Platform`] abstracts the regime: hand it a spec
//! and a tree, get back a common [`RunReport`]. Both implementations share
//! the `memtree_sim::driver` event loop, so the scheduler contract —
//! precedence, capacity, `actual ≤ booked ≤ M` — is enforced identically
//! on both. **Every** spec runs on every platform, moldable ones
//! included: on the simulator a moldable task's duration shrinks by the
//! configured [`SpeedupModel`], on the threaded runtime it gang-schedules
//! its allotment of real workers.
//!
//! ```
//! use memtree_runtime::platform::{Platform, SimPlatform, ThreadedPlatform};
//! use memtree_sched::{HeuristicKind, PolicySpec};
//!
//! let tree = memtree_gen::synthetic::paper_tree(100, 1);
//! let ao = memtree_order::mem_postorder(&tree);
//! let spec = PolicySpec::new(HeuristicKind::MemBooking, ao.sequential_peak(&tree));
//!
//! let sim = SimPlatform::new(4).run(&tree, &spec).unwrap();
//! let real = ThreadedPlatform::new(4).run(&tree, &spec).unwrap();
//! assert_eq!(sim.tasks_run, real.tasks_run);
//! ```

use crate::executor::execute;
use crate::workload::Workload;
use memtree_sched::{
    LedgerError, PolicyInstance, PolicySpec, ProportionalRescheduler, ReschedulePolicy, SchedError,
};
use memtree_sim::{
    simulate_summary, simulate_with, DriveConfig, DriveError, DriveStats, Rescheduler, Scheduler,
    SimConfig, SpeedupModel,
};
use memtree_tree::TaskTree;
use std::fmt;

/// The common outcome of running a policy on any platform.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Platform name: `"sim"`, `"threaded"`, `"async"`, `"sharded"`,
    /// `"process"` or `"service"`, and `"process-worker"` for a shard
    /// report that crossed the worker-process wire.
    pub platform: &'static str,
    /// Scheduler name as reported by the policy.
    pub policy: String,
    /// Completion time in the platform's own clock: virtual time on the
    /// simulator, wall-clock seconds on the threaded runtime.
    pub makespan: f64,
    /// Wall-clock duration of the whole run call, set-up (relay, policy
    /// minting, partitioning) included. On the real-time platforms
    /// `makespan` is the executor's share of it.
    pub wall_seconds: f64,
    /// Peak memory booked by the policy.
    pub peak_booked: u64,
    /// Peak model-level resident memory.
    pub peak_actual: u64,
    /// Scheduler events processed.
    pub events: usize,
    /// Wall-clock seconds spent inside scheduler callbacks.
    pub scheduling_seconds: f64,
    /// Tasks executed — the node count of the policy's
    /// [`PolicyInstance::exec_tree`] on success (larger than the original
    /// tree for RedTree, whose transform adds fictitious leaves).
    pub tasks_run: usize,
    /// Memory (model units) still **quarantined** process-wide when this
    /// report was rolled up: budgets of stalled shard workers from
    /// *earlier* runs whose exit has not yet been confirmed (see
    /// [`crate::quarantine`]). Always 0 on the single-ledger platforms
    /// (sim, threaded, async), which never quarantine.
    pub quarantined: u64,
}

/// Failures of a platform run.
#[derive(Debug)]
pub enum PlatformError {
    /// The policy could not be constructed (infeasible memory, order
    /// mismatch).
    Sched(SchedError),
    /// The driven run failed: a broken policy, a booking violation, a
    /// stall, a bad configuration, or a backend that lost a worker — the
    /// same [`DriveError`] on every platform.
    Run(DriveError),
    /// The forest partitioner produced an invalid shard plan (caught by
    /// shard-aware validation before any worker launches).
    Partition(String),
    /// Coordinator-level budget accounting stopped balancing (double
    /// release, overcommitted reservation) — always a bug in the
    /// coordinating platform, surfaced loudly by the shared
    /// [`memtree_sched::BudgetLedger`] instead of drifting silently.
    Ledger(LedgerError),
    /// A worker *process* failed at the process level — spawn failure,
    /// death without a verdict (nonzero exit, signal, closed pipe), or a
    /// wire-protocol violation. Process death is retryable (the
    /// [`crate::ProcessPlatform`] requeues the shard onto a fresh worker
    /// up to its retry budget); spawn failures and protocol violations
    /// are not.
    Process(String),
    /// A shard worker failed; carries the shard index and the underlying
    /// failure. The coordinator has already drained the other shards and
    /// released every budget reservation.
    ShardFailed {
        /// Index of the failed shard.
        shard: usize,
        /// What went wrong inside the shard.
        source: Box<PlatformError>,
    },
    /// Shard workers went silent past the platform's watchdog timeout —
    /// the sharded analogue of the driver's stall detection. Workers that
    /// were still running when the watchdog fired are quarantined: their
    /// budgets stay held until their exit is confirmed (never released
    /// while the worker can still report; see [`crate::quarantine`]).
    ShardStalled {
        /// Shards that reported before the watchdog fired.
        reported: usize,
        /// Shards launched.
        total: usize,
        /// Budget (model units) quarantined by this stall — held by
        /// still-running workers, reclaimed only on confirmed exit.
        quarantined: u64,
    },
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::Sched(e) => write!(f, "policy construction failed: {e}"),
            PlatformError::Run(e) => write!(f, "run failed: {e}"),
            PlatformError::Partition(msg) => write!(f, "invalid shard plan: {msg}"),
            PlatformError::Ledger(e) => write!(f, "budget accounting failed: {e}"),
            PlatformError::Process(msg) => write!(f, "worker process failed: {msg}"),
            PlatformError::ShardFailed { shard, source } => {
                write!(f, "shard {shard} failed: {source}")
            }
            PlatformError::ShardStalled {
                reported,
                total,
                quarantined,
            } => {
                write!(
                    f,
                    "shard workers stalled: {reported}/{total} reported, \
                     {quarantined} memory units quarantined"
                )
            }
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<SchedError> for PlatformError {
    fn from(e: SchedError) -> Self {
        PlatformError::Sched(e)
    }
}

impl From<DriveError> for PlatformError {
    fn from(e: DriveError) -> Self {
        PlatformError::Run(e)
    }
}

impl From<LedgerError> for PlatformError {
    fn from(e: LedgerError) -> Self {
        PlatformError::Ledger(e)
    }
}

impl PlatformError {
    /// True when the failure is the policy's feasibility refusal — the
    /// "unable to schedule within the bound" outcome experiment harnesses
    /// count rather than propagate.
    pub fn is_infeasible(&self) -> bool {
        match self {
            PlatformError::Sched(SchedError::InfeasibleMemory { .. }) => true,
            // A shard refusing its split budget is the same feasibility
            // refusal, observed one level down.
            PlatformError::ShardFailed { source, .. } => source.is_infeasible(),
            _ => false,
        }
    }
}

/// An execution regime for scheduling policies.
pub trait Platform {
    /// Platform name for reports.
    fn name(&self) -> &'static str;

    /// Runs an already-instantiated policy over `tree`.
    fn run_instance(
        &self,
        tree: &TaskTree,
        instance: &PolicyInstance,
    ) -> Result<RunReport, PlatformError>;

    /// Instantiates `spec` against `tree` (applying any tree transform)
    /// and runs it.
    fn run(&self, tree: &TaskTree, spec: &PolicySpec) -> Result<RunReport, PlatformError> {
        let instance = spec.instantiate(tree)?;
        self.run_instance(tree, &instance)
    }
}

/// The one `run_instance` body of the single-ledger platforms (sim,
/// threaded, async). It relays `instance` into activation-order
/// numbering (DESIGN.md §6.11), mints the scheduler and — when
/// `reschedule` is set *and* the instance is moldable — a
/// [`ProportionalRescheduler`] over the executed tree, and builds the
/// report from what `run`, the platform's own part, returns: its clock
/// beside the driver's [`DriveStats`]. Nothing in the report names a
/// node, and a rescheduler sees caller ids through the driver, so the
/// ids can be AO ranks.
pub(crate) fn run_driven(
    platform: &'static str,
    tree: &TaskTree,
    instance: &PolicyInstance,
    reschedule: Option<ReschedulePolicy>,
    run: impl FnOnce(
        &TaskTree,
        u64,
        Box<dyn Scheduler + Send + '_>,
        Option<&mut (dyn Rescheduler + Send)>,
    ) -> Result<(f64, DriveStats), DriveError>,
) -> Result<RunReport, PlatformError> {
    let started_at = std::time::Instant::now();
    let relaid = instance.relaid(tree)?;
    let exec = relaid.exec_tree(tree);
    let sched = relaid.scheduler(tree)?;
    let policy = sched.name().to_string();
    let mut resched = reschedule
        .filter(|_| relaid.is_moldable())
        .map(|_| ProportionalRescheduler::new(exec));
    let resched = resched.as_mut().map(|r| r as &mut (dyn Rescheduler + Send));
    let (makespan, stats) = run(exec, relaid.memory(), sched, resched)?;
    Ok(RunReport {
        platform,
        policy,
        makespan,
        wall_seconds: started_at.elapsed().as_secs_f64(),
        peak_booked: stats.peak_booked,
        peak_actual: stats.peak_actual,
        events: stats.events,
        scheduling_seconds: stats.scheduling_seconds,
        tasks_run: stats.completed,
        quarantined: 0,
    })
}

/// The discrete-event simulator as a platform.
///
/// Every instance — sequential, moldable or malleable — is run
/// [relaid](PolicyInstance::relaid): in activation-order numbering, the
/// layout that keeps a 10⁶-node run in cache (DESIGN.md §6.11), and
/// scheduling exactly as it would in the caller's ids. Handing
/// `run_instance` an instance that is already relaid skips the
/// renumbering, which is how sweeps pay for it once per tree.
#[derive(Clone, Copy, Debug)]
pub struct SimPlatform {
    /// Simulated processor count `p`.
    pub processors: usize,
    /// Speedup model used when the spec carries moldable caps.
    pub speedup: SpeedupModel,
    /// When set, moldable runs become **malleable**: a
    /// [`ProportionalRescheduler`] built from the executed tree resizes
    /// running gangs from live backlog (DESIGN.md §6.10). Ignored by
    /// sequential policies.
    pub reschedule: Option<ReschedulePolicy>,
}

impl SimPlatform {
    /// `p` simulated processors, linear moldable speedup.
    pub fn new(processors: usize) -> Self {
        SimPlatform {
            processors,
            speedup: SpeedupModel::Linear,
            reschedule: None,
        }
    }

    /// Overrides the moldable speedup model.
    pub fn with_speedup(mut self, speedup: SpeedupModel) -> Self {
        self.speedup = speedup;
        self
    }

    /// Enables malleability for moldable runs under `policy`.
    pub fn with_rescheduler(mut self, policy: ReschedulePolicy) -> Self {
        self.reschedule = Some(policy);
        self
    }
}

impl Platform for SimPlatform {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run_instance(
        &self,
        tree: &TaskTree,
        instance: &PolicyInstance,
    ) -> Result<RunReport, PlatformError> {
        run_driven(
            self.name(),
            tree,
            instance,
            self.reschedule,
            |exec, memory, sched, resched| {
                let cfg = SimConfig::new(self.processors, memory).with_speedup(self.speedup);
                let resched = resched.map(|r| r as &mut dyn Rescheduler);
                // The report reads only aggregates, so release builds keep
                // no per-task record or allotment segment; debug builds
                // record the trace and re-validate it.
                if cfg!(debug_assertions) {
                    let trace = simulate_with(exec, cfg, sched, resched)?;
                    debug_assert_eq!(memtree_sim::validate::validate_trace(exec, &trace), Ok(()));
                    Ok((trace.makespan, trace.stats()))
                } else {
                    simulate_summary(exec, cfg, sched, resched)
                }
            },
        )
    }
}

/// The real threaded runtime as a platform.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedPlatform {
    /// Worker-thread count.
    pub workers: usize,
    /// Per-task payload executed by the workers.
    pub workload: Workload,
    /// When set, moldable runs become **malleable**: a
    /// [`ProportionalRescheduler`] built from the executed tree resizes
    /// running gangs from live backlog (DESIGN.md §6.10). Ignored by
    /// sequential policies.
    pub reschedule: Option<ReschedulePolicy>,
}

impl ThreadedPlatform {
    /// `workers` threads running the no-op payload (pure scheduling
    /// overhead).
    pub fn new(workers: usize) -> Self {
        ThreadedPlatform {
            workers,
            workload: Workload::Noop,
            reschedule: None,
        }
    }

    /// Overrides the per-task payload.
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Enables malleability for moldable runs under `policy`.
    pub fn with_rescheduler(mut self, policy: ReschedulePolicy) -> Self {
        self.reschedule = Some(policy);
        self
    }
}

impl Platform for ThreadedPlatform {
    fn name(&self) -> &'static str {
        "threaded"
    }

    /// One pool for every spec: a moldable task claims its allotment of
    /// workers and runs its payload shard-parallel, a sequential one is a
    /// gang of one. Payloads and `FailAt` name nodes by label, so the
    /// relay moves only the per-node state.
    fn run_instance(
        &self,
        tree: &TaskTree,
        instance: &PolicyInstance,
    ) -> Result<RunReport, PlatformError> {
        run_driven(
            self.name(),
            tree,
            instance,
            self.reschedule,
            |exec, memory, sched, resched| {
                let cfg = DriveConfig::new(self.workers, memory);
                execute(exec, cfg, sched, self.workload, resched)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    // Per-platform invariant coverage (every kind completes, the booking
    // envelope, infeasibility refusal, moldable support) lives in the
    // `platform_conformance!` suite — tests/conformance.rs stamps it out
    // for every platform. Only genuine cross-platform *comparisons*
    // remain here.
    use super::*;
    use memtree_sched::HeuristicKind;

    fn min_memory(tree: &TaskTree) -> u64 {
        memtree_order::mem_postorder(tree).sequential_peak(tree)
    }

    #[test]
    fn moldable_runs_on_both_platforms() {
        // The capability this module used to lack: a moldable spec is a
        // first-class citizen of the threaded runtime too.
        let tree = memtree_gen::synthetic::paper_tree(60, 6);
        let m = min_memory(&tree);
        let caps = memtree_sched::AllotmentCaps::uniform(&tree, 4);
        let spec = PolicySpec::new(HeuristicKind::MemBooking, m).with_caps(caps);
        let sim = SimPlatform::new(4).run(&tree, &spec).unwrap();
        assert_eq!(sim.tasks_run, tree.len());
        let thr = ThreadedPlatform::new(4).run(&tree, &spec).unwrap();
        assert_eq!(thr.tasks_run, tree.len());
        assert_eq!(sim.policy, thr.policy);
        assert!(thr.peak_booked <= m);
        assert!(thr.peak_actual <= thr.peak_booked);
    }

    #[test]
    fn redtree_spec_runs_end_to_end_on_both_platforms() {
        // The acceptance scenario: MemBookingRedTree is a first-class
        // PolicySpec kind on sim AND threads.
        let tree = memtree_gen::synthetic::paper_tree(100, 23);
        let m = min_memory(&tree) * 40;
        let spec = PolicySpec::new(HeuristicKind::MemBookingRedTree, m);
        let sim = SimPlatform::new(4).run(&tree, &spec).unwrap();
        let thr = ThreadedPlatform::new(4).run(&tree, &spec).unwrap();
        assert_eq!(sim.tasks_run, thr.tasks_run);
        assert!(
            sim.tasks_run > tree.len(),
            "transform adds fictitious tasks"
        );
    }
}
