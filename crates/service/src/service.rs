//! **`Service`** — the long-lived multi-tenant session server
//! (DESIGN.md §6.9).
//!
//! A [`Service`] owns one machine's memory bound `M` and serves many
//! tenants' trees against it concurrently. Submissions go through
//! [`Service::submit`]: the caller's spec and tree are priced
//! (`PolicySpec::min_feasible` — the RedTree-aware floor), the
//! coordinator's [`AdmissionController`] admits, queues or refuses, and
//! the caller gets a [`SessionTicket`] it can block on for the final
//! [`SessionOutcome`]. Admitted sessions run on their own OS thread
//! through an unmodified [`Platform`](memtree_runtime::Platform) backend
//! — the same sim/threaded/async regimes every other entry point uses —
//! with the session's spec re-bounded to its granted budget, so the
//! session's own driver ledger enforces `actual ≤ booked ≤ grant` while
//! the coordinator's [`BudgetLedger`](memtree_sched::BudgetLedger)
//! enforces `Σ grants ≤ M` across tenants.
//!
//! Completions stream back to the coordinator over a crossbeam channel
//! (exactly the merge-protocol surface of the sharded platform); each
//! one releases its grant and immediately rebalances the freed budget to
//! the queue. The coordinator is a plain event loop over messages —
//! submit, done, stats, shutdown — so admission latency is one channel
//! round trip, measured per session and reported in the outcome.

use crate::admission::{
    AdmissionController, AdmissionStats, Decision, Grant, GrantPolicy, Refusal, SessionId,
};
use crossbeam::channel::{self, Receiver, Sender};
use memtree_runtime::{
    AsyncPlatform, DriveError, Platform, PlatformError, RunReport, SimPlatform, ThreadedPlatform,
    Workload,
};
use memtree_sched::{PolicySpec, ReschedulePolicy};
use memtree_tree::TaskTree;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One tenant's submission: a policy spec, the tree it should schedule,
/// and a queueing priority (higher admits sooner from the wait queue).
#[derive(Clone, Debug)]
pub struct SessionRequest {
    /// The policy to run — any kind, moldable caps and RedTree included;
    /// `spec.memory` is the bound the tenant *requests* (its grant never
    /// exceeds it).
    pub spec: PolicySpec,
    /// The tenant's task tree, shared so the service can run it without
    /// copying.
    pub tree: Arc<TaskTree>,
    /// Queueing priority; higher leaves the wait queue first (FIFO
    /// within a level).
    pub priority: u8,
}

impl SessionRequest {
    /// A priority-0 request.
    pub fn new(spec: PolicySpec, tree: Arc<TaskTree>) -> Self {
        SessionRequest {
            spec,
            tree,
            priority: 0,
        }
    }

    /// Overrides the queueing priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

/// Which single-process execution regime admitted sessions run on. The
/// spec runs unmodified on any of them — this is the same [`Platform`]
/// surface as everywhere else, selected per service.
#[derive(Clone, Copy, Debug)]
pub enum SessionBackend {
    /// The discrete-event simulator (virtual time) with `processors`
    /// simulated processors per session.
    Sim {
        /// Simulated processor count per session.
        processors: usize,
    },
    /// Real worker threads per session.
    Threaded {
        /// Worker-thread count per session.
        workers: usize,
        /// Per-task payload.
        workload: Workload,
    },
    /// The futures-backed executor — IO-bound sessions overlap on few OS
    /// threads.
    Async {
        /// Logical processor count per session.
        workers: usize,
        /// Executor OS threads per session.
        threads: usize,
        /// Per-task payload.
        workload: Workload,
    },
}

impl SessionBackend {
    /// The simulator backend with `processors` per session.
    pub fn sim(processors: usize) -> Self {
        SessionBackend::Sim { processors }
    }

    /// The threaded backend with `workers` per session and the no-op
    /// payload.
    pub fn threaded(workers: usize) -> Self {
        SessionBackend::Threaded {
            workers,
            workload: Workload::Noop,
        }
    }

    /// The async backend with `workers` logical processors on a
    /// two-thread executor and the no-op payload.
    pub fn asynchronous(workers: usize) -> Self {
        SessionBackend::Async {
            workers,
            threads: 2,
            workload: Workload::Noop,
        }
    }

    /// Stable label for reports and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            SessionBackend::Sim { .. } => "sim",
            SessionBackend::Threaded { .. } => "threaded",
            SessionBackend::Async { .. } => "async",
        }
    }

    /// The platform this regime runs a session on. A `reschedule` policy
    /// makes moldable sessions malleable — the backend's feedback
    /// rescheduler resizes gangs mid-run; non-moldable specs ignore it.
    pub(crate) fn platform(&self, reschedule: Option<ReschedulePolicy>) -> Box<dyn Platform> {
        match *self {
            SessionBackend::Sim { processors } => Box::new(SimPlatform {
                reschedule,
                ..SimPlatform::new(processors)
            }),
            SessionBackend::Threaded { workers, workload } => Box::new(ThreadedPlatform {
                workers,
                workload,
                reschedule,
            }),
            SessionBackend::Async {
                workers,
                threads,
                workload,
            } => Box::new(AsyncPlatform {
                workers,
                threads,
                workload,
                reschedule,
            }),
        }
    }
}

/// Service construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// The machine's global memory bound `M` — what every tenant's grant
    /// is carved out of.
    pub memory: u64,
    /// The execution regime admitted sessions run on.
    pub backend: SessionBackend,
    /// How much of the free budget an admitted session is granted.
    pub grant: GrantPolicy,
    /// When set, moldable sessions run malleable: the backend's feedback
    /// rescheduler resizes their gangs mid-run (DESIGN.md §6.10).
    pub reschedule: Option<ReschedulePolicy>,
}

impl ServiceConfig {
    /// A service over `memory` units: simulator sessions on 4 virtual
    /// processors, [`GrantPolicy::AllAvailable`] grants, no rescheduler.
    pub fn new(memory: u64) -> Self {
        ServiceConfig {
            memory,
            backend: SessionBackend::sim(4),
            grant: GrantPolicy::AllAvailable,
            reschedule: None,
        }
    }

    /// Overrides the execution backend.
    pub fn with_backend(mut self, backend: SessionBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Overrides the grant policy.
    pub fn with_grant(mut self, grant: GrantPolicy) -> Self {
        self.grant = grant;
        self
    }

    /// Makes moldable sessions malleable under `policy`.
    pub fn with_rescheduler(mut self, policy: ReschedulePolicy) -> Self {
        self.reschedule = Some(policy);
        self
    }
}

/// How a submission was received.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admitted immediately with this budget.
    Immediate {
        /// The reserved budget.
        budget: u64,
    },
    /// Feasible but parked in the wait queue behind `position` sessions.
    Queued {
        /// Sessions ahead in the queue at submission time.
        position: usize,
    },
}

/// Why a submission returned no ticket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// Refused by admission control: infeasible even alone (see
    /// [`Refusal`]). The service-level spelling of
    /// `SchedError::InfeasibleMemory`.
    Infeasible(Refusal),
    /// The service is draining (shutdown requested) and accepts no new
    /// sessions.
    Draining,
    /// The coordinator is gone (a service bug — the coordinator never
    /// exits while a handle is live unless it panicked).
    ServiceDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Infeasible(r) => write!(f, "admission refused: {r}"),
            SubmitError::Draining => write!(f, "service is draining"),
            SubmitError::ServiceDown => write!(f, "service coordinator is gone"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A refusal is the policy's feasibility refusal, as on every platform; a
/// service that cannot take or finish the session is a backend failure
/// carrying the cause.
impl From<SubmitError> for PlatformError {
    fn from(e: SubmitError) -> Self {
        match e {
            SubmitError::Infeasible(refusal) => {
                PlatformError::Sched(memtree_sched::SchedError::InfeasibleMemory {
                    required: refusal.required(),
                    available: refusal.limit(),
                })
            }
            SubmitError::Draining | SubmitError::ServiceDown => {
                DriveError::Backend(e.to_string()).into()
            }
        }
    }
}

/// The final outcome of one session.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The session's id.
    pub id: SessionId,
    /// The budget it ran under.
    pub budget: u64,
    /// Submit-to-admission wait (≈ 0 for immediate admissions; the
    /// queueing delay otherwise) — the quantity the service bench
    /// reports as admission latency.
    pub admission_wait: Duration,
    /// The run's report, or how it failed.
    pub result: Result<RunReport, PlatformError>,
}

/// A submitted session's handle: how it was admitted plus a blocking
/// wait for its outcome.
pub struct SessionTicket {
    /// The session's service-wide id.
    pub id: SessionId,
    /// Immediate or queued.
    pub admission: Admission,
    done: Receiver<SessionOutcome>,
}

impl SessionTicket {
    /// Blocks until the session completes.
    ///
    /// # Errors
    /// [`SubmitError::ServiceDown`] when the coordinator died before
    /// delivering the outcome.
    pub fn wait(self) -> Result<SessionOutcome, SubmitError> {
        self.done.recv().map_err(|_| SubmitError::ServiceDown)
    }
}

impl std::fmt::Debug for SessionTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTicket")
            .field("id", &self.id)
            .field("admission", &self.admission)
            .finish_non_exhaustive()
    }
}

/// A live snapshot / final summary of the service's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// The global memory bound `M`.
    pub capacity: u64,
    /// Admission counters (submitted / admitted / queued / refused /
    /// completed).
    pub admission: AdmissionStats,
    /// Sessions whose run returned an error (a subset of completed).
    pub failed: u64,
    /// Currently running sessions.
    pub running: usize,
    /// Currently queued sessions.
    pub queued: usize,
    /// High-water mark of `Σ` granted budgets — the service-level
    /// booking peak, provably ≤ `capacity` (the ledger hard-errors past
    /// it).
    pub peak_reserved: u64,
    /// High-water mark of concurrently running sessions.
    pub peak_running: usize,
}

enum Msg {
    Submit {
        id: SessionId,
        req: SessionRequest,
        floor: u64,
        submitted_at: Instant,
        reply: Sender<Result<(Admission, Receiver<SessionOutcome>), SubmitError>>,
    },
    Done {
        id: SessionId,
        result: Box<Result<RunReport, PlatformError>>,
    },
    Stats {
        reply: Sender<ServiceStats>,
    },
    Shutdown {
        reply: Sender<ServiceStats>,
    },
}

/// The long-lived session server; see the module docs.
///
/// Dropping the service without [`Service::shutdown`] drains it
/// (running and queued sessions complete) before the coordinator exits.
pub struct Service {
    tx: Sender<Msg>,
    coordinator: Option<std::thread::JoinHandle<()>>,
    next_id: AtomicU64,
}

impl Service {
    /// Starts the coordinator for a service over `config`.
    pub fn start(config: ServiceConfig) -> Self {
        let (tx, rx) = channel::unbounded::<Msg>();
        let done_tx = tx.clone();
        let coordinator = std::thread::Builder::new()
            .name("memtree-service".into())
            .spawn(move || Coordinator::new(config, done_tx).run(rx))
            .map_err(|err| {
                // No coordinator thread (resource exhaustion): the
                // receiver just died with the failed closure, so every
                // submit observes the closed channel and returns
                // `SubmitError::ServiceDown` — degraded, never panicked.
                eprintln!("memtree-service: coordinator spawn failed ({err}); service is down");
            })
            .ok();
        Service {
            tx,
            coordinator,
            next_id: AtomicU64::new(0),
        }
    }

    /// Submits a session: prices its feasibility floor
    /// ([`PolicySpec::min_feasible`] — RedTree-aware, computed on the
    /// caller's thread so a large tree never blocks the coordinator),
    /// asks admission control, and returns the ticket.
    ///
    /// # Errors
    /// [`SubmitError::Infeasible`] when the session could not run even
    /// alone, [`SubmitError::Draining`] after shutdown started.
    pub fn submit(&self, req: SessionRequest) -> Result<SessionTicket, SubmitError> {
        let floor = req.spec.min_feasible(&req.tree);
        // ordering: Relaxed — ticket ids only need uniqueness; every
        // transfer of session state rides the coordinator channel.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply_tx, reply_rx) = channel::unbounded();
        self.tx
            .send(Msg::Submit {
                id,
                req,
                floor,
                submitted_at: Instant::now(),
                reply: reply_tx,
            })
            .map_err(|_| SubmitError::ServiceDown)?;
        let (admission, done) = reply_rx.recv().map_err(|_| SubmitError::ServiceDown)??;
        Ok(SessionTicket {
            id,
            admission,
            done,
        })
    }

    /// A live snapshot of the service counters.
    ///
    /// # Errors
    /// [`SubmitError::ServiceDown`] when the coordinator is gone.
    pub fn stats(&self) -> Result<ServiceStats, SubmitError> {
        let (reply_tx, reply_rx) = channel::unbounded();
        self.tx
            .send(Msg::Stats { reply: reply_tx })
            .map_err(|_| SubmitError::ServiceDown)?;
        reply_rx.recv().map_err(|_| SubmitError::ServiceDown)
    }

    /// Drains the service — every running and queued session completes,
    /// new submissions are refused — and returns the final counters.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_inner().unwrap_or_default()
    }

    fn shutdown_inner(&mut self) -> Option<ServiceStats> {
        let (reply_tx, reply_rx) = channel::unbounded();
        let stats = match self.tx.send(Msg::Shutdown { reply: reply_tx }) {
            Ok(()) => reply_rx.recv().ok(),
            Err(_) => None,
        };
        if let Some(handle) = self.coordinator.take() {
            let _ = handle.join();
        }
        stats
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("sessions_issued", &self.next_id)
            .finish_non_exhaustive()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

/// A session the coordinator is tracking (running or queued).
struct Session {
    req: SessionRequest,
    done_tx: Sender<SessionOutcome>,
    submitted_at: Instant,
    /// Set at admission.
    granted: Option<Grant>,
    admitted_at: Option<Instant>,
    handle: Option<std::thread::JoinHandle<()>>,
}

struct Coordinator {
    config: ServiceConfig,
    controller: AdmissionController,
    sessions: HashMap<SessionId, Session>,
    /// The coordinator's own sender, cloned into session threads so
    /// completions stream back as messages.
    self_tx: Sender<Msg>,
    failed: u64,
    draining: Option<Sender<ServiceStats>>,
}

impl Coordinator {
    fn new(config: ServiceConfig, self_tx: Sender<Msg>) -> Self {
        Coordinator {
            controller: AdmissionController::new(config.memory, config.grant),
            config,
            sessions: HashMap::new(),
            self_tx,
            failed: 0,
            draining: None,
        }
    }

    fn run(mut self, rx: Receiver<Msg>) {
        while let Ok(msg) = rx.recv() {
            match msg {
                Msg::Submit {
                    id,
                    req,
                    floor,
                    submitted_at,
                    reply,
                } => self.on_submit(id, req, floor, submitted_at, reply),
                Msg::Done { id, result } => self.on_done(id, *result),
                Msg::Stats { reply } => {
                    let _ = reply.send(self.stats());
                }
                Msg::Shutdown { reply } => {
                    self.draining = Some(reply);
                }
            }
            if let Some(reply) = &self.draining {
                if self.sessions.is_empty() {
                    let _ = reply.send(self.stats());
                    break;
                }
            }
        }
        // Handles of sessions that completed in the final iteration were
        // already joined in on_done; anything left here means the channel
        // closed mid-flight — join to avoid leaking threads.
        for (_, s) in self.sessions.drain() {
            if let Some(handle) = s.handle {
                let _ = handle.join();
            }
        }
    }

    fn stats(&self) -> ServiceStats {
        ServiceStats {
            capacity: self.controller.capacity(),
            admission: self.controller.stats(),
            failed: self.failed,
            running: self.controller.running(),
            queued: self.controller.queue_len(),
            peak_reserved: self.controller.peak_reserved(),
            peak_running: self.controller.peak_running(),
        }
    }

    #[allow(clippy::type_complexity)]
    fn on_submit(
        &mut self,
        id: SessionId,
        req: SessionRequest,
        floor: u64,
        submitted_at: Instant,
        reply: Sender<Result<(Admission, Receiver<SessionOutcome>), SubmitError>>,
    ) {
        if self.draining.is_some() {
            let _ = reply.send(Err(SubmitError::Draining));
            return;
        }
        let decision = match self
            .controller
            .submit(id, floor, req.spec.memory, req.priority)
        {
            Ok(d) => d,
            // Ids are coordinator-assigned and unique; a controller error
            // here is a service bug — surface it as a refused submission
            // rather than poisoning the coordinator.
            Err(e) => {
                panic!("admission controller rejected a coordinator-assigned id: {e}")
            }
        };
        match decision {
            Decision::Refused(r) => {
                let _ = reply.send(Err(SubmitError::Infeasible(r)));
            }
            Decision::Admitted(grant) => {
                let (done_tx, done_rx) = channel::unbounded();
                let mut session = Session {
                    req,
                    done_tx,
                    submitted_at,
                    granted: Some(grant),
                    admitted_at: Some(Instant::now()),
                    handle: None,
                };
                Self::launch(&self.config, &self.self_tx, grant, &mut session);
                self.sessions.insert(id, session);
                let _ = reply.send(Ok((
                    Admission::Immediate {
                        budget: grant.budget,
                    },
                    done_rx,
                )));
            }
            Decision::Queued { position } => {
                let (done_tx, done_rx) = channel::unbounded();
                self.sessions.insert(
                    id,
                    Session {
                        req,
                        done_tx,
                        submitted_at,
                        granted: None,
                        admitted_at: None,
                        handle: None,
                    },
                );
                let _ = reply.send(Ok((Admission::Queued { position }, done_rx)));
            }
        }
    }

    fn on_done(&mut self, id: SessionId, result: Result<RunReport, PlatformError>) {
        // Ledger or session-map misses here are coordinator invariant
        // violations. They are logged loudly and survived — one corrupt
        // session must degrade, not take the whole coordinator thread
        // (and with it every tenant) down with a panic.
        let completion = match self.controller.complete(id) {
            Ok(c) => c,
            Err(err) => {
                eprintln!("memtree-service: completion for unlaunched session {id}: {err}");
                return;
            }
        };
        if result.is_err() {
            self.failed += 1;
        }
        match self.sessions.remove(&id) {
            Some(mut session) => {
                if let Some(handle) = session.handle.take() {
                    let _ = handle.join();
                }
                let outcome = SessionOutcome {
                    id,
                    budget: completion.released,
                    admission_wait: session
                        .admitted_at
                        .unwrap_or(session.submitted_at)
                        .duration_since(session.submitted_at),
                    result,
                };
                // The ticket may have been dropped; the outcome is then
                // simply unobserved.
                let _ = session.done_tx.send(outcome);
            }
            None => {
                eprintln!("memtree-service: completed session {id} was not tracked");
            }
        }
        // Rebalance: the freed budget admits queued sessions right now.
        for grant in completion.admitted {
            let grant_id = grant.session;
            let Some(session) = self.sessions.get_mut(&grant_id) else {
                eprintln!("memtree-service: admission granted to untracked session {grant_id}");
                continue;
            };
            session.granted = Some(grant);
            session.admitted_at = Some(Instant::now());
            Self::launch(&self.config, &self.self_tx, grant, session);
        }
    }

    /// Spawns one admitted session's worker thread: the tenant's spec,
    /// re-bounded to the granted budget, runs on the configured backend;
    /// the completion streams back as a [`Msg::Done`]. A panicking run
    /// becomes an error message, never a silent death — the coordinator's
    /// only view of the session is the channel.
    fn launch(config: &ServiceConfig, self_tx: &Sender<Msg>, grant: Grant, session: &mut Session) {
        let backend = config.backend;
        let reschedule = config.reschedule;
        let spec = session.req.spec.clone().with_memory(grant.budget);
        let tree = session.req.tree.clone();
        let tx = self_tx.clone();
        let id = grant.session;
        let spawned = std::thread::Builder::new()
            .name(format!("memtree-session-{id}"))
            .spawn(move || {
                let run = || backend.platform(reschedule).run(&tree, &spec);
                let result = catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| {
                    Err(DriveError::Backend("the session run panicked".into()).into())
                });
                let _ = tx.send(Msg::Done {
                    id,
                    result: Box::new(result),
                });
            });
        match spawned {
            Ok(handle) => session.handle = Some(handle),
            Err(err) => {
                // Out of threads: fail this session through the normal
                // Done path so its budget is released and its ticket
                // resolves, instead of panicking the coordinator or
                // leaking a granted-but-never-run session.
                eprintln!("memtree-service: session worker spawn failed for {id}: {err}");
                let lost = DriveError::Backend(format!("session worker spawn failed: {err}"));
                let _ = self_tx.send(Msg::Done {
                    id,
                    result: Box::new(Err(lost.into())),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_sched::HeuristicKind;

    fn arc_tree(n: usize, seed: u64) -> Arc<TaskTree> {
        Arc::new(memtree_gen::synthetic::paper_tree(n, seed))
    }

    #[test]
    fn one_session_runs_to_completion() {
        let tree = arc_tree(120, 5);
        let floor = memtree_sched::min_feasible_memory(&tree);
        let service = Service::start(ServiceConfig::new(floor * 4));
        let spec = PolicySpec::new(HeuristicKind::MemBooking, floor * 4);
        let ticket = service
            .submit(SessionRequest::new(spec, tree.clone()))
            .unwrap();
        assert!(matches!(ticket.admission, Admission::Immediate { .. }));
        let outcome = ticket.wait().unwrap();
        let report = outcome.result.unwrap();
        assert_eq!(report.tasks_run, tree.len());
        assert!(report.peak_booked <= floor * 4);
        let stats = service.shutdown();
        assert_eq!(stats.admission.completed, 1);
        assert_eq!(stats.failed, 0);
        assert!(stats.peak_reserved <= stats.capacity);
    }

    #[test]
    fn rescheduled_moldable_session_completes_in_envelope() {
        let tree = arc_tree(100, 7);
        let floor = memtree_sched::min_feasible_memory(&tree);
        let workers = 3;
        let service = Service::start(
            ServiceConfig::new(floor * 4)
                .with_backend(SessionBackend::Threaded {
                    workers,
                    workload: Workload::Noop,
                })
                .with_rescheduler(ReschedulePolicy::default()),
        );
        let caps = memtree_sched::AllotmentCaps::uniform(&tree, workers as u32);
        let spec = PolicySpec::new(HeuristicKind::MemBooking, floor * 4).with_caps(caps);
        let ticket = service
            .submit(SessionRequest::new(spec, tree.clone()))
            .unwrap();
        let outcome = ticket.wait().unwrap();
        let report = outcome.result.unwrap();
        assert_eq!(report.tasks_run, tree.len());
        assert!(report.peak_booked <= floor * 4);
        assert!(report.peak_actual <= report.peak_booked);
        let stats = service.shutdown();
        assert_eq!(stats.admission.completed, 1);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn infeasible_submission_is_refused_not_queued() {
        let tree = arc_tree(80, 9);
        let floor = memtree_sched::min_feasible_memory(&tree);
        let service = Service::start(ServiceConfig::new(floor * 4));
        // Requests less memory than its own floor.
        let spec = PolicySpec::new(HeuristicKind::MemBooking, floor - 1);
        let err = service
            .submit(SessionRequest::new(spec, tree.clone()))
            .unwrap_err();
        assert!(matches!(err, SubmitError::Infeasible(_)), "got {err}");
        // A floor over the whole machine is refused too.
        let spec = PolicySpec::new(HeuristicKind::MemBooking, floor * 100);
        let service_small = Service::start(ServiceConfig::new(floor - 1));
        let err = service_small
            .submit(SessionRequest::new(spec, tree))
            .unwrap_err();
        assert!(matches!(err, SubmitError::Infeasible(_)), "got {err}");
        let stats = service.shutdown();
        assert_eq!(stats.admission.refused, 1);
        assert_eq!(stats.admission.admitted, 0);
    }

    #[test]
    fn contended_tenants_queue_and_all_complete() {
        let tree = arc_tree(150, 11);
        let floor = memtree_sched::min_feasible_memory(&tree);
        // Room for ~2 minimum-grant tenants at a time, 6 tenants total.
        // Sessions sleep per task so they are still running when later
        // tenants arrive — queueing is then guaranteed, not a race.
        let service = Service::start(
            ServiceConfig::new(floor * 2 + 1)
                .with_backend(SessionBackend::Threaded {
                    workers: 2,
                    workload: Workload::quick(),
                })
                .with_grant(GrantPolicy::Minimum),
        );
        let tickets: Vec<SessionTicket> = (0..6)
            .map(|k| {
                let spec = PolicySpec::new(HeuristicKind::MemBooking, floor * 2);
                service
                    .submit(SessionRequest::new(spec, tree.clone()).with_priority(k as u8))
                    .unwrap()
            })
            .collect();
        for ticket in tickets {
            let outcome = ticket.wait().unwrap();
            let report = outcome.result.unwrap();
            assert_eq!(report.tasks_run, tree.len());
            assert!(outcome.budget >= floor);
        }
        let stats = service.shutdown();
        assert_eq!(stats.admission.completed, 6);
        assert!(stats.admission.queued >= 1, "contention must have queued");
        assert!(stats.peak_reserved <= stats.capacity);
        assert_eq!(stats.running, 0);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn draining_service_refuses_new_sessions() {
        let tree = arc_tree(60, 3);
        let floor = memtree_sched::min_feasible_memory(&tree);
        let service = Service::start(ServiceConfig::new(floor * 4));
        let spec = PolicySpec::new(HeuristicKind::MemBooking, floor * 2);
        let ticket = service
            .submit(SessionRequest::new(spec, tree.clone()))
            .unwrap();
        let outcome = ticket.wait().unwrap();
        assert!(outcome.result.is_ok());
        // After shutdown the handle is consumed; a fresh service proves
        // the Draining refusal by racing a shutdown... which is timing-
        // dependent, so instead assert the final stats are a drain.
        let stats = service.shutdown();
        assert_eq!(stats.running, 0);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn stats_snapshot_is_live() {
        let tree = arc_tree(100, 21);
        let floor = memtree_sched::min_feasible_memory(&tree);
        let service = Service::start(ServiceConfig::new(floor * 8));
        let stats = service.stats().unwrap();
        assert_eq!(stats.capacity, floor * 8);
        assert_eq!(stats.admission.submitted, 0);
        let spec = PolicySpec::new(HeuristicKind::MemBooking, floor * 2);
        let ticket = service
            .submit(SessionRequest::new(spec, tree.clone()))
            .unwrap();
        let stats = service.stats().unwrap();
        assert_eq!(stats.admission.submitted, 1);
        ticket.wait().unwrap().result.unwrap();
        service.shutdown();
    }

    /// A service that cannot take or finish a session reports the cause,
    /// not a worker panic; a refusal stays the feasibility refusal.
    #[test]
    fn submit_errors_keep_their_cause() {
        for (e, msg) in [
            (SubmitError::Draining, "service is draining"),
            (SubmitError::ServiceDown, "service coordinator is gone"),
        ] {
            match PlatformError::from(e) {
                PlatformError::Run(DriveError::Backend(m)) => assert_eq!(m, msg),
                other => panic!("expected a backend failure, got {other}"),
            }
        }
        let tree = arc_tree(60, 3);
        let floor = memtree_sched::min_feasible_memory(&tree);
        let service = Service::start(ServiceConfig::new(floor * 4));
        let spec = PolicySpec::new(HeuristicKind::MemBooking, floor - 1);
        let refused = service.submit(SessionRequest::new(spec, tree)).unwrap_err();
        assert!(PlatformError::from(refused).is_infeasible());
        service.shutdown();
    }
}
