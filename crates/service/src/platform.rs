//! **`ServicePlatform`** — the service as a [`Platform`], so the
//! conformance suite and differential tests can drive it exactly like
//! sim/threaded/async.
//!
//! `run` starts a one-shot [`Service`] over `spec.memory`, submits the
//! tree as the only tenant, waits for the outcome, and relabels the
//! report `"service"`. The lone tenant is granted exactly its requested
//! bound, so the report is the direct backend run's report bit-for-bit
//! (modulo wall-clock fields) — the single-tenant differential contract
//! of DESIGN.md §6.9. Admission refusals surface as
//! [`memtree_sched::SchedError::InfeasibleMemory`], making
//! `is_infeasible()` true just as on every other platform; a service that
//! cannot take or finish the session is a `DriveError::Backend` naming
//! the cause.

use crate::service::{Service, ServiceConfig, SessionBackend, SessionRequest, SessionTicket};
use memtree_runtime::{Platform, PlatformError, RunReport};
use memtree_sched::{PolicyInstance, PolicySpec, ReschedulePolicy};
use memtree_tree::TaskTree;
use std::sync::Arc;

/// One-shot service runs over a configurable backend; see the module
/// docs.
#[derive(Clone, Copy, Debug)]
pub struct ServicePlatform {
    /// The execution regime sessions run on.
    pub backend: SessionBackend,
    /// When set, moldable sessions run malleable (DESIGN.md §6.10).
    pub reschedule: Option<ReschedulePolicy>,
}

impl ServicePlatform {
    /// A service platform over `backend` with no rescheduler.
    pub fn new(backend: SessionBackend) -> Self {
        ServicePlatform {
            backend,
            reschedule: None,
        }
    }

    /// Makes moldable sessions malleable under `policy`.
    pub fn with_rescheduler(mut self, policy: ReschedulePolicy) -> Self {
        self.reschedule = Some(policy);
        self
    }
}

impl Platform for ServicePlatform {
    fn name(&self) -> &'static str {
        "service"
    }

    /// An already-instantiated policy carries no spec to price admission
    /// against, so it runs directly on the backend (relabelled); the
    /// admission path is [`Platform::run`].
    fn run_instance(
        &self,
        tree: &TaskTree,
        instance: &PolicyInstance,
    ) -> Result<RunReport, PlatformError> {
        let platform = self.backend.platform(self.reschedule);
        let mut report = platform.run_instance(tree, instance)?;
        report.platform = self.name();
        Ok(report)
    }

    fn run(&self, tree: &TaskTree, spec: &PolicySpec) -> Result<RunReport, PlatformError> {
        let mut config = ServiceConfig::new(spec.memory).with_backend(self.backend);
        config.reschedule = self.reschedule;
        let service = Service::start(config);
        let result = service
            .submit(SessionRequest::new(spec.clone(), Arc::new(tree.clone())))
            .and_then(SessionTicket::wait)
            .map_err(PlatformError::from)
            .and_then(|outcome| outcome.result);
        service.shutdown();
        let mut report = result?;
        report.platform = self.name();
        Ok(report)
    }
}
