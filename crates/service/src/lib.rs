#![forbid(unsafe_code)]
//! # memtree_service — multi-tenant scheduling as a service
//!
//! The per-run entry points (`Platform::run`, the sweep harness, the
//! sharded forest) all assume one tenant owns the machine's memory bound
//! `M` for the duration of a run. This crate lifts the same booking
//! discipline one level up, to the regime the paper's model actually
//! targets: a shared machine where many tenants' trees arrive over time
//! and the bound is a *global* resource (DESIGN.md §6.9).
//!
//! Three layers:
//!
//! * [`AdmissionController`] — the pure policy: a promoted
//!   [`BudgetLedger`](memtree_sched::BudgetLedger) plus a FIFO wait
//!   queue. Every admitted session's budget is at least its
//!   [`PolicySpec::min_feasible`](memtree_sched::PolicySpec::min_feasible)
//!   floor; `Σ` budgets never exceeds `M` (the ledger hard-errors);
//!   sessions infeasible even alone are refused outright — the service
//!   never thrashes on a tenant it cannot serve.
//! * [`Service`] — the coordinator thread wiring the controller to real
//!   execution: admitted sessions run concurrently on their own threads
//!   through the unmodified sim/threaded/async
//!   [`Platform`](memtree_runtime::Platform) backends, and every
//!   completion immediately rebalances its freed budget to the queue.
//! * [`ServicePlatform`] — the service itself as a `Platform`, so the
//!   shared conformance suite stamps it and the single-tenant
//!   differential tests compare it bit-for-bit against direct runs.

#![warn(missing_docs)]

pub mod admission;
pub mod platform;
pub mod service;

pub use admission::{
    AdmissionController, AdmissionError, AdmissionStats, Decision, Grant, Refusal, SessionId,
};
pub use platform::ServicePlatform;
pub use service::{
    Admission, Service, ServiceConfig, ServiceStats, SessionBackend, SessionOutcome,
    SessionRequest, SessionTicket, SubmitError,
};
