#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Threaded runtime: execute a task tree with real worker threads under a
//! memory-aware scheduler, and the unified [`platform`] API.
//!
//! The paper argues MemBooking's overhead is small enough "to allow its
//! runtime execution" — this crate closes the loop by driving the very
//! same [`memtree_sim::Scheduler`] implementations — sequential and,
//! gang-scheduled, moldable ones — with genuine threads instead of
//! simulated time. Completion order is whatever the OS
//! makes of it, exercising the schedulers' dynamic behaviour; the shared
//! `memtree_sim::DriverCore` — stepped through one gang step, by the
//! workers themselves or by the futures platform's pump — re-asserts
//! `actual ≤ booked ≤ M` at every event, so a booking bug aborts the run
//! rather than silently overcommitting.
//!
//! The [`platform`] module is the one entry point for running a
//! `memtree_sched::PolicySpec` in any regime — [`SimPlatform`] (virtual
//! time), [`ThreadedPlatform`] (real threads), [`ShardedPlatform`] and
//! [`ProcessPlatform`] (the tree cut into shard subtrees, each run by a
//! worker with an independent booking ledger: one shard coordinator in
//! [`sharded`] over two transports, a thread per shard or a worker
//! *process* behind strict stdin/stdout wire framing, see [`process`])
//! or [`AsyncPlatform`] (workers are futures on a small hand-rolled
//! executor, for IO-bound fronts; see [`async_platform`]) — behind
//! the common [`Platform`] trait returning a common [`RunReport`]. The
//! [`conformance`] module stamps one invariant suite out per platform.

pub mod async_platform;
pub mod conformance;
pub mod dispatch;
pub mod executor;
pub mod platform;
pub mod process;
pub mod quarantine;
pub mod sharded;
pub mod sync;
pub mod workload;

pub use async_platform::AsyncPlatform;
pub use executor::execute;
pub use memtree_sim::{DriveError, DriveStats};
pub use platform::{Platform, PlatformError, RunReport, SimPlatform, ThreadedPlatform};
pub use process::{ChaosKill, ProcessPlatform};
pub use sharded::{ShardedPlatform, ShardedReport};
pub use workload::Workload;
