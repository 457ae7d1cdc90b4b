#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Discrete-event simulator for shared-memory parallel tree scheduling.
//!
//! The platform model of the paper: `p` identical processors sharing a
//! memory of size `M`. A scheduler (the [`Scheduler`] trait) reacts to task
//! completions — the only events — by starting new tasks on idle
//! processors, each on an allotment of `q ≥ 1` of them. A sequential task
//! is the allotment `q = 1`, so the paper's policies and their moldable
//! and malleable extensions share everything below the trait: one
//! [`DriverCore`] holding every check and ledger, stepped by exactly two
//! callers — this crate's virtual-clock engine, and the runtime's gang
//! step under real threads and futures — one [`Trace`] and one
//! [`validate::validate_trace`]. The engine:
//!
//! * advances time from completion to completion (plus the initial `t = 0`
//!   event), scaling a task's running time by [`SimConfig::speedup`] for
//!   its allotment (`t / 1` under the default linear model: exactly `t`),
//! * charges the scheduler's *booked* memory and independently replays the
//!   **actual** resident memory through [`memtree_tree::memory::LiveSet`],
//! * asserts at every instant that actual ≤ booked ≤ `M` for
//!   booking-sound schedulers (configurable),
//! * measures the wall-clock time spent inside scheduler callbacks — the
//!   "scheduling time" of Figures 5, 6 and 13,
//! * lets an optional [`Rescheduler`] grow and shrink running gangs
//!   between events ([`simulate_with`]),
//! * produces a full [`Trace`] that [`validate::validate_trace`] re-checks
//!   from scratch (precedence, durations or work conservation, occupancy,
//!   memory, makespan) — or only the aggregates ([`simulate_summary`]).
//!
//! Determinism: simultaneous completions are delivered in ascending node
//! id (ascending [`memtree_tree::TaskTree::label`] on a renumbered tree),
//! and all scheduler queues are tie-broken explicitly, so a simulation is
//! a pure function of (tree, config, scheduler).

pub mod driver;
pub mod engine;
pub mod moldable;
pub mod scheduler;
#[cfg(test)]
mod testutil;
pub mod trace;
pub mod validate;

pub use driver::{
    DriveConfig, DriveError, DriveStats, DriverCore, GangSnapshot, LiveStats, RescheduleAction,
    Rescheduler, Resize, Tick,
};
pub use engine::{simulate, simulate_summary, simulate_with, SimConfig};
pub use moldable::SpeedupModel;
pub use scheduler::Scheduler;
pub use trace::{AllotmentSegment, TaskRecord, Trace};
