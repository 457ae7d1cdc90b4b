#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Discrete-event simulator for shared-memory parallel tree scheduling.
//!
//! The platform model of the paper: `p` identical processors sharing a
//! memory of size `M`. A scheduler (the [`Scheduler`] trait) reacts to task
//! completions — the only events — by starting new tasks on idle
//! processors. The engine:
//!
//! * advances time from completion to completion (plus the initial `t = 0`
//!   event),
//! * charges the scheduler's *booked* memory and independently replays the
//!   **actual** resident memory through [`memtree_tree::memory::LiveSet`],
//! * asserts at every instant that actual ≤ booked ≤ `M` for
//!   booking-sound schedulers (configurable),
//! * measures the wall-clock time spent inside scheduler callbacks — the
//!   "scheduling time" of Figures 5, 6 and 13,
//! * produces a full [`Trace`] that [`validate::validate_trace`] re-checks
//!   from scratch (precedence, concurrency, memory).
//!
//! Determinism: simultaneous completions are delivered in ascending node
//! id (ascending [`memtree_tree::TaskTree::label`] on a renumbered tree),
//! and all scheduler queues are tie-broken explicitly, so a simulation is
//! a pure function of (tree, config, scheduler).

pub mod driver;
pub mod engine;
pub mod error;
pub mod moldable;
pub mod scheduler;
pub mod trace;
pub mod validate;

pub use driver::{
    drive, drive_gang, drive_gang_with, Backend, DriveConfig, DriveError, DriveStats, GangBackend,
    GangSnapshot, LiveStats, RescheduleAction, Rescheduler, UnitAllotments,
};
pub use engine::{simulate, simulate_summary, SimConfig};
pub use error::SimError;
pub use moldable::{
    simulate_moldable, simulate_moldable_with, AllotmentSegment, MoldableRecord, MoldableScheduler,
    MoldableTrace, SpeedupModel,
};
pub use scheduler::Scheduler;
pub use trace::{RunSummary, TaskRecord, Trace};
