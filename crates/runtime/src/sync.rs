//! Sync façade: `std::sync`/`std::thread` in production, `minloom` under
//! `--cfg memtree_loom` (DESIGN.md §6.13).
//!
//! The lock-free protocols this crate hand-rolls — the gang shard-claim
//! state, the executor's dispatch queue and worker pool, the quarantine
//! gauge + reaper, the sharded worker spawn/stall path — import their
//! primitives from here instead of `std`, so the model suite in
//! `tests/model/` can run them under minloom's exhaustive-interleaving
//! scheduler with zero production overhead (the non-loom path is a plain
//! re-export, compiled away).
//!
//! Deliberately *not* façaded: `std::thread::scope` in `execute`
//! (minloom has no scoped threads; the scope is plain fork/join and the
//! worker pool inside it is what the model suite exercises directly), the process backend (real OS processes are outside any
//! interleaving model), and `Instant`-based deadlines (the model has no
//! clock; timed waits become scheduler choices).

/// `std::sync::atomic` subset the protocols use.
pub mod atomic {
    #[cfg(not(memtree_loom))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    #[cfg(memtree_loom)]
    pub use minloom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// `std::thread` subset the protocols use (spawn/Builder/JoinHandle).
pub mod thread {
    #[cfg(not(memtree_loom))]
    pub use std::thread::{sleep, spawn, yield_now, Builder, JoinHandle};

    #[cfg(memtree_loom)]
    pub use minloom::thread::{sleep, spawn, yield_now, Builder, JoinHandle};
}

#[cfg(not(memtree_loom))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(memtree_loom)]
pub use minloom::sync::{Condvar, Mutex, MutexGuard};
