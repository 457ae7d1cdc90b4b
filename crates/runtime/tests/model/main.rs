//! Exhaustive-interleaving model suite (DESIGN.md §6.13): drives the
//! gang member ledger, the executor's dispatch queue, the quarantine
//! gauge, the minitok wake protocol, and the vendored channel under
//! minloom's DFS scheduler.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS='--cfg memtree_loom' cargo test -p memtree_runtime --test model
//! ```
//!
//! Without the cfg this target compiles to nothing (and the ordinary
//! integration tests compile to nothing *with* it — the two builds are
//! disjoint worlds, because the façades swap `std::sync` for minloom).
//!
//! Every test picks the smallest configuration that still contains the
//! race it guards, and a CHESS-style preemption bound where the full
//! interleaving space is infeasible (most concurrency bugs — including
//! all four seeded `memtree_loom_mutate_*` regressions — need at most
//! two forced preemptions). Failures print a `MINLOOM_REPLAY` seed.
#![cfg(memtree_loom)]

mod channel;
mod dispatch;
mod gang;
mod minitok_model;
mod quarantine;
