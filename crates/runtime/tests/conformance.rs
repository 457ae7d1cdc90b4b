// Real-thread integration tests: excluded from the `memtree_loom` model
// build, where sync primitives only work inside a minloom model.
#![cfg(not(memtree_loom))]

//! The shared platform invariant suite, stamped out per platform by
//! `platform_conformance!` — one contract, three backends (and one
//! instantiation line per future backend).
//!
//! This replaces the per-platform invariant assertions that used to be
//! duplicated across the sim-vs-threaded equivalence tests: the
//! cross-platform *comparisons* stay in `tests/runtime_vs_sim.rs` and
//! `tests/sharded_equivalence.rs`; the per-platform *invariants* live
//! here, once.

memtree_runtime::platform_conformance!(sim, memtree_runtime::SimPlatform::new(4));

// The in-process pools (threads, futures) also take the payload-panic
// case: a constructor by worker count, swept over MEMTREE_TEST_WORKERS.
memtree_runtime::platform_conformance!(
    threaded,
    memtree_runtime::ThreadedPlatform::new(4),
    payload_panic: memtree_runtime::ThreadedPlatform::new
);

memtree_runtime::platform_conformance!(
    sharded_x2,
    memtree_runtime::ShardedPlatform::new(2).with_workers_per_shard(2)
);

memtree_runtime::platform_conformance!(sharded_x4, memtree_runtime::ShardedPlatform::new(4));

memtree_runtime::platform_conformance!(
    async_x4,
    memtree_runtime::AsyncPlatform::new(4),
    payload_panic: memtree_runtime::AsyncPlatform::new
);

// Process backend: the shard protocol over real worker processes. The
// suite runs completely unmodified — CARGO_BIN_EXE pins the worker
// binary Cargo built alongside this test.
memtree_runtime::platform_conformance!(
    process_x2,
    memtree_runtime::ProcessPlatform::new(2)
        .with_workers_per_shard(2)
        .with_worker_bin(env!("CARGO_BIN_EXE_memtree-shard-worker"))
);

memtree_runtime::platform_conformance!(
    process_x4,
    memtree_runtime::ProcessPlatform::new(4)
        .with_worker_bin(env!("CARGO_BIN_EXE_memtree-shard-worker"))
);

// The single-threaded executor flavour: p = 4 logical workers polled by
// one OS thread — the IO-bound configuration must satisfy the exact same
// contract.
memtree_runtime::platform_conformance!(
    async_single_thread,
    memtree_runtime::AsyncPlatform::new(4).with_threads(1),
    payload_panic: |workers| memtree_runtime::AsyncPlatform::new(workers).with_threads(1)
);

// Malleable flavours: the same backends with the feedback rescheduler
// resizing gangs mid-run. Grow/shrink must not be observable in the
// contract — every invariant (completion, occupancy, booking envelope)
// holds unchanged.
memtree_runtime::platform_conformance!(
    sim_rescheduled,
    memtree_runtime::SimPlatform::new(4)
        .with_rescheduler(memtree_sched::ReschedulePolicy::default())
);

memtree_runtime::platform_conformance!(
    threaded_rescheduled,
    memtree_runtime::ThreadedPlatform::new(4)
        .with_rescheduler(memtree_sched::ReschedulePolicy::default())
);

memtree_runtime::platform_conformance!(
    async_rescheduled,
    memtree_runtime::AsyncPlatform::new(4)
        .with_rescheduler(memtree_sched::ReschedulePolicy::default())
);
