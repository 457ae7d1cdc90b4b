//! **`platform_conformance!`** — one invariant suite for every
//! [`Platform`](crate::Platform) implementation (DESIGN.md §7).
//!
//! Before this macro, the sim-vs-threaded equivalence tests re-stated the
//! same per-platform assertions (every kind completes, stays inside the
//! booking envelope, refuses infeasible memory, …) once per platform;
//! adding a third platform would have copied them again. The macro stamps
//! the suite out per platform instead: one definition, one contract, any
//! backend — including future ones (an async platform only needs one more
//! instantiation line).
//!
//! ```ignore
//! memtree_runtime::platform_conformance!(sim, memtree_runtime::SimPlatform::new(4));
//! memtree_runtime::platform_conformance!(sharded, memtree_runtime::ShardedPlatform::new(2));
//! ```
//!
//! The expansion site must have `memtree_gen`, `memtree_sched` and
//! `memtree_testkit` available (they are dev-dependencies wherever
//! platforms are tested): the suite's trees come from `memtree_gen`, its
//! memory bound is `memtree_testkit::roomy`, and its worker counts are
//! `memtree_testkit::counts_from_env` over `MEMTREE_TEST_WORKERS`.

/// Stamps out the platform invariant suite as a test module named
/// `$suite`, running every check against the platform built by the
/// `$platform` expression (evaluated fresh per test).
///
/// The suite asserts, for every [`PolicySpec`](memtree_sched::PolicySpec)
/// kind:
///
/// * the run completes and covers at least the whole tree (transforming
///   policies run their fictitious tasks on top);
/// * `peak_actual ≤ peak_booked ≤ M` — the booking envelope holds on any
///   backend;
/// * an infeasible bound is refused with a distinguishable error, never
///   a hang or a panic;
/// * the completed task set is deterministic across repeated runs;
/// * moldable specs (allotment caps) are first-class.
///
/// Platforms that run payloads on an in-process worker pool add
/// `payload_panic: <constructor>` — a `fn(workers) -> Platform` whose
/// result has the no-op payload and a `with_workload` builder. The suite
/// then also asserts, for every worker count `MEMTREE_TEST_WORKERS` pins
/// (1, 2 and 4 when unset):
///
/// * a panicking payload is a `DriveError::Backend` error, never a hang
///   or a propagated panic, and the same platform value runs cleanly
///   after it.
#[macro_export]
macro_rules! platform_conformance {
    ($suite:ident, $platform:expr $(, payload_panic: $pool:expr)?) => {
        mod $suite {
            use $crate::platform::Platform as _;
            use ::memtree_testkit::roomy;

            #[test]
            fn every_kind_completes_within_the_envelope() {
                let tree = ::memtree_gen::synthetic::paper_tree(150, 17);
                let m = roomy(&tree);
                let platform = $platform;
                for kind in ::memtree_sched::HeuristicKind::all() {
                    let spec = ::memtree_sched::PolicySpec::new(kind, m);
                    let report = platform
                        .run(&tree, &spec)
                        .unwrap_or_else(|e| panic!("{kind} on {}: {e}", platform.name()));
                    assert!(
                        report.tasks_run >= tree.len(),
                        "{kind} on {}: {} tasks for {} nodes",
                        platform.name(),
                        report.tasks_run,
                        tree.len()
                    );
                    assert!(report.peak_booked <= m, "{kind}: booked over the bound");
                    assert!(
                        report.peak_actual <= report.peak_booked,
                        "{kind}: actual over booked"
                    );
                }
            }

            #[test]
            fn infeasible_memory_is_distinguishable() {
                let tree = ::memtree_gen::synthetic::paper_tree(60, 2);
                let min = ::memtree_sched::min_feasible_memory(&tree);
                let spec = ::memtree_sched::PolicySpec::new(
                    ::memtree_sched::HeuristicKind::MemBooking,
                    min - 1,
                );
                let err = $platform.run(&tree, &spec).unwrap_err();
                assert!(err.is_infeasible(), "got {err}");
            }

            #[test]
            fn completion_set_is_deterministic_across_runs() {
                let tree = ::memtree_gen::synthetic::paper_tree(120, 23);
                let m = roomy(&tree);
                let platform = $platform;
                for kind in ::memtree_sched::HeuristicKind::all() {
                    let spec = ::memtree_sched::PolicySpec::new(kind, m);
                    let a = platform.run(&tree, &spec).unwrap();
                    let b = platform.run(&tree, &spec).unwrap();
                    assert_eq!(a.tasks_run, b.tasks_run, "{kind}");
                    assert_eq!(a.policy, b.policy, "{kind}");
                }
            }

            #[test]
            fn moldable_specs_are_first_class() {
                let tree = ::memtree_gen::synthetic::paper_tree(80, 6);
                let m = roomy(&tree);
                let caps = ::memtree_sched::AllotmentCaps::uniform(&tree, 4);
                let spec =
                    ::memtree_sched::PolicySpec::new(::memtree_sched::HeuristicKind::MemBooking, m)
                        .with_caps(caps);
                let report = $platform.run(&tree, &spec).unwrap();
                assert_eq!(report.tasks_run, tree.len());
                assert!(report.peak_booked <= m);
                assert!(report.peak_actual <= report.peak_booked);
            }

            #[test]
            fn redtree_runs_its_fictitious_tasks() {
                let tree = ::memtree_gen::synthetic::paper_tree(100, 23);
                let m = roomy(&tree);
                let spec = ::memtree_sched::PolicySpec::new(
                    ::memtree_sched::HeuristicKind::MemBookingRedTree,
                    m,
                );
                let report = $platform.run(&tree, &spec).unwrap();
                assert!(
                    report.tasks_run > tree.len(),
                    "the transform adds fictitious tasks"
                );
            }

            $(
            #[test]
            fn payload_panic_is_a_clean_error() {
                let tree = ::memtree_gen::synthetic::paper_tree(40, 3);
                let spec = ::memtree_sched::PolicySpec::new(
                    ::memtree_sched::HeuristicKind::MemBooking,
                    roomy(&tree),
                );
                let workers = ::memtree_testkit::counts_from_env(
                    ::memtree_testkit::WORKERS,
                    &[1, 2, 4],
                );
                for workers in workers {
                    let platform = ($pool)(workers);
                    // Task 7 is in every schedule of this tree, so the
                    // fault fires on every run, whatever the order.
                    let err = platform
                        .with_workload($crate::Workload::FailAt { node: 7 })
                        .run(&tree, &spec)
                        .unwrap_err();
                    assert!(
                        matches!(
                            err,
                            $crate::PlatformError::Run($crate::DriveError::Backend(_))
                        ),
                        "{} with {workers} workers: {err}",
                        platform.name()
                    );
                    // The failed run took its pool with it, not the
                    // platform: the next run gets a fresh one.
                    let report = platform.run(&tree, &spec).unwrap();
                    assert_eq!(report.tasks_run, tree.len());
                }
            }
            )?
        }
    };
}
