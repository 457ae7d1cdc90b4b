//! Load generator for the multi-tenant scheduling service
//! (`memtree-bench fig17_service`, DESIGN.md §6.9).
//!
//! `N` tenant threads share one [`Service`] over a global memory bound
//! `M`: every tenant submits a stream of sessions (its own tree, its own
//! requested bound, paced to an aggregate arrival rate) and blocks on
//! each outcome. A deterministic fraction of submissions is
//! intentionally infeasible — the requested bound is set below the
//! spec's feasibility floor — so the run also measures that admission
//! *refuses* exactly those, instead of thrashing on them.
//!
//! The report carries the service-level acceptance quantities: peak
//! concurrent tenants (must sustain the concurrency target), refusals
//! (must equal the injected infeasible count — zero infeasible sessions
//! admitted), grant floors (every admitted budget at least its floor),
//! the global booking peak (never above `M`; the hard-error ledger makes
//! an excursion a crash, not a statistic), and admission-wait
//! percentiles.

use crate::corpus::Scale;
use memtree_runtime::Workload;
use memtree_sched::{HeuristicKind, PolicySpec};
use memtree_service::{
    Admission, Service, ServiceConfig, ServiceStats, SessionBackend, SessionRequest, SubmitError,
};
use memtree_tree::TaskTree;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The load shape: how many tenants, how many sessions each, how fast.
#[derive(Clone, Copy, Debug)]
pub struct LoadSpec {
    /// Concurrent tenant threads (each with at most one session in
    /// flight).
    pub tenants: usize,
    /// Sessions each tenant submits, sequentially.
    pub sessions_per_tenant: usize,
    /// Aggregate arrival-rate target, sessions/second (pacing between a
    /// tenant's consecutive submissions; the first wave arrives as a
    /// simultaneous burst through a barrier).
    pub rate_per_sec: f64,
    /// Node count of each tenant's synthetic tree.
    pub tree_nodes: usize,
    /// Corpus seed (tenant `t` builds `paper_tree(tree_nodes, seed+t)`).
    pub seed: u64,
    /// The gate: `peak_running` must reach this many concurrent tenants.
    /// The capacity is sized so this many full requests always fit.
    pub concurrency_target: usize,
}

impl LoadSpec {
    /// The CI smoke shape: 10 tenants, 8-way concurrency gate,
    /// seconds-scale.
    pub fn quick() -> Self {
        LoadSpec {
            tenants: 10,
            sessions_per_tenant: 3,
            rate_per_sec: 400.0,
            tree_nodes: 1_500,
            seed: 17_000,
            concurrency_target: 8,
        }
    }

    /// The paper-scale shape: more tenants, deeper streams, bigger trees.
    pub fn full() -> Self {
        LoadSpec {
            tenants: 16,
            sessions_per_tenant: 6,
            rate_per_sec: 200.0,
            tree_nodes: 4_000,
            seed: 17_000,
            concurrency_target: 12,
        }
    }
}

/// Whether tenant `t`'s session number `s` is submitted with an
/// infeasible bound (requested below the floor). Deterministic, never
/// the first session (the opening barrier burst carries the concurrency
/// gate), roughly one in seven thereafter.
fn inject_infeasible(t: usize, s: usize) -> bool {
    s > 0 && (t * 31 + s) % 7 == 3
}

/// One backend's aggregate load outcome.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Backend label (`sim`/`threaded`/`async`).
    pub backend: &'static str,
    /// The global memory bound `M` the run shared.
    pub capacity: u64,
    /// Sessions submitted (feasible + injected infeasible).
    pub submitted: usize,
    /// Admitted without queueing.
    pub admitted_immediate: usize,
    /// Admitted after waiting in the queue.
    pub admitted_queued: usize,
    /// Refused as infeasible.
    pub refused: usize,
    /// Intentionally infeasible submissions — must equal `refused`.
    pub expected_refusals: usize,
    /// Sessions whose granted budget fell below their feasibility floor
    /// — must be zero (an infeasible admission).
    pub underfloor_grants: usize,
    /// Sessions whose run errored.
    pub run_failures: usize,
    /// Measured aggregate arrival rate, sessions/second.
    pub arrival_rate: f64,
    /// Median admission wait, microseconds.
    pub wait_p50_us: u64,
    /// 99th-percentile admission wait, microseconds.
    pub wait_p99_us: u64,
    /// Wall-clock of the whole run, seconds.
    pub wall_seconds: f64,
    /// The service's final counters (peaks included).
    pub stats: ServiceStats,
}

impl LoadReport {
    /// CSV header matching [`LoadReport::csv_row`].
    pub fn csv_header() -> &'static str {
        "backend,capacity,tenants_peak,submitted,admitted_immediate,admitted_queued,\
         refused,expected_refusals,underfloor_grants,run_failures,peak_reserved,\
         arrival_rate,wait_p50_us,wait_p99_us,wall_seconds"
    }

    /// One CSV row of the aggregate outcome.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{:.1},{},{},{:.3}",
            self.backend,
            self.capacity,
            self.stats.peak_running,
            self.submitted,
            self.admitted_immediate,
            self.admitted_queued,
            self.refused,
            self.expected_refusals,
            self.underfloor_grants,
            self.run_failures,
            self.stats.peak_reserved,
            self.arrival_rate,
            self.wait_p50_us,
            self.wait_p99_us,
            self.wall_seconds,
        )
    }

    /// The acceptance gates, as human-readable violations (empty = pass):
    /// the concurrency target sustained, refusals exactly the injected
    /// infeasible set, no under-floor grant, no failed run, booking peak
    /// within the bound.
    pub fn violations(&self, spec: &LoadSpec) -> Vec<String> {
        let mut v = Vec::new();
        if self.stats.peak_running < spec.concurrency_target {
            v.push(format!(
                "{}: peak concurrent tenants {} below the target {}",
                self.backend, self.stats.peak_running, spec.concurrency_target
            ));
        }
        if self.refused != self.expected_refusals {
            v.push(format!(
                "{}: {} refusals for {} infeasible submissions",
                self.backend, self.refused, self.expected_refusals
            ));
        }
        if self.underfloor_grants > 0 {
            v.push(format!(
                "{}: {} sessions admitted below their feasibility floor",
                self.backend, self.underfloor_grants
            ));
        }
        if self.run_failures > 0 {
            v.push(format!(
                "{}: {} session runs failed",
                self.backend, self.run_failures
            ));
        }
        if self.stats.peak_reserved > self.capacity {
            v.push(format!(
                "{}: peak booked {} over the bound {}",
                self.backend, self.stats.peak_reserved, self.capacity
            ));
        }
        v
    }
}

/// One tenant thread's tallies.
#[derive(Default)]
struct TenantResult {
    immediate: usize,
    queued: usize,
    refused: usize,
    underfloor: usize,
    failures: usize,
    waits: Vec<Duration>,
}

/// Runs the load shape against one backend and aggregates the outcome.
///
/// The capacity is `concurrency_target · max(request)`, so that many
/// full requests always fit side by side — the concurrency gate measures
/// the service, not an under-provisioned machine — while `tenants`
/// exceeding the target still queue and exercise the rebalance path.
pub fn run_load(backend: SessionBackend, spec: &LoadSpec) -> LoadReport {
    assert!(spec.tenants >= spec.concurrency_target);
    // Tenant trees, their floors, and their (feasible) requested bounds:
    // 25% headroom over the floor keeps grants close to the floor so
    // concurrency is capacity-bound, not generosity-bound.
    let tenants: Vec<(Arc<TaskTree>, u64, u64)> = (0..spec.tenants)
        .map(|t| {
            let tree = Arc::new(memtree_gen::synthetic::paper_tree(
                spec.tree_nodes,
                spec.seed + t as u64,
            ));
            let floor = PolicySpec::new(HeuristicKind::MemBooking, 0).min_feasible(&tree);
            let requested = floor + floor / 4;
            (tree, floor, requested)
        })
        .collect();
    let max_request = tenants.iter().map(|&(_, _, r)| r).max().unwrap();
    let capacity = max_request * spec.concurrency_target as u64;

    let service = Arc::new(Service::start(
        ServiceConfig::new(capacity).with_backend(backend),
    ));
    let barrier = Arc::new(Barrier::new(spec.tenants));
    let pace = Duration::from_secs_f64(spec.tenants as f64 / spec.rate_per_sec.max(1.0));

    let started = Instant::now();
    let handles: Vec<std::thread::JoinHandle<TenantResult>> = tenants
        .iter()
        .enumerate()
        .map(|(t, (tree, floor, requested))| {
            let (tree, floor, requested) = (tree.clone(), *floor, *requested);
            let service = service.clone();
            let barrier = barrier.clone();
            let sessions = spec.sessions_per_tenant;
            std::thread::spawn(move || {
                let mut res = TenantResult::default();
                for s in 0..sessions {
                    if s == 0 {
                        // The first wave arrives simultaneously: the
                        // concurrency gate measures a real burst.
                        barrier.wait();
                    } else {
                        std::thread::sleep(pace);
                    }
                    let bound = if inject_infeasible(t, s) {
                        floor - 1
                    } else {
                        requested
                    };
                    let spec = PolicySpec::new(HeuristicKind::MemBooking, bound);
                    match service.submit(SessionRequest::new(spec, tree.clone())) {
                        Ok(ticket) => {
                            match ticket.admission {
                                Admission::Immediate { .. } => res.immediate += 1,
                                Admission::Queued { .. } => res.queued += 1,
                            }
                            let outcome = ticket.wait().expect("service stays up");
                            if outcome.budget < floor {
                                res.underfloor += 1;
                            }
                            if outcome.result.is_err() {
                                res.failures += 1;
                            }
                            res.waits.push(outcome.admission_wait);
                        }
                        Err(SubmitError::Infeasible(_)) => res.refused += 1,
                        Err(e) => panic!("tenant {t} session {s}: {e}"),
                    }
                }
                res
            })
        })
        .collect();

    let mut total = TenantResult::default();
    for h in handles {
        let r = h.join().expect("tenant thread");
        total.immediate += r.immediate;
        total.queued += r.queued;
        total.refused += r.refused;
        total.underfloor += r.underfloor;
        total.failures += r.failures;
        total.waits.extend(r.waits);
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    let service = Arc::try_unwrap(service).expect("all tenants joined");
    let stats = service.shutdown();

    total.waits.sort_unstable();
    let pct = |q: f64| -> u64 {
        if total.waits.is_empty() {
            return 0;
        }
        let i = ((total.waits.len() - 1) as f64 * q).round() as usize;
        total.waits[i].as_micros() as u64
    };
    let submitted = spec.tenants * spec.sessions_per_tenant;
    let expected_refusals = (0..spec.tenants)
        .flat_map(|t| (0..spec.sessions_per_tenant).map(move |s| (t, s)))
        .filter(|&(t, s)| inject_infeasible(t, s))
        .count();

    LoadReport {
        backend: backend.label(),
        capacity,
        submitted,
        admitted_immediate: total.immediate,
        admitted_queued: total.queued,
        refused: total.refused,
        expected_refusals,
        underfloor_grants: total.underfloor,
        run_failures: total.failures,
        arrival_rate: if wall_seconds > 0.0 {
            submitted as f64 / wall_seconds
        } else {
            0.0
        },
        wait_p50_us: pct(0.50),
        wait_p99_us: pct(0.99),
        wall_seconds,
        stats,
    }
}

/// The `fig17_service` experiment: the scale's load shape on the sim,
/// threaded and async session backends.
///
/// Prints one CSV row per backend plus a shape summary, and writes
/// `BENCH_service.json` into `out_dir` — arrival rate, admitted/refused
/// counts, p99 admission latency, peak booked — the artifact the
/// `service-smoke` CI job uploads.
///
/// # Errors
/// When the JSON cannot be written, or when any acceptance gate fails:
/// the concurrency target not sustained, a refusal count different from
/// the injected infeasible set, any under-floor grant, any failed run, or
/// a booking peak over the bound.
pub fn fig17_service(scale: Scale, out_dir: &Path) -> Result<(), String> {
    let spec = match scale {
        Scale::Quick => LoadSpec::quick(),
        Scale::Full => LoadSpec::full(),
    };
    // Sim sessions get a larger tree: virtual-time runs hold no real
    // resources, so wall-clock session lifetime — what the concurrency
    // gate needs to overlap — comes from tree size alone. The executor
    // backends sleep per task instead.
    let backends = [
        (
            SessionBackend::sim(4),
            LoadSpec {
                tree_nodes: spec.tree_nodes * 8,
                ..spec
            },
        ),
        (
            SessionBackend::Threaded {
                workers: 2,
                workload: Workload::quick(),
            },
            spec,
        ),
        (
            SessionBackend::Async {
                workers: 2,
                threads: 2,
                workload: Workload::quick_io(),
            },
            spec,
        ),
    ];

    let mut reports: Vec<LoadReport> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    for (backend, b_spec) in backends {
        let report = run_load(backend, &b_spec);
        violations.extend(report.violations(&b_spec));
        reports.push(report);
    }
    let rows: Vec<String> = reports.iter().map(LoadReport::csv_row).collect();
    crate::print_csv(LoadReport::csv_header(), &rows);

    for r in &reports {
        println!(
            "fig17 {}: {} tenants peak (target {}), {}/{} admitted ({} queued), \
             {} refused (expected {}), peak booked {}/{} ({:.0}% of M), \
             admission wait p50 {}µs p99 {}µs at {:.0} sessions/s",
            r.backend,
            r.stats.peak_running,
            spec.concurrency_target,
            r.admitted_immediate + r.admitted_queued,
            r.submitted,
            r.admitted_queued,
            r.refused,
            r.expected_refusals,
            r.stats.peak_reserved,
            r.capacity,
            100.0 * r.stats.peak_reserved as f64 / r.capacity as f64,
            r.wait_p50_us,
            r.wait_p99_us,
            r.arrival_rate,
        );
    }

    let entries: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"backend\": \"{}\",\n      \
                 \"capacity\": {},\n      \"submitted\": {},\n      \"admitted\": {},\n      \
                 \"queued\": {},\n      \"refused\": {},\n      \"expected_refusals\": {},\n      \
                 \"peak_tenants\": {},\n      \"peak_booked\": {},\n      \
                 \"arrival_rate\": {:.2},\n      \"wait_p50_us\": {},\n      \
                 \"wait_p99_us\": {},\n      \"wall_seconds\": {:.4}\n    }}",
                r.backend,
                r.capacity,
                r.submitted,
                r.admitted_immediate + r.admitted_queued,
                r.admitted_queued,
                r.refused,
                r.expected_refusals,
                r.stats.peak_running,
                r.stats.peak_reserved,
                r.arrival_rate,
                r.wait_p50_us,
                r.wait_p99_us,
                r.wall_seconds,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"tenants\": {},\n  \"sessions_per_tenant\": {},\n  \
         \"concurrency_target\": {},\n  \"backends\": [\n{}\n  ]\n}}\n",
        scale.label(),
        spec.tenants,
        spec.sessions_per_tenant,
        spec.concurrency_target,
        entries.join(",\n"),
    );
    crate::write_artifact(out_dir, "BENCH_service.json", &json)?;
    crate::gate(&violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature load run passes its own gates. The threaded backend
    /// with the sleeping workload keeps sessions alive for milliseconds,
    /// so the opening burst's concurrency is deterministic, not a race
    /// against scheduler jitter.
    #[test]
    fn quick_load_passes_its_gates() {
        let spec = LoadSpec {
            tenants: 4,
            sessions_per_tenant: 2,
            rate_per_sec: 1_000.0,
            tree_nodes: 400,
            seed: 99,
            concurrency_target: 3,
        };
        let backend = memtree_service::SessionBackend::Threaded {
            workers: 2,
            workload: memtree_runtime::Workload::quick(),
        };
        let report = run_load(backend, &spec);
        assert_eq!(report.violations(&spec), Vec::<String>::new());
        assert_eq!(report.submitted, 8);
        assert_eq!(
            report.admitted_immediate + report.admitted_queued + report.refused,
            report.submitted
        );
    }
}
