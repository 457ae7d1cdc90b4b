//! Per-tree experiment execution.
//!
//! A [`TreeCase`] is a corpus tree with its precomputed analysis plus one
//! held [`PolicyInstance`] per (kind, order pair). Holding them keeps the
//! tree's plans alive ([`memtree_sched::spec`]), so a parallel sweep
//! ([`crate::sweep::Sweep`]) fans cells out across cores while every
//! order, transform and activation-order layout of the tree is computed
//! once, and freed with the case.

use memtree_order::OrderKind;
use memtree_runtime::{AsyncPlatform, Platform, PlatformError, SimPlatform, ThreadedPlatform};
use memtree_sched::{HeuristicKind, LowerBounds, PolicyInstance, PolicySpec};
use memtree_tree::{TaskTree, TreeStats};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// A corpus tree with its precomputed analysis.
pub struct TreeCase {
    /// Human-readable name (CSV key).
    pub name: String,
    /// The tree itself.
    pub tree: TaskTree,
    /// Structural statistics.
    pub stats: TreeStats,
    /// Minimum memory: the peak of the peak-minimising postorder — the
    /// unit of the "normalized memory bound" axis.
    pub min_memory: u64,
    /// The instances [`TreeCase::instance`] hands out, one per (kind,
    /// orders); each call stamps its own bound on a copy.
    held: Mutex<HashMap<(HeuristicKind, OrderPair), PolicyInstance>>,
}

/// A pair of order kinds: activation and execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct OrderPair {
    /// Activation order (must be topological).
    pub ao: OrderKind,
    /// Execution priority.
    pub eo: OrderKind,
}

impl OrderPair {
    /// The paper's default: memPO for both.
    pub fn default_pair() -> Self {
        OrderPair {
            ao: OrderKind::MemPostorder,
            eo: OrderKind::MemPostorder,
        }
    }

    /// The six combinations of Figures 8 and 14.
    pub fn paper_combinations() -> Vec<OrderPair> {
        use OrderKind::*;
        vec![
            OrderPair {
                ao: MemPostorder,
                eo: MemPostorder,
            },
            OrderPair {
                ao: MemPostorder,
                eo: CriticalPath,
            },
            OrderPair {
                ao: OptSeq,
                eo: CriticalPath,
            },
            OrderPair {
                ao: OptSeq,
                eo: OptSeq,
            },
            OrderPair {
                ao: PerfPostorder,
                eo: CriticalPath,
            },
            OrderPair {
                ao: PerfPostorder,
                eo: PerfPostorder,
            },
        ]
    }

    /// Plot label, e.g. `memPO/CP`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.ao.label(), self.eo.label())
    }
}

/// An execution backend a sweep cell can run on — the sweep's backend
/// axis (`--backend sim,threaded,async,sharded:N,process:N` on the CLI).
///
/// `Sim` reports virtual-time makespans with paper-normalised lower
/// bounds; the execution backends (`Threaded`, `Async`, `Sharded`,
/// `Process`) report the run's wall-clock seconds and a `normalized` of
/// 0 — different clocks are different measurements.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The discrete-event simulator (virtual time) — the default.
    Sim,
    /// Real worker threads (`ThreadedPlatform`, wall-clock).
    Threaded,
    /// The futures-backed executor (`AsyncPlatform`, wall-clock) — the
    /// IO-bound regime.
    Async,
    /// The sharded forest platform with up to this many shard workers
    /// (≥ 1, wall-clock).
    Sharded(usize),
    /// The shard protocol over real worker *processes*
    /// (`ProcessPlatform`, wall-clock): up to this many worker processes
    /// (≥ 1), each fed its shard over a pipe.
    Process(usize),
}

impl Backend {
    /// CSV label: `sim`, `threaded`, `async`, `sharded:N`,
    /// `process:N`.
    pub fn label(&self) -> String {
        match self {
            Backend::Sim => "sim".into(),
            Backend::Threaded => "threaded".into(),
            Backend::Async => "async".into(),
            Backend::Sharded(n) => format!("sharded:{n}"),
            Backend::Process(n) => format!("process:{n}"),
        }
    }

    /// The canonical backend-scaling axis (`fig16_shards`): the simulator baseline, both single-machine
    /// execution backends, and the sharded platform at increasing shard
    /// counts.
    pub fn default_axis() -> Vec<Backend> {
        vec![
            Backend::Sim,
            Backend::Threaded,
            Backend::Async,
            Backend::Sharded(1),
            Backend::Sharded(2),
            Backend::Sharded(4),
            Backend::Sharded(8),
        ]
    }

    /// Parses one backend name: `sim`, `threaded`, `async`, `sharded:N`,
    /// or `process:N` (N ≥ 1). A bare `sharded`/`process` is rejected:
    /// the shard count is part of the name.
    ///
    /// # Errors
    /// On an unknown name or a malformed/zero shard count.
    pub fn parse(s: &str) -> Result<Backend, String> {
        fn counted(s: &str, prefix: &str) -> Option<usize> {
            s.strip_prefix(prefix)
                .and_then(|n| n.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
        }
        match s {
            "sim" => Ok(Backend::Sim),
            "threaded" => Ok(Backend::Threaded),
            "async" => Ok(Backend::Async),
            _ => {
                if let Some(n) = counted(s, "sharded:") {
                    Ok(Backend::Sharded(n))
                } else if let Some(n) = counted(s, "process:") {
                    Ok(Backend::Process(n))
                } else {
                    Err(format!(
                        "unknown backend {s:?} (sim|threaded|async|sharded:N|process:N)"
                    ))
                }
            }
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Outcome of one (tree × policy × p × memory factor) run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// False when the policy could not schedule under this bound
    /// (infeasible memory) — counted for the ≥95 % plotting rule.
    pub scheduled: bool,
    /// Absolute makespan (0 when not scheduled).
    pub makespan: f64,
    /// Makespan divided by the best lower bound (Section 6).
    pub normalized: f64,
    /// Peak actual memory / bound (Figures 4 and 12).
    pub memory_fraction: f64,
    /// Estimated wall-clock seconds spent in scheduler callbacks (Figures
    /// 5/6/13; sampled as [`memtree_sim::DriveStats::scheduling_seconds`]
    /// describes).
    pub scheduling_seconds: f64,
}

impl RunOutcome {
    fn unscheduled() -> Self {
        RunOutcome {
            scheduled: false,
            makespan: 0.0,
            normalized: 0.0,
            memory_fraction: 0.0,
            scheduling_seconds: 0.0,
        }
    }
}

impl TreeCase {
    /// Analyses `tree` (stats + memPO peak). The memPO instance is held
    /// from the start, so every later spec with a memPO order shares it.
    pub fn new(name: impl Into<String>, tree: TaskTree) -> Self {
        let case = TreeCase {
            name: name.into(),
            stats: TreeStats::compute(&tree),
            tree,
            min_memory: 0,
            held: Mutex::default(),
        };
        let mem_po = case.instance(HeuristicKind::MemBooking, OrderPair::default_pair(), 0);
        TreeCase {
            min_memory: mem_po.ao_peak().max(1),
            ..case
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when the tree is empty (never, for built cases).
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The memory bound for a normalized factor.
    pub fn memory_at(&self, factor: f64) -> u64 {
        ((self.min_memory as f64) * factor).ceil() as u64
    }

    /// Lower bounds at `(p, factor)`.
    pub fn lower_bounds(&self, processors: usize, factor: f64) -> LowerBounds {
        LowerBounds::compute_with_stats(&self.tree, &self.stats, processors, self.memory_at(factor))
    }

    /// The instance of `kind` under `orders` at bound `memory`. The first
    /// call per (kind, orders) instantiates it and holds it for the
    /// case's lifetime, so the tree's plan serves every later call — and
    /// every platform run's relay — without planning again: a sweep pays
    /// for the orders and the layout once per tree, not once per cell.
    pub fn instance(&self, kind: HeuristicKind, orders: OrderPair, memory: u64) -> PolicyInstance {
        let held = || self.held.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(hit) = held().get(&(kind, orders)) {
            return hit.with_memory(memory);
        }
        // Instantiated outside the lock: a racing thread shares the plan.
        let fresh = PolicySpec::new(kind, memory)
            .with_orders(orders.ao, orders.eo)
            .instantiate(&self.tree)
            .expect("a spec without caps instantiates on a corpus tree");
        held()
            .entry((kind, orders))
            .or_insert(fresh)
            .with_memory(memory)
    }
}

/// Runs `kind` on `case` at `(orders, p, factor)` on the simulator and
/// reports the outcome.
///
/// Every [`HeuristicKind`] is runnable here — `MemBookingRedTree`
/// schedules its transformed tree behind the same call. Infeasible memory
/// (construction refusal) yields `RunOutcome::scheduled == false`,
/// matching the paper's "unable to schedule within the bound" accounting;
/// RedTree's normalized makespan is measured against the *original* tree's
/// lower bounds (fictitious tasks take zero time, so makespans are
/// comparable).
pub fn run_heuristic(
    case: &TreeCase,
    kind: HeuristicKind,
    orders: OrderPair,
    processors: usize,
    factor: f64,
) -> RunOutcome {
    run_heuristic_backend(case, kind, orders, processors, factor, Backend::Sim)
}

/// Runs `kind` on `case` through the execution `backend` — the cell
/// dispatch behind the sweep's backend axis.
///
/// `Backend::Sim` is [`run_heuristic`] (virtual-time makespan, normalised
/// against the lower bounds). The execution backends report the run's
/// wall-clock seconds with `normalized` 0 (virtual-time lower bounds do
/// not apply):
///
/// * `Threaded` runs `processors` real worker threads;
/// * `Async` runs `processors` logical workers as futures on the
///   platform's default executor-thread count;
/// * `Sharded(s)` runs up to `min(s, processors)` shard workers of
///   `⌊processors / shard count⌋` threads each — never more threads than
///   the cell's processor budget (non-dividing counts idle the remainder
///   rather than oversubscribe);
/// * `Process(s)` splits exactly like `Sharded(s)` but each shard runs in
///   a real worker process behind the wire protocol — the cost of the
///   serialise/spawn/pipe round trip is part of the measurement. The
///   worker binary is resolved beside the current executable (both land
///   in `target/<profile>/`) or via `MEMTREE_WORKER_BIN`.
///
/// Infeasible memory — a construction refusal or a sharded budget split
/// that cannot fit — counts as unscheduled on every backend.
pub fn run_heuristic_backend(
    case: &TreeCase,
    kind: HeuristicKind,
    orders: OrderPair,
    processors: usize,
    factor: f64,
    backend: Backend,
) -> RunOutcome {
    let memory = case.memory_at(factor);
    let run = |platform: &dyn Platform| run_on_platform(case, platform, kind, orders, factor);
    let spec = PolicySpec::new(kind, memory).with_orders(orders.ao, orders.eo);
    let shards = |s: usize| s.min(processors).max(1);
    let report = match backend {
        Backend::Sim => run(&SimPlatform::new(processors)),
        Backend::Threaded => run(&ThreadedPlatform::new(processors.max(1))),
        Backend::Async => run(&AsyncPlatform::new(processors.max(1))),
        Backend::Sharded(s) => memtree_runtime::ShardedPlatform::new(shards(s))
            .with_workers_per_shard(processors / shards(s))
            .run(&case.tree, &spec),
        Backend::Process(s) => memtree_runtime::ProcessPlatform::new(shards(s))
            .with_workers_per_shard((processors / shards(s)).max(1))
            .run(&case.tree, &spec),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) if e.is_infeasible() => return RunOutcome::unscheduled(),
        Err(e) => panic!(
            "{}: {kind} on {backend} must not fail mid-run: {e}",
            case.name
        ),
    };
    let (makespan, normalized) = match backend {
        Backend::Sim => {
            let lb = case.lower_bounds(processors, factor);
            (report.makespan, report.makespan / lb.best())
        }
        _ => (report.wall_seconds, 0.0),
    };
    RunOutcome {
        scheduled: true,
        makespan,
        normalized,
        memory_fraction: if memory == 0 {
            0.0
        } else {
            report.peak_actual as f64 / memory as f64
        },
        scheduling_seconds: report.scheduling_seconds,
    }
}

/// A corpus as a *source* of [`TreeCase`]s rather than a materialised
/// slice: each case is either ready (already built) or a builder closure
/// that realises it on demand.
///
/// This is what lets [`crate::Sweep`] stream: a lazy source holds only
/// cheap descriptors (a seed, a grid side), the sweep builds the cases of
/// its current in-flight window, and drops each case as soon as its last
/// cell completes — peak RSS is proportional to the window, not the
/// corpus. Builders must be deterministic (same index, same case).
///
/// Cloning is cheap (`Arc`-shared entries) and never re-runs builders.
#[derive(Clone, Default)]
pub struct CaseSource {
    entries: Vec<CaseEntry>,
}

#[derive(Clone)]
enum CaseEntry {
    Ready(Arc<TreeCase>),
    Lazy(Arc<dyn Fn() -> TreeCase + Send + Sync>),
}

impl CaseSource {
    /// An empty source; push cases or builders into it.
    pub fn new() -> Self {
        CaseSource::default()
    }

    /// A source over already-built cases (no streaming benefit, full API
    /// compatibility — what tests and small experiments use).
    pub fn from_cases(cases: Vec<TreeCase>) -> Self {
        CaseSource {
            entries: cases
                .into_iter()
                .map(|c| CaseEntry::Ready(Arc::new(c)))
                .collect(),
        }
    }

    /// Appends a ready case.
    pub fn push_case(&mut self, case: TreeCase) {
        self.entries.push(CaseEntry::Ready(Arc::new(case)));
    }

    /// Appends a lazy builder realised on demand by [`CaseSource::build`].
    pub fn push_lazy(&mut self, build: impl Fn() -> TreeCase + Send + Sync + 'static) {
        self.entries.push(CaseEntry::Lazy(Arc::new(build)));
    }

    /// Number of cases.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the source is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Realises case `index`: clones the `Arc` for ready cases, runs the
    /// builder for lazy ones. Lazy builds are *not* memoised — dropping
    /// the returned `Arc` frees the tree, which is the point.
    pub fn build(&self, index: usize) -> Arc<TreeCase> {
        match &self.entries[index] {
            CaseEntry::Ready(c) => c.clone(),
            CaseEntry::Lazy(f) => Arc::new(f()),
        }
    }

    /// Streams the cases one at a time in corpus order — for sequential
    /// consumers (corpus tables, per-tree statistics) that want bounded
    /// memory without the sweep machinery.
    pub fn iter(&self) -> impl Iterator<Item = Arc<TreeCase>> + '_ {
        (0..self.len()).map(|i| self.build(i))
    }
}

impl From<Vec<TreeCase>> for CaseSource {
    fn from(cases: Vec<TreeCase>) -> Self {
        CaseSource::from_cases(cases)
    }
}

impl FromIterator<TreeCase> for CaseSource {
    fn from_iter<I: IntoIterator<Item = TreeCase>>(iter: I) -> Self {
        CaseSource::from_cases(iter.into_iter().collect())
    }
}

impl std::fmt::Debug for CaseSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ready = self
            .entries
            .iter()
            .filter(|e| matches!(e, CaseEntry::Ready(_)))
            .count();
        f.debug_struct("CaseSource")
            .field("cases", &self.len())
            .field("ready", &ready)
            .field("lazy", &(self.len() - ready))
            .finish()
    }
}

/// Convenience wrapper: runs `kind` on any [`Platform`] (not just the
/// simulator), using the case's held instances.
pub fn run_on_platform(
    case: &TreeCase,
    platform: &dyn Platform,
    kind: HeuristicKind,
    orders: OrderPair,
    factor: f64,
) -> Result<memtree_runtime::RunReport, PlatformError> {
    let instance = case.instance(kind, orders, case.memory_at(factor));
    platform.run_instance(&case.tree, &instance)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case() -> TreeCase {
        TreeCase::new("t", memtree_gen::synthetic::paper_tree(300, 5))
    }

    #[test]
    fn membooking_dominates_activation_under_pressure() {
        let c = case();
        let p = 8;
        let mb = run_heuristic(
            &c,
            HeuristicKind::MemBooking,
            OrderPair::default_pair(),
            p,
            1.5,
        );
        let ac = run_heuristic(
            &c,
            HeuristicKind::Activation,
            OrderPair::default_pair(),
            p,
            1.5,
        );
        assert!(mb.scheduled && ac.scheduled);
        assert!(
            mb.makespan <= ac.makespan * 1.02,
            "MemBooking {} should not lose to Activation {}",
            mb.makespan,
            ac.makespan
        );
    }

    #[test]
    fn factor_one_always_schedulable_for_membooking() {
        let c = case();
        let out = run_heuristic(
            &c,
            HeuristicKind::MemBooking,
            OrderPair::default_pair(),
            4,
            1.0,
        );
        assert!(out.scheduled);
        assert!(out.normalized >= 1.0 - 1e-9, "makespan below a lower bound");
    }

    #[test]
    fn redtree_runs_or_reports_infeasible() {
        let c = case();
        let pair = OrderPair::default_pair();
        let tight = run_heuristic(&c, HeuristicKind::MemBookingRedTree, pair, 4, 1.0);
        let roomy = run_heuristic(&c, HeuristicKind::MemBookingRedTree, pair, 4, 20.0);
        // Under a huge bound it must schedule; under factor 1 it usually
        // cannot (transform inflation).
        assert!(roomy.scheduled);
        if tight.scheduled {
            assert!(tight.makespan >= roomy.makespan);
        }
    }

    #[test]
    fn order_cache_returns_same_instance() {
        let c = case();
        let cp = OrderPair {
            ao: OrderKind::CriticalPath,
            eo: OrderKind::CriticalPath,
        };
        let a = c.instance(HeuristicKind::MemBooking, cp, 1);
        let b = c.instance(HeuristicKind::Activation, cp, 2);
        assert!(std::ptr::eq(a.ao(), b.ao()));
        // The memPO order of `TreeCase::new` serves every memPO pair.
        let pair = OrderPair {
            ao: OrderKind::MemPostorder,
            eo: OrderKind::CriticalPath,
        };
        let mem_po = c.instance(HeuristicKind::MemBooking, OrderPair::default_pair(), 1);
        let mixed = c.instance(HeuristicKind::Sequential, pair, 1);
        assert!(std::ptr::eq(mem_po.ao(), mixed.ao()));
        assert!(std::ptr::eq(a.eo(), mixed.eo()), "CP once, as AO or as EO");
    }

    #[test]
    fn relaid_instances_are_cached_per_kind_and_orders() {
        let c = case();
        let pair = OrderPair::default_pair();
        let relaid = |kind, factor| {
            let instance = c.instance(kind, pair, c.memory_at(factor));
            instance.relaid(&c.tree).unwrap()
        };
        let a = relaid(HeuristicKind::MemBooking, 1.0);
        let b = relaid(HeuristicKind::MemBooking, 2.0);
        assert!(std::ptr::eq(a.exec_tree(&c.tree), b.exec_tree(&c.tree)));
        assert_eq!(b.memory(), c.memory_at(2.0), "each cell's own bound");
        // The platform's relayout of a relaid instance is a clone.
        let again = b.relaid(&c.tree).unwrap();
        assert!(std::ptr::eq(again.exec_tree(&c.tree), b.exec_tree(&c.tree)));
        // The layout belongs to the order pair: every kind shares it, and
        // another pair has its own.
        let other = relaid(HeuristicKind::Activation, 1.0);
        assert!(std::ptr::eq(other.exec_tree(&c.tree), a.exec_tree(&c.tree)));
        let cp = OrderPair {
            ao: OrderKind::MemPostorder,
            eo: OrderKind::CriticalPath,
        };
        let apart = c
            .instance(HeuristicKind::MemBooking, cp, 1)
            .relaid(&c.tree)
            .unwrap();
        assert!(!std::ptr::eq(
            apart.exec_tree(&c.tree),
            a.exec_tree(&c.tree)
        ));
    }

    #[test]
    fn tree_case_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<TreeCase>();
        assert_sync::<CaseSource>();
    }

    #[test]
    fn case_source_builds_lazily_and_deterministically() {
        let mut source = CaseSource::new();
        source.push_case(case());
        source.push_lazy(|| TreeCase::new("lazy", memtree_gen::synthetic::paper_tree(120, 9)));
        assert_eq!(source.len(), 2);
        let a = source.build(1);
        let b = source.build(1);
        assert_eq!(a.name, "lazy");
        assert_eq!(a.tree.content_hash(), b.tree.content_hash());
        assert!(!Arc::ptr_eq(&a, &b), "lazy builds are not memoised");
        // Ready entries share one Arc.
        assert!(Arc::ptr_eq(&source.build(0), &source.build(0)));
        // Clones share entries without re-running builders on ready cases.
        let clone = source.clone();
        assert!(Arc::ptr_eq(&source.build(0), &clone.build(0)));
        assert_eq!(clone.iter().count(), 2);
    }

    #[test]
    fn threaded_platform_runs_a_case() {
        let c = case();
        let report = run_on_platform(
            &c,
            &memtree_runtime::ThreadedPlatform::new(2),
            HeuristicKind::MemBooking,
            OrderPair::default_pair(),
            1.0,
        )
        .unwrap();
        assert_eq!(report.tasks_run, c.len());
    }
}
