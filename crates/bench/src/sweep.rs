//! **`Sweep`** — streaming scenario grids fanned out over all cores
//! (DESIGN.md §6.5).
//!
//! A sweep is the cartesian product (trees × policies × order pairs ×
//! processor counts × execution backends × memory factors); every figure
//! in the paper is an aggregation over such a grid (the backend axis
//! defaults to the simulator). [`Sweep::run`] *streams*: trees come from
//! a [`CaseSource`] and are realised in a bounded in-flight window —
//! while one window's cells execute on every core, the next window's
//! trees generate concurrently, and each case is dropped as soon as its
//! last cell completes. Peak RSS is O(window), not O(corpus), so
//! full-scale sweeps (100k-node trees × thousands of cells) run under the
//! same out-of-core discipline the paper's schedulers study. Cells come
//! back in deterministic grid order regardless of which thread ran them.

use crate::runner::{run_heuristic_backend, Backend, CaseSource, OrderPair, RunOutcome, TreeCase};
use memtree_sched::HeuristicKind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One point of the scenario grid with its outcome.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Index of the tree in the sweep's case source.
    pub case_index: usize,
    /// The tree's name (CSV key).
    pub tree: String,
    /// Policy run in this cell.
    pub kind: HeuristicKind,
    /// Order pair used.
    pub pair: OrderPair,
    /// Processor count.
    pub processors: usize,
    /// Execution backend the cell ran on.
    pub backend: Backend,
    /// Normalized memory factor.
    pub factor: f64,
    /// What happened.
    pub outcome: RunOutcome,
}

/// Per-tree structural metadata recorded by the sweep, so figures can
/// aggregate by tree size/height after the tree itself has been dropped.
#[derive(Clone, Debug)]
pub struct CaseMeta {
    /// The tree's name (CSV key).
    pub name: String,
    /// Node count.
    pub nodes: usize,
    /// Tree height.
    pub height: u32,
    /// Minimum memory (the unit of the memory-factor axis).
    pub min_memory: u64,
}

/// Result of a sweep: the cells in grid order plus execution metadata.
#[derive(Debug)]
pub struct SweepReport {
    /// All cells, ordered (case, kind, pair, processors, backend,
    /// factor) — innermost index varies fastest.
    pub cells: Vec<SweepCell>,
    /// Structural metadata of every case, in case order.
    pub cases: Vec<CaseMeta>,
    /// The most worker threads that executed cells at once: the maximum
    /// over the windows of the workers that claimed at least one cell
    /// (≥ 2 on multicore machines for non-trivial grids, never above the
    /// available parallelism).
    pub threads_used: usize,
    // The grid axes, kept so lookups are index arithmetic instead of
    // scans.
    kinds: Vec<HeuristicKind>,
    pairs: Vec<OrderPair>,
    processors: Vec<usize>,
    backends: Vec<Backend>,
    factors: Vec<f64>,
}

impl SweepReport {
    /// Number of trees the sweep covered.
    pub fn case_count(&self) -> usize {
        self.cases.len()
    }

    /// The cell for an exact grid point at the sweep's *first* backend
    /// (the whole axis for the common single-backend sweep); use
    /// [`SweepReport::cell_at`] to address other backends.
    /// O(axis lengths): computes the position from the grid order.
    pub fn cell(
        &self,
        case_index: usize,
        kind: HeuristicKind,
        pair: OrderPair,
        processors: usize,
        factor: f64,
    ) -> Option<&SweepCell> {
        self.cell_at(case_index, kind, pair, processors, self.backends[0], factor)
    }

    /// The cell for an exact grid point, every axis explicit.
    pub fn cell_at(
        &self,
        case_index: usize,
        kind: HeuristicKind,
        pair: OrderPair,
        processors: usize,
        backend: Backend,
        factor: f64,
    ) -> Option<&SweepCell> {
        if case_index >= self.case_count() {
            return None;
        }
        let k = self.kinds.iter().position(|&x| x == kind)?;
        let o = self.pairs.iter().position(|&x| x == pair)?;
        let p = self.processors.iter().position(|&x| x == processors)?;
        let b = self.backends.iter().position(|&x| x == backend)?;
        let f = self.factors.iter().position(|&x| x == factor)?;
        let idx = ((((case_index * self.kinds.len() + k) * self.pairs.len() + o)
            * self.processors.len()
            + p)
            * self.backends.len()
            + b)
            * self.factors.len()
            + f;
        let cell = self.cells.get(idx)?;
        debug_assert!(
            cell.case_index == case_index
                && cell.kind == kind
                && cell.pair == pair
                && cell.processors == processors
                && cell.backend == backend
                && cell.factor == factor
        );
        Some(cell)
    }

    /// The cells of one full series — a fixed `(kind, pair, processors,
    /// factor)` point across every tree, in tree order, at the sweep's
    /// first backend (see [`SweepReport::series_at`]). The axes are
    /// explicit so multi-axis sweeps cannot silently merge series.
    pub fn series(
        &self,
        kind: HeuristicKind,
        pair: OrderPair,
        processors: usize,
        factor: f64,
    ) -> impl Iterator<Item = &SweepCell> + '_ {
        self.series_at(kind, pair, processors, self.backends[0], factor)
    }

    /// The cells of one full series with the backend explicit.
    pub fn series_at(
        &self,
        kind: HeuristicKind,
        pair: OrderPair,
        processors: usize,
        backend: Backend,
        factor: f64,
    ) -> impl Iterator<Item = &SweepCell> + '_ {
        (0..self.case_count())
            .filter_map(move |ci| self.cell_at(ci, kind, pair, processors, backend, factor))
    }

    /// The header matching [`SweepReport::cell_rows`].
    pub fn cell_csv_header() -> &'static str {
        "tree,heuristic,ao_eo,processors,backend,memory_factor,scheduled,makespan,normalized,\
         memory_fraction,scheduling_seconds"
    }

    /// A full CSV dump of every cell, in grid order.
    pub fn cell_rows(&self) -> Vec<String> {
        self.cells
            .iter()
            .map(|c| {
                format!(
                    "{},{},{},{},{},{},{},{},{},{},{}",
                    c.tree,
                    c.kind.label(),
                    c.pair.label(),
                    c.processors,
                    c.backend.label(),
                    c.factor,
                    u8::from(c.outcome.scheduled),
                    c.outcome.makespan,
                    c.outcome.normalized,
                    c.outcome.memory_fraction,
                    c.outcome.scheduling_seconds,
                )
            })
            .collect()
    }

    /// [`SweepReport::cell_rows`] with the trailing wall-clock
    /// `scheduling_seconds` column stripped — what equivalence tests
    /// compare, since timing is nondeterministic between runs.
    ///
    /// # Errors
    /// On any row that does not have the header's column count — a
    /// malformed row must fail loudly, never be silently truncated at the
    /// wrong comma.
    pub fn untimed_rows(&self) -> Result<Vec<String>, String> {
        self.cell_rows().iter().map(|r| untimed_row(r)).collect()
    }
}

/// Strips the trailing timing column from one [`SweepReport::cell_rows`]
/// row, verifying the row's shape first.
///
/// # Errors
/// When the row's column count differs from
/// [`SweepReport::cell_csv_header`]'s — truncated or malformed rows
/// surface a loud error instead of panicking (or worse, comparing a
/// mis-stripped prefix).
pub fn untimed_row(row: &str) -> Result<String, String> {
    let expected = SweepReport::cell_csv_header().split(',').count();
    let columns = row.split(',').count();
    if columns != expected {
        return Err(format!(
            "malformed sweep row: {columns} columns where the header has {expected}: {row:?}"
        ));
    }
    let (kept, _timing) = row
        .rsplit_once(',')
        .expect("a multi-column row contains a comma");
    Ok(kept.to_string())
}

/// A declarative scenario grid over a [`CaseSource`].
///
/// ```
/// use memtree_bench::{CaseSource, Sweep, TreeCase};
/// use memtree_sched::HeuristicKind;
///
/// let source: CaseSource = (0..2)
///     .map(|s| TreeCase::new(format!("t{s}"), memtree_gen::synthetic::paper_tree(120, s)))
///     .collect();
/// let report = Sweep::new(&source)
///     .kinds(vec![HeuristicKind::MemBooking, HeuristicKind::Activation])
///     .factors(vec![1.0, 2.0])
///     .processors(vec![4])
///     .run();
/// assert_eq!(report.cells.len(), 2 * 2 * 2);
/// ```
pub struct Sweep<'a> {
    source: &'a CaseSource,
    kinds: Vec<HeuristicKind>,
    pairs: Vec<OrderPair>,
    processors: Vec<usize>,
    backends: Vec<Backend>,
    factors: Vec<f64>,
    window: usize,
}

impl<'a> Sweep<'a> {
    /// A sweep over `source` with the paper's defaults: MemBooking,
    /// memPO/memPO, 8 processors, the simulator backend, memory factor 2,
    /// a window of one case per available core (at least two).
    pub fn new(source: &'a CaseSource) -> Self {
        Sweep {
            source,
            kinds: vec![HeuristicKind::MemBooking],
            pairs: vec![OrderPair::default_pair()],
            processors: vec![8],
            backends: vec![Backend::Sim],
            factors: vec![2.0],
            window: available_threads().max(2),
        }
    }

    /// Sets the policies axis.
    ///
    /// # Panics
    /// On an empty axis: a sweep with an empty axis has zero cells and
    /// every per-case index becomes undefined, so it is rejected at
    /// construction instead of silently reporting `case_count() == 0`.
    pub fn kinds(mut self, kinds: Vec<HeuristicKind>) -> Self {
        assert!(!kinds.is_empty(), "Sweep: empty policy axis");
        self.kinds = kinds;
        self
    }

    /// Sets the order-pair axis.
    ///
    /// # Panics
    /// On an empty axis (see [`Sweep::kinds`]).
    pub fn pairs(mut self, pairs: Vec<OrderPair>) -> Self {
        assert!(!pairs.is_empty(), "Sweep: empty order-pair axis");
        self.pairs = pairs;
        self
    }

    /// Sets the processor-count axis.
    ///
    /// # Panics
    /// On an empty axis (see [`Sweep::kinds`]).
    pub fn processors(mut self, processors: Vec<usize>) -> Self {
        assert!(!processors.is_empty(), "Sweep: empty processor axis");
        self.processors = processors;
        self
    }

    /// Sets the execution-backend axis — the `--backend` sweep axis of
    /// the shared CLI (`sim|threaded|sharded|async`).
    ///
    /// # Panics
    /// On an empty axis (see [`Sweep::kinds`]).
    pub fn backends(mut self, backends: Vec<Backend>) -> Self {
        assert!(!backends.is_empty(), "Sweep: empty backend axis");
        self.backends = backends;
        self
    }

    /// Sets the memory-factor axis.
    ///
    /// # Panics
    /// On an empty axis (see [`Sweep::kinds`]).
    pub fn factors(mut self, factors: Vec<f64>) -> Self {
        assert!(!factors.is_empty(), "Sweep: empty memory-factor axis");
        self.factors = factors;
        self
    }

    /// Sets the in-flight case window: at most `window` cases (plus the
    /// window being generated) are alive at once.
    ///
    /// # Panics
    /// When `window == 0`.
    #[cfg(test)]
    fn window(mut self, window: usize) -> Self {
        assert!(window >= 1, "Sweep: the in-flight window must be ≥ 1");
        self.window = window;
        self
    }

    /// Number of grid cells this sweep will run.
    pub fn cell_count(&self) -> usize {
        self.source.len() * self.cells_per_case()
    }

    fn cells_per_case(&self) -> usize {
        self.kinds.len()
            * self.pairs.len()
            * self.processors.len()
            * self.backends.len()
            * self.factors.len()
    }

    /// Runs every cell; cells return in grid order.
    ///
    /// Streaming: the source's cases are realised `window` at a time; the
    /// cells of the current window fan out over every core while one more
    /// scoped thread generates the next window's trees, and each window is
    /// dropped wholesale once its cells are in — so peak RSS tracks the
    /// window, not the corpus.
    pub fn run(&self) -> SweepReport {
        let n = self.source.len();
        let per_case = self.cells_per_case();
        let mut threads_used = 0;
        let mut cells: Vec<SweepCell> = Vec::with_capacity(n * per_case);
        let mut cases: Vec<CaseMeta> = Vec::with_capacity(n);
        let mut start = 0usize;
        // The initial window builds in parallel — nothing competes yet.
        let (mut current, _) = par_map(self.window.min(n), |i| self.source.build(i));
        while start < n {
            let end = start + current.len();
            let next_range = end..(end + self.window).min(n);
            let (window_cells, next) = std::thread::scope(|scope| {
                // The next window generates on one extra thread while every
                // core executes cells — sequential there, so the two sides
                // never oversubscribe the machine 2×.
                let next =
                    scope.spawn(|| next_range.map(|i| self.source.build(i)).collect::<Vec<_>>());
                let cells = par_map(current.len() * per_case, |flat| {
                    let (local, rest) = (flat / per_case, flat % per_case);
                    self.run_cell(start + local, &current[local], rest)
                });
                (cells, joined(next))
            });
            let (window_cells, workers) = window_cells;
            threads_used = threads_used.max(workers);
            cases.extend(current.iter().map(|c| CaseMeta {
                name: c.name.clone(),
                nodes: c.len(),
                height: c.stats.height,
                min_memory: c.min_memory,
            }));
            cells.extend(window_cells);
            current = next; // the finished window drops here
            start = end;
        }

        SweepReport {
            cells,
            cases,
            threads_used,
            kinds: self.kinds.clone(),
            pairs: self.pairs.clone(),
            processors: self.processors.clone(),
            backends: self.backends.clone(),
            factors: self.factors.clone(),
        }
    }

    /// Executes the cell at flat in-case offset `rest`.
    fn run_cell(&self, case_index: usize, case: &TreeCase, rest: usize) -> SweepCell {
        // Decompose in grid order: factor varies fastest.
        let f = rest % self.factors.len();
        let rest = rest / self.factors.len();
        let b = rest % self.backends.len();
        let rest = rest / self.backends.len();
        let p = rest % self.processors.len();
        let rest = rest / self.processors.len();
        let o = rest % self.pairs.len();
        let k = rest / self.pairs.len();
        let (kind, pair) = (self.kinds[k], self.pairs[o]);
        let (processors, backend, factor) = (self.processors[p], self.backends[b], self.factors[f]);
        SweepCell {
            case_index,
            tree: case.name.clone(),
            kind,
            pair,
            processors,
            backend,
            factor,
            outcome: run_heuristic_backend(case, kind, pair, processors, factor, backend),
        }
    }
}

/// Threads a sweep fans out over: the machine's available parallelism.
fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(0..n).map(f)` on up to [`available_threads`] scoped threads, results
/// in index order, plus how many workers claimed at least one index.
/// Indices are claimed one at a time, so unevenly sized cells still
/// balance across cores.
fn par_map<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> (Vec<R>, usize) {
    let workers = available_threads().min(n);
    if workers <= 1 {
        return ((0..n).map(f).collect(), workers);
    }
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut out = Vec::new();
        loop {
            // ordering: Relaxed — allocates a unique index only; the inputs
            // are shared read-only and the results come back through join.
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return out;
            }
            out.push((i, f(i)));
        }
    };
    let claimed: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
        spawned.into_iter().map(joined).collect()
    });
    let active = claimed.iter().filter(|out| !out.is_empty()).count();
    let mut results: Vec<(usize, R)> = claimed.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    (results.into_iter().map(|(_, r)| r).collect(), active)
}

/// Joins a scoped thread, re-raising its panic on the caller.
fn joined<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cases(n: usize) -> CaseSource {
        (0..n)
            .map(|s| {
                TreeCase::new(
                    format!("sweep-{s}"),
                    memtree_gen::synthetic::paper_tree(200, 60 + s as u64),
                )
            })
            .collect()
    }

    /// A lazy source of `n` synthetic trees — exercises the streaming
    /// path (cases built inside `run`, dropped per window).
    fn lazy_cases(n: usize) -> CaseSource {
        let mut source = CaseSource::new();
        for s in 0..n {
            source.push_lazy(move || {
                TreeCase::new(
                    format!("sweep-{s}"),
                    memtree_gen::synthetic::paper_tree(200, 60 + s as u64),
                )
            });
        }
        source
    }

    #[test]
    fn grid_is_complete_and_ordered() {
        let cs = cases(2);
        let report = Sweep::new(&cs)
            .kinds(vec![HeuristicKind::MemBooking, HeuristicKind::Activation])
            .factors(vec![1.0, 3.0])
            .processors(vec![4])
            .run();
        assert_eq!(report.cells.len(), 2 * 2 * 2);
        // Grid order: case-major, factor innermost.
        assert_eq!(report.cells[0].case_index, 0);
        assert_eq!(report.cells[0].factor, 1.0);
        assert_eq!(report.cells[1].factor, 3.0);
        assert_eq!(report.cells[4].case_index, 1);
        // Feasible policies at these factors all schedule.
        assert!(report.cells.iter().all(|c| c.outcome.scheduled));
    }

    #[test]
    fn streaming_windows_match_materialised_run() {
        // The same grid through a lazy source with a tiny window must
        // produce identical cells (order and outcomes) to the eager run.
        let eager = cases(5);
        let lazy = lazy_cases(5);
        let run = |src: &CaseSource, window: usize| {
            Sweep::new(src)
                .kinds(vec![HeuristicKind::MemBooking, HeuristicKind::Activation])
                .factors(vec![1.5, 3.0])
                .processors(vec![2])
                .window(window)
                .run()
        };
        let a = run(&eager, 64);
        let b = run(&lazy, 2);
        let c = run(&lazy, 1);
        // scheduling_seconds is wall-clock (nondeterministic between
        // runs); every simulated quantity must match exactly.
        let sans_timing = |r: &SweepReport| r.untimed_rows().expect("well-formed rows");
        assert_eq!(sans_timing(&a), sans_timing(&b));
        assert_eq!(sans_timing(&a), sans_timing(&c));
        assert_eq!(b.case_count(), 5);
        assert_eq!(b.cases[3].name, "sweep-3");
        assert!(b.cases[3].nodes > 0 && b.cases[3].min_memory > 0);
    }

    #[test]
    fn acceptance_grid_runs_multithreaded() {
        // The acceptance scenario: ≥ 2 trees × 4 policies × 2 memory
        // factors, all policy kinds first-class (including RedTree).
        let cs = cases(2);
        let report = Sweep::new(&cs)
            .kinds(vec![
                HeuristicKind::Activation,
                HeuristicKind::MemBooking,
                HeuristicKind::MemBookingRef,
                HeuristicKind::MemBookingRedTree,
            ])
            .factors(vec![2.0, 30.0])
            .processors(vec![4])
            .run();
        assert_eq!(report.cells.len(), 2 * 4 * 2);
        // Every policy schedules at the roomy factor (30× minimum).
        for cell in report.cells.iter().filter(|c| c.factor == 30.0) {
            assert!(cell.outcome.scheduled, "{} at 30x", cell.kind);
        }
        if available_threads() > 1 {
            assert!(
                report.threads_used > 1,
                "sweep should use multiple threads, used {}",
                report.threads_used
            );
        }
    }

    #[test]
    fn threads_used_counts_concurrent_workers_not_thread_ids() {
        // Three windows, each fanned out over freshly spawned threads: the
        // report counts the workers of one window, not every thread id the
        // sweep ever saw.
        let cs = lazy_cases(6);
        let report = Sweep::new(&cs)
            .kinds(vec![HeuristicKind::MemBooking, HeuristicKind::Activation])
            .factors(vec![1.5, 3.0])
            .processors(vec![2, 4])
            .window(2)
            .run();
        assert!(report.threads_used <= available_threads());
        if available_threads() > 1 {
            assert!(report.threads_used > 1, "used {}", report.threads_used);
        }
    }

    #[test]
    fn series_and_cell_lookups() {
        let cs = cases(2);
        let report = Sweep::new(&cs).factors(vec![1.5]).processors(vec![2]).run();
        let pair = OrderPair::default_pair();
        assert_eq!(report.case_count(), 2);
        assert_eq!(
            report
                .series(HeuristicKind::MemBooking, pair, 2, 1.5)
                .count(),
            2
        );
        let cell = report
            .cell(1, HeuristicKind::MemBooking, pair, 2, 1.5)
            .expect("cell exists");
        assert_eq!(cell.tree, "sweep-1");
        // Off-grid points are None, not a wrong cell.
        assert!(report
            .cell(1, HeuristicKind::Sequential, pair, 2, 1.5)
            .is_none());
        assert!(report
            .cell(1, HeuristicKind::MemBooking, pair, 8, 1.5)
            .is_none());
        assert!(report
            .cell(5, HeuristicKind::MemBooking, pair, 2, 1.5)
            .is_none());
    }

    #[test]
    fn multi_axis_grids_keep_series_separate() {
        let cs = cases(2);
        let pairs = vec![
            OrderPair::default_pair(),
            OrderPair {
                ao: memtree_order::OrderKind::MemPostorder,
                eo: memtree_order::OrderKind::CriticalPath,
            },
        ];
        let report = Sweep::new(&cs)
            .pairs(pairs.clone())
            .processors(vec![2, 4])
            .factors(vec![2.0])
            .run();
        // Each (pair, p) series sees exactly one cell per tree.
        for &pair in &pairs {
            for &p in &[2usize, 4] {
                let cells: Vec<_> = report
                    .series(HeuristicKind::MemBooking, pair, p, 2.0)
                    .collect();
                assert_eq!(cells.len(), 2);
                assert!(cells.iter().all(|c| c.pair == pair && c.processors == p));
            }
        }
    }

    #[test]
    fn shard_axis_runs_both_backends() {
        let cs = cases(2);
        let report = Sweep::new(&cs)
            .processors(vec![4])
            .backends(vec![Backend::Sim, Backend::Sharded(2)])
            .factors(vec![8.0])
            .run();
        assert_eq!(report.cells.len(), 2 * 2);
        // Grid order: the backend axis sits between processors and factor.
        assert_eq!(report.cells[0].backend, Backend::Sim);
        assert_eq!(report.cells[1].backend, Backend::Sharded(2));
        assert!(report.cells.iter().all(|c| c.outcome.scheduled));
        // Explicit-axis lookups separate the backends.
        let pair = OrderPair::default_pair();
        let unsharded = report
            .cell_at(0, HeuristicKind::MemBooking, pair, 4, Backend::Sim, 8.0)
            .unwrap();
        let sharded = report
            .cell_at(
                0,
                HeuristicKind::MemBooking,
                pair,
                4,
                Backend::Sharded(2),
                8.0,
            )
            .unwrap();
        assert_eq!(unsharded.backend, Backend::Sim);
        assert_eq!(sharded.backend, Backend::Sharded(2));
        // The implicit-axis lookup addresses the first backend.
        assert_eq!(
            report
                .cell(0, HeuristicKind::MemBooking, pair, 4, 8.0)
                .unwrap()
                .backend,
            Backend::Sim
        );
        // Sharded cells report wall-clock makespans, not virtual time.
        assert!(sharded.outcome.makespan > 0.0);
        assert_eq!(sharded.outcome.normalized, 0.0);
    }

    #[test]
    fn backend_axis_runs_every_execution_regime() {
        let cs = cases(1);
        let backends = vec![
            Backend::Sim,
            Backend::Threaded,
            Backend::Async,
            Backend::Sharded(2),
        ];
        let report = Sweep::new(&cs)
            .processors(vec![2])
            .backends(backends.clone())
            .factors(vec![8.0])
            .run();
        assert_eq!(report.cells.len(), backends.len());
        let pair = OrderPair::default_pair();
        for &b in &backends {
            let cell = report
                .cell_at(0, HeuristicKind::MemBooking, pair, 2, b, 8.0)
                .unwrap_or_else(|| panic!("missing {b} cell"));
            assert_eq!(cell.backend, b);
            assert!(cell.outcome.scheduled, "{b}");
            // Execution backends report wall-clock; only the simulator
            // normalises against the virtual-time lower bounds.
            if b == Backend::Sim {
                assert!(cell.outcome.normalized >= 1.0 - 1e-9, "{b}");
            } else {
                assert_eq!(cell.outcome.normalized, 0.0, "{b}");
            }
        }
        // The CSV backend column carries the labels.
        let rows = report.cell_rows();
        for (row, b) in rows.iter().zip(&backends) {
            assert!(row.contains(&format!(",{},", b.label())), "{row}");
        }
    }

    #[test]
    fn untimed_rows_strip_exactly_the_timing_column() {
        let cs = cases(1);
        let report = Sweep::new(&cs).processors(vec![2]).factors(vec![2.0]).run();
        let full = report.cell_rows();
        let stripped = report.untimed_rows().unwrap();
        assert_eq!(full.len(), stripped.len());
        for (f, s) in full.iter().zip(&stripped) {
            assert!(f.starts_with(s.as_str()));
            assert_eq!(
                s.split(',').count(),
                SweepReport::cell_csv_header().split(',').count() - 1
            );
        }
    }

    #[test]
    fn malformed_rows_error_loudly_instead_of_panicking() {
        // The regression for the old `rsplit_once(',').unwrap()` strip: a
        // truncated or garbled row surfaces a descriptive error.
        let err = untimed_row("").unwrap_err();
        assert!(err.contains("malformed sweep row"), "{err}");
        let err = untimed_row("no-commas-at-all").unwrap_err();
        assert!(err.contains("1 columns"), "{err}");
        let err = untimed_row("t,mb,memPO/memPO,4").unwrap_err();
        assert!(err.contains("4 columns"), "{err}");
        // A well-formed row round-trips.
        let ok = untimed_row("t,mb,memPO/memPO,4,sim,2,1,10,1.5,0.5,0.001").unwrap();
        assert_eq!(ok, "t,mb,memPO/memPO,4,sim,2,1,10,1.5,0.5");
    }

    #[test]
    #[should_panic(expected = "empty memory-factor axis")]
    fn empty_axis_is_a_construction_error() {
        let cs = cases(1);
        let _ = Sweep::new(&cs).factors(vec![]);
    }

    #[test]
    #[should_panic(expected = "empty backend axis")]
    fn empty_shard_axis_is_a_construction_error() {
        let cs = cases(1);
        let _ = Sweep::new(&cs).backends(vec![]);
    }

    #[test]
    #[should_panic(expected = "empty policy axis")]
    fn empty_kind_axis_is_a_construction_error() {
        let cs = cases(1);
        let _ = Sweep::new(&cs).kinds(vec![]);
    }

    #[test]
    fn empty_source_is_a_valid_empty_sweep() {
        let cs = CaseSource::new();
        let report = Sweep::new(&cs).run();
        assert_eq!(report.case_count(), 0);
        assert!(report.cells.is_empty());
        assert_eq!(report.threads_used, 0);
    }
}
