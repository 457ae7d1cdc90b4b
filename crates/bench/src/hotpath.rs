//! The million-node hot-path sweep behind `bench_hotpath` and the
//! `hotpath-smoke` CI gate (DESIGN.md §6.11).
//!
//! Where [`crate::sweep`] measures *policy quality* over many small
//! trees, this sweep measures *driver throughput* over a few huge ones:
//! 10⁵-node (quick) to 10⁶-node (full) chains, caterpillars and random
//! recursive trees from [`memtree_gen::large`], run through the real
//! platforms so the zero-allocation event loop, the [`RankQueue`] ready
//! set and the position-indexed running set are what is on the clock.
//!
//! Per cell the sweep reports **ns per scheduled node** —
//! `wall_seconds × 10⁹ / tasks_run`, where the platform's `wall_seconds`
//! covers scheduler minting plus the event loop and, on the simulator,
//! the per-run relayout into activation-order numbering that precedes
//! them, but *not* tree generation or order construction — and its
//! reciprocal, nodes/sec.
//! Policy axis per shape:
//!
//! * every shape runs [`HeuristicKind::Activation`] (O(1) per event) —
//!   the pure driver-throughput number;
//! * the random shape (expected height Θ(log n)) additionally runs
//!   [`HeuristicKind::MemBooking`]; chains and caterpillars have
//!   Θ(n)-height spines, where MemBooking's O(n·H) booking walks are a
//!   different (known) asymptotic story, not a hot-path regression
//!   signal.
//!
//! The threaded platform runs the no-op workload, so its cells price the
//! per-task dispatch round-trip rather than any payload.
//!
//! [`RankQueue`]: memtree_sched::RankQueue

use memtree_gen::large::{build, LargeShape};
use memtree_runtime::{Platform, SimPlatform, ThreadedPlatform};
use memtree_sched::{HeuristicKind, PolicySpec};
use memtree_tree::TaskTree;

/// One measured cell of the hot-path sweep.
#[derive(Clone, Debug)]
pub struct HotCell {
    /// Tree family label (`chain`, `caterpillar`, `random`).
    pub shape: &'static str,
    /// Node count of the generated tree.
    pub n: usize,
    /// Scheduler name as reported by the platform.
    pub policy: String,
    /// Platform name (`sim` or `threaded`).
    pub backend: &'static str,
    /// Processor / worker count.
    pub processors: usize,
    /// Scheduler events processed.
    pub events: usize,
    /// Tasks executed.
    pub tasks_run: usize,
    /// Wall-clock seconds inside the platform run (relayout on the
    /// simulator, scheduler minting, event loop; excludes tree generation
    /// and order construction).
    pub wall_seconds: f64,
    /// Wall-clock seconds inside scheduler callbacks alone.
    pub scheduling_seconds: f64,
    /// Seconds spent generating the tree (reported, never gated).
    pub gen_seconds: f64,
}

impl HotCell {
    /// Nanoseconds of platform wall time per scheduled node.
    pub fn ns_per_node(&self) -> f64 {
        if self.tasks_run == 0 {
            return 0.0;
        }
        self.wall_seconds * 1e9 / self.tasks_run as f64
    }

    /// Scheduled nodes per second of platform wall time.
    pub fn nodes_per_sec(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.tasks_run as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    /// CSV header matching [`HotCell::csv_row`].
    pub fn csv_header() -> &'static str {
        "shape,n,policy,backend,processors,events,tasks_run,\
         wall_seconds,scheduling_seconds,gen_seconds,ns_per_node,nodes_per_sec"
    }

    /// One CSV row.
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{:.6},{:.6},{:.6},{:.1},{:.0}",
            self.shape,
            self.n,
            self.policy,
            self.backend,
            self.processors,
            self.events,
            self.tasks_run,
            self.wall_seconds,
            self.scheduling_seconds,
            self.gen_seconds,
            self.ns_per_node(),
            self.nodes_per_sec(),
        )
    }
}

/// The sweep's scale knobs.
#[derive(Clone, Copy, Debug)]
pub struct HotSweep {
    /// Node count for simulator cells.
    pub sim_nodes: usize,
    /// Node count for threaded cells (each task is a real dispatch
    /// round-trip, so the threaded axis runs smaller trees).
    pub threaded_nodes: usize,
    /// Processor / worker count for every cell.
    pub processors: usize,
}

impl HotSweep {
    /// The CI gate scale: 10⁵-node simulator cells, seconds of wall time.
    pub fn quick() -> Self {
        HotSweep {
            sim_nodes: 100_000,
            threaded_nodes: 20_000,
            processors: 4,
        }
    }

    /// The trajectory scale: 10⁶-node simulator cells.
    pub fn full() -> Self {
        HotSweep {
            sim_nodes: 1_000_000,
            threaded_nodes: 100_000,
            processors: 4,
        }
    }

    /// The shapes every backend sweeps.
    pub fn shapes() -> [LargeShape; 3] {
        [
            LargeShape::Chain,
            LargeShape::Caterpillar { legs: 4 },
            LargeShape::Random,
        ]
    }

    /// Runs the sweep: every shape × {sim, threaded} under Activation,
    /// plus the random shape under MemBooking on the simulator.
    pub fn run(&self) -> Vec<HotCell> {
        let mut cells = Vec::new();
        for shape in Self::shapes() {
            let gen_start = std::time::Instant::now();
            let tree = build(shape, self.sim_nodes, 42);
            let gen_seconds = gen_start.elapsed().as_secs_f64();
            cells.push(self.sim_cell(&tree, shape, HeuristicKind::Activation, gen_seconds));
            if matches!(shape, LargeShape::Random) {
                cells.push(self.sim_cell(&tree, shape, HeuristicKind::MemBooking, gen_seconds));
            }
        }
        for shape in Self::shapes() {
            let gen_start = std::time::Instant::now();
            let tree = build(shape, self.threaded_nodes, 42);
            let gen_seconds = gen_start.elapsed().as_secs_f64();
            cells.push(self.threaded_cell(&tree, shape, gen_seconds));
        }
        cells
    }

    fn spec_for(&self, tree: &TaskTree, kind: HeuristicKind) -> PolicySpec {
        // Twice the policy's own feasibility bound: tight enough that the
        // booking ledger cycles (the interesting regime), roomy enough
        // that every shape completes without starvation stalls.
        let spec = PolicySpec::new(kind, 0);
        let memory = spec.min_feasible(tree).saturating_mul(2);
        spec.with_memory(memory)
    }

    fn sim_cell(
        &self,
        tree: &TaskTree,
        shape: LargeShape,
        kind: HeuristicKind,
        gen_seconds: f64,
    ) -> HotCell {
        let spec = self.spec_for(tree, kind);
        let report = SimPlatform::new(self.processors)
            .run(tree, &spec)
            .expect("hot-path sim cell completes");
        HotCell {
            shape: shape.label(),
            n: tree.len(),
            policy: report.policy,
            backend: "sim",
            processors: self.processors,
            events: report.events,
            tasks_run: report.tasks_run,
            wall_seconds: report.wall_seconds,
            scheduling_seconds: report.scheduling_seconds,
            gen_seconds,
        }
    }

    fn threaded_cell(&self, tree: &TaskTree, shape: LargeShape, gen_seconds: f64) -> HotCell {
        let spec = self.spec_for(tree, HeuristicKind::Activation);
        let report = ThreadedPlatform::new(self.processors)
            .run(tree, &spec)
            .expect("hot-path threaded cell completes");
        HotCell {
            shape: shape.label(),
            n: tree.len(),
            policy: report.policy,
            backend: "threaded",
            processors: self.processors,
            events: report.events,
            tasks_run: report.tasks_run,
            wall_seconds: report.wall_seconds,
            scheduling_seconds: report.scheduling_seconds,
            gen_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downscaled_sweep_produces_sane_cells() {
        let sweep = HotSweep {
            sim_nodes: 2_000,
            threaded_nodes: 300,
            processors: 2,
        };
        let cells = sweep.run();
        // 3 sim Activation + 1 sim MemBooking + 3 threaded.
        assert_eq!(cells.len(), 7);
        for c in &cells {
            assert_eq!(
                c.tasks_run, c.n,
                "{}: sequential policies run n tasks",
                c.shape
            );
            assert!(c.events > 0 && c.wall_seconds > 0.0);
            assert!(c.ns_per_node() > 0.0 && c.nodes_per_sec() > 0.0);
            assert!(c.csv_row().split(',').count() == HotCell::csv_header().split(',').count());
        }
        assert_eq!(cells.iter().filter(|c| c.backend == "threaded").count(), 3);
        assert_eq!(
            cells
                .iter()
                .filter(|c| c.backend == "sim" && c.policy.contains("ook"))
                .count(),
            1,
            "MemBooking runs once, on the random shape"
        );
    }
}
