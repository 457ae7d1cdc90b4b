//! The seven workloads. Each is a set-up (input generation from the seed)
//! and an *op* — the unit whose wall time is sampled — that calls the
//! library through public functions only. README.md says why each exists.

use crate::span::Tracer;
use crate::stats::median;
use memtree_gen::large::{self, LargeShape};
use memtree_multifrontal::{assembly_tree, colcount, etree, ordering, supernodes, SparsePattern};
use memtree_order::{make_order, OrderKind};
use memtree_runtime::process::wire;
use memtree_runtime::{
    AsyncPlatform, Platform, PlatformError, ProcessPlatform, RunReport, ShardedPlatform,
    ShardedReport, SimPlatform, ThreadedPlatform, Workload as Payload,
};
use memtree_sched::{
    AllotmentCaps, HeuristicKind, LowerBounds, PolicyInstance, PolicySpec, ReschedulePolicy,
    ShardBudget,
};
use memtree_sim::validate::validate_trace;
use memtree_sim::{simulate, SimConfig};
use memtree_tree::{partition, PartitionPolicy, TaskTree};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Every workload name, in the order `run.sh` runs them.
pub const NAMES: [&str; 7] = [
    "plan-assembly",
    "plan-irregular",
    "sim-million",
    "exec-fine",
    "exec-gang",
    "exec-coarse",
    "shard-merge",
];

/// What one op did.
#[derive(Default)]
pub struct OpResult {
    /// Tasks the platforms ran in this op (Σ `tasks_run`).
    pub tasks_run: usize,
    /// One message per violated output check; empty means the op passed.
    pub failures: Vec<String>,
    /// Simulator makespan / `LowerBounds::best` of every (tree, kind)
    /// cell the op simulated.
    pub ratios: Vec<f64>,
    /// Threaded wall / predicted wall, where the op has a payload model.
    pub realised_over_predicted: Option<f64>,
}

pub trait Workload {
    /// Runs op number `index` (a run numbers its ops 0, 1, 2, … — the
    /// warm-ups first — so an op's inputs depend only on seed and index).
    fn op(&mut self, index: u64, tr: &mut Tracer) -> OpResult;

    /// Makespan / lower-bound ratios from an untimed simulator pass, for
    /// workloads whose op does not simulate.
    fn quality(&self) -> Vec<f64> {
        Vec::new()
    }

    /// Measurements only the traced run makes, outside any op: the same
    /// instance on a second backend, single library calls the op reaches
    /// only indirectly. Returns `(per-layer metric, value)` pairs.
    fn extras(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// Everything a set-up needs to know.
pub struct Setup<'a> {
    pub seed: u64,
    pub quick: bool,
    pub worker_bin: &'a Path,
}

/// Builds workload `name`; also returns the seconds input generation took.
pub fn setup(name: &str, cfg: &Setup) -> Result<(Box<dyn Workload>, f64), String> {
    let started = Instant::now();
    let w: Box<dyn Workload> = match name {
        "plan-assembly" => Box::new(PlanAssembly { quick: cfg.quick }),
        "plan-irregular" => Box::new(PlanIrregular {
            seed: cfg.seed,
            quick: cfg.quick,
        }),
        "sim-million" => Box::new(SimMillion::new(cfg)),
        "exec-fine" => Box::new(ExecFine::new(cfg)),
        "exec-gang" => Box::new(ExecGang::new(cfg)),
        "exec-coarse" => Box::new(ExecCoarse::new(cfg)?),
        "shard-merge" => Box::new(ShardMerge::new(cfg)),
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok((w, started.elapsed().as_secs_f64()))
}

/// SplitMix64 finaliser: derives the per-op generator seed from the run
/// seed and the op index.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `M` as a multiple of the policy's own feasibility floor.
fn scaled(min: u64, num: u64, den: u64) -> u64 {
    min.saturating_mul(num) / den
}

// ---------------------------------------------------------------- checks

/// The output checks every platform report must pass.
fn check_report(res: &mut OpResult, what: &str, r: &RunReport, exec_len: usize, m: u64) {
    if r.tasks_run != exec_len {
        res.failures
            .push(format!("{what}: ran {} tasks of {exec_len}", r.tasks_run));
    }
    if r.peak_actual > r.peak_booked {
        res.failures.push(format!(
            "{what}: peak_actual {} > peak_booked {}",
            r.peak_actual, r.peak_booked
        ));
    }
    if r.peak_booked > m {
        res.failures
            .push(format!("{what}: peak_booked {} > M {m}", r.peak_booked));
    }
    if r.quarantined != 0 {
        res.failures
            .push(format!("{what}: {} units quarantined", r.quarantined));
    }
}

/// Runs `instance` on `platform` inside span `span`, attributing the
/// reported callback time to `sched.callback` and checking the report.
fn run_checked(
    tr: &mut Tracer,
    span: &'static str,
    res: &mut OpResult,
    platform: &dyn Platform,
    tree: &TaskTree,
    instance: &PolicyInstance,
) -> Option<RunReport> {
    tr.enter(span);
    let outcome = platform.run_instance(tree, instance);
    if let Ok(r) = &outcome {
        tr.agg_child("sched.callback", r.scheduling_seconds);
    }
    tr.exit();
    match outcome {
        Ok(r) => {
            tr.count("run.events", r.events as f64);
            tr.count(
                "sched.mem_fraction_sum",
                r.peak_actual as f64 / instance.memory() as f64,
            );
            tr.count("sched.mem_fraction_n", 1.0);
            let exec_len = instance.exec_tree(tree).len();
            check_report(res, span, &r, exec_len, instance.memory());
            res.tasks_run += r.tasks_run;
            Some(r)
        }
        Err(e) => {
            res.failures.push(format!("{span}: {e}"));
            None
        }
    }
}

/// Median `wall_seconds` of `runs` runs of `instance` on `platform` — the
/// traced run's side measurements. `None` when a run fails (the same
/// instance already passed its checks in the ops).
fn side_wall(
    platform: &dyn Platform,
    tree: &TaskTree,
    instance: &PolicyInstance,
    runs: usize,
) -> Option<f64> {
    let mut walls = Vec::with_capacity(runs);
    for _ in 0..runs {
        walls.push(platform.run_instance(tree, instance).ok()?.wall_seconds);
    }
    Some(median(&mut walls))
}

// ------------------------------------------------ the planning pipeline

/// Matrix → assembly tree, one span per multifrontal stage.
fn analyse(tr: &mut Tracer, pattern: &SparsePattern, perm: &[usize]) -> TaskTree {
    let (parents, cc) = tr.time("multifrontal.symbolic", || {
        let permuted = pattern.permute(perm);
        // Postorder the elimination tree so supernodes are contiguous.
        let postorder = etree::etree_postorder(&etree::elimination_tree(&permuted));
        let matrix = permuted.permute(&postorder);
        let parents = etree::elimination_tree(&matrix);
        let cc = colcount::column_counts(&matrix, &parents);
        (parents, cc)
    });
    tr.count("multifrontal.factor_nnz", colcount::factor_nnz(&cc) as f64);
    let (sn, sn_parent) = tr.time("multifrontal.supernodes", || {
        let sn = supernodes::fundamental_supernodes(&parents, &cc);
        let sn_parent = supernodes::supernode_parents(&sn, &parents);
        (sn, sn_parent)
    });
    let tree = tr.time("multifrontal.assembly", || {
        assembly_tree(&sn, &sn_parent, Default::default())
    });
    tr.count("multifrontal.fronts", tree.len() as f64);
    tree
}

/// The activation / execution order pair every planned cell uses.
const AO: OrderKind = OrderKind::MemPostorder;
const EO: OrderKind = OrderKind::CriticalPath;

/// The two orders as explicit calls, so the order layer has spans of its
/// own (`instantiate` recomputes them internally, under `sched.*`).
fn orders(tr: &mut Tracer, tree: &TaskTree) {
    let ao = tr.time("order.mempo", || make_order(tree, AO));
    let eo = tr.time("order.cp", || make_order(tree, EO));
    tr.count("order.seq_peak", ao.sequential_peak(tree) as f64);
    std::hint::black_box(eo);
}

/// `kind` at 1.5 × its own feasibility floor, resolved against `tree`.
fn instantiate_at_floor(
    tr: &mut Tracer,
    res: &mut OpResult,
    tree: &TaskTree,
    spec: PolicySpec,
) -> Option<PolicyInstance> {
    let min = tr.time("sched.min_feasible", || spec.min_feasible(tree));
    let spec = spec.with_memory(scaled(min, 3, 2));
    match tr.time("sched.instantiate", || spec.instantiate(tree)) {
        Ok(instance) => Some(instance),
        Err(e) => {
            res.failures.push(format!("instantiate {}: {e}", spec.kind));
            None
        }
    }
}

/// One (tree, kind) cell of the paper's evaluation loop: instantiate →
/// simulate → validate the trace → lower bounds.
fn plan_cell(tr: &mut Tracer, res: &mut OpResult, tree: &TaskTree, kind: HeuristicKind) {
    let p = PLAN_PROCESSORS;
    let spec = PolicySpec::new(kind, 0).with_orders(AO, EO);
    let Some(instance) = instantiate_at_floor(tr, res, tree, spec) else {
        return;
    };
    let (exec, m) = (instance.exec_tree(tree), instance.memory());
    tr.enter("sim.run");
    let outcome = instance
        .scheduler(tree)
        .map_err(|e| e.to_string())
        .and_then(|s| simulate(exec, SimConfig::new(p, m), s).map_err(|e| e.to_string()));
    if let Ok(trace) = &outcome {
        tr.agg_child("sched.callback", trace.scheduling_seconds);
    }
    tr.exit();
    let trace = match outcome {
        Ok(trace) => trace,
        Err(e) => {
            res.failures.push(format!("simulate {kind}: {e}"));
            return;
        }
    };
    tr.count("sim.events", trace.events as f64);
    tr.count("run.events", trace.events as f64);
    tr.count("sched.mem_fraction_sum", trace.memory_fraction_used());
    tr.count("sched.mem_fraction_n", 1.0);
    if let Err(e) = tr.time("sim.validate", || validate_trace(exec, &trace)) {
        res.failures.push(format!("validate_trace {kind}: {e}"));
    }
    if trace.records.len() != exec.len() {
        res.failures.push(format!(
            "simulate {kind}: ran {} tasks of {}",
            trace.records.len(),
            exec.len()
        ));
    }
    if trace.peak_actual > trace.peak_booked || trace.peak_booked > m {
        res.failures.push(format!(
            "simulate {kind}: actual {} / booked {} / M {m}",
            trace.peak_actual, trace.peak_booked
        ));
    }
    res.tasks_run += trace.records.len();
    let lb = tr.time("sched.lower_bound", || LowerBounds::compute(tree, p, m));
    res.ratios.push(trace.makespan / lb.best());
}

const PLAN_KINDS: [HeuristicKind; 3] = [
    HeuristicKind::Activation,
    HeuristicKind::MemBooking,
    HeuristicKind::MemBookingRedTree,
];
const PLAN_PROCESSORS: usize = 8;

/// The back half of a planning op: orders, then the three sequential-task
/// policies on the simulator.
fn plan_tree(tr: &mut Tracer, res: &mut OpResult, tree: &TaskTree) {
    orders(tr, tree);
    for kind in PLAN_KINDS {
        plan_cell(tr, res, tree, kind);
    }
}

/// The moldable simulator path on the same tree, static and malleable —
/// the parallel hierarchy ROADMAP item D folds into the q ≡ 1 one.
fn plan_moldable(tr: &mut Tracer, res: &mut OpResult, tree: &TaskTree) {
    let caps = AllotmentCaps::sqrt_of_time(tree, PLAN_PROCESSORS as u32);
    let spec = PolicySpec::new(HeuristicKind::MemBooking, 0)
        .with_orders(AO, EO)
        .with_caps(caps);
    let Some(instance) = instantiate_at_floor(tr, res, tree, spec) else {
        return;
    };
    let sim = SimPlatform::new(PLAN_PROCESSORS);
    run_checked(tr, "sim.moldable_run", res, &sim, tree, &instance);
    let sim = sim.with_rescheduler(ReschedulePolicy::new());
    run_checked(tr, "sim.malleable_run", res, &sim, tree, &instance);
}

struct PlanAssembly {
    quick: bool,
}

/// The matrix families of the paper's assembly-tree corpus, each with
/// the fill-reducing ordering the corpus pairs it with.
#[derive(Clone, Copy)]
enum Matrix {
    /// k × k grid Laplacian, nested dissection.
    Grid2d(usize),
    /// k × k × k grid Laplacian, nested dissection.
    Grid3d(usize),
    /// (order, half bandwidth), natural order.
    Band(usize, usize),
}

impl Matrix {
    fn pattern(self) -> SparsePattern {
        match self {
            Matrix::Grid2d(k) => SparsePattern::grid2d(k),
            Matrix::Grid3d(k) => SparsePattern::grid3d(k),
            Matrix::Band(n, half) => SparsePattern::band(n, half),
        }
    }

    fn ordering(self) -> Vec<usize> {
        match self {
            Matrix::Grid2d(k) => ordering::nested_dissection_grid2d(k),
            Matrix::Grid3d(k) => ordering::nested_dissection_grid3d(k),
            Matrix::Band(n, _) => ordering::identity(n),
        }
    }

    /// Pattern → ordering → symbolic analysis, every stage in a span.
    fn assembly_tree(self, tr: &mut Tracer) -> TaskTree {
        let pattern = tr.time("multifrontal.pattern", || self.pattern());
        let perm = tr.time("multifrontal.ordering", || self.ordering());
        analyse(tr, &pattern, &perm)
    }
}

impl Workload for PlanAssembly {
    fn op(&mut self, _index: u64, tr: &mut Tracer) -> OpResult {
        use Matrix::{Band, Grid2d, Grid3d};
        let matrices = if self.quick {
            [Grid2d(40), Grid3d(10), Band(3_000, 1), Band(1_000, 4)]
        } else {
            [Grid2d(200), Grid3d(24), Band(50_000, 1), Band(10_000, 4)]
        };
        let mut res = OpResult::default();
        for matrix in matrices {
            let tree = matrix.assembly_tree(tr);
            plan_tree(tr, &mut res, &tree);
            plan_moldable(tr, &mut res, &tree);
        }
        res
    }
}

struct PlanIrregular {
    seed: u64,
    quick: bool,
}

impl Workload for PlanIrregular {
    fn op(&mut self, index: u64, tr: &mut Tracer) -> OpResult {
        let (n, extra) = if self.quick {
            (300, 450)
        } else {
            (2_000, 3_000)
        };
        let mut res = OpResult::default();
        let seed = mix(self.seed, index);
        let pattern = tr.time("multifrontal.pattern", || {
            SparsePattern::random_connected(n, extra, seed)
        });
        let perm = tr.time("multifrontal.ordering", || {
            ordering::minimum_degree(&pattern)
        });
        let tree = analyse(tr, &pattern, &perm);
        plan_tree(tr, &mut res, &tree);
        res
    }
}

// ------------------------------------------------------ executing a tree

/// A generated tree, a MemBooking spec at twice its feasibility floor and
/// the spec resolved once — what `sim-million`, `exec-*` and `shard-merge`
/// set up.
struct Instance {
    tree: TaskTree,
    spec: PolicySpec,
    instance: PolicyInstance,
}

impl Instance {
    fn new(tree: TaskTree, caps: Option<AllotmentCaps>) -> Self {
        let mut spec = PolicySpec::new(HeuristicKind::MemBooking, 0);
        if let Some(caps) = caps {
            spec = spec.with_caps(caps);
        }
        let spec = spec
            .clone()
            .with_memory(scaled(spec.min_feasible(&tree), 2, 1));
        let instance = spec
            .instantiate(&tree)
            .expect("MemBooking needs no transform: instantiate cannot fail");
        Instance {
            tree,
            spec,
            instance,
        }
    }

    /// The op of the no-op executor workloads: the instance on
    /// `EXEC_WORKERS` real threads.
    fn threaded_op(&self, tr: &mut Tracer) -> OpResult {
        let mut res = OpResult::default();
        let threaded = ThreadedPlatform::new(EXEC_WORKERS);
        run_checked(
            tr,
            "runtime.threaded.run",
            &mut res,
            &threaded,
            &self.tree,
            &self.instance,
        );
        res
    }

    /// Simulator makespan over the lower bound on `p` processors.
    fn quality(&self, p: usize) -> Vec<f64> {
        let lb = LowerBounds::compute(&self.tree, p, self.spec.memory);
        match SimPlatform::new(p).run_instance(&self.tree, &self.instance) {
            Ok(r) => vec![r.makespan / lb.best()],
            Err(_) => Vec::new(),
        }
    }
}

const EXEC_WORKERS: usize = 4;

struct SimMillion {
    inner: Instance,
    last_makespan: f64,
}

impl SimMillion {
    fn new(cfg: &Setup) -> Self {
        let n = if cfg.quick { 30_000 } else { 1_000_000 };
        SimMillion {
            inner: Instance::new(large::build(LargeShape::Random, n, cfg.seed), None),
            last_makespan: 0.0,
        }
    }
}

impl Workload for SimMillion {
    fn op(&mut self, _index: u64, tr: &mut Tracer) -> OpResult {
        let mut res = OpResult::default();
        let (tree, spec) = (&self.inner.tree, &self.inner.spec);
        let instance = match tr.time("sched.instantiate", || spec.instantiate(tree)) {
            Ok(instance) => instance,
            Err(e) => {
                res.failures.push(format!("instantiate: {e}"));
                return res;
            }
        };
        let sim = SimPlatform::new(EXEC_WORKERS);
        if let Some(r) = run_checked(tr, "sim.run", &mut res, &sim, tree, &instance) {
            tr.count("sim.events", r.events as f64);
            self.last_makespan = r.makespan;
        }
        res
    }

    fn quality(&self) -> Vec<f64> {
        // The op *is* the simulator pass; only the bound is left to do.
        let lb = LowerBounds::compute(&self.inner.tree, EXEC_WORKERS, self.inner.spec.memory);
        vec![self.last_makespan / lb.best()]
    }
}

struct ExecFine {
    inner: Instance,
}

impl ExecFine {
    fn new(cfg: &Setup) -> Self {
        let n = if cfg.quick { 4_000 } else { 100_000 };
        ExecFine {
            inner: Instance::new(large::build(LargeShape::Random, n, cfg.seed), None),
        }
    }
}

/// `(threaded − sim) / tasks` and `threaded / sim` for the same instance
/// and worker count: what the real backend adds to the shared driver.
fn over_sim(threaded_wall: f64, sim_wall: f64, tasks: usize) -> (f64, f64) {
    (
        (threaded_wall - sim_wall) * 1e9 / tasks as f64,
        threaded_wall / sim_wall,
    )
}

impl Workload for ExecFine {
    fn op(&mut self, _index: u64, tr: &mut Tracer) -> OpResult {
        self.inner.threaded_op(tr)
    }

    fn quality(&self) -> Vec<f64> {
        self.inner.quality(EXEC_WORKERS)
    }

    fn extras(&mut self) -> Vec<(&'static str, f64)> {
        let Instance { tree, instance, .. } = &self.inner;
        let mut out = Vec::new();
        let threaded = side_wall(&ThreadedPlatform::new(EXEC_WORKERS), tree, instance, 5);
        let sim = side_wall(&SimPlatform::new(EXEC_WORKERS), tree, instance, 5);
        if let (Some(threaded), Some(sim)) = (threaded, sim) {
            let (dispatch, ratio) = over_sim(threaded, sim, tree.len());
            out.push(("runtime.threaded.dispatch_ns_per_task", dispatch));
            out.push(("runtime.threaded.over_sim", ratio));
        }
        if let Some(wall) = side_wall(&AsyncPlatform::new(EXEC_WORKERS), tree, instance, 5) {
            out.push(("runtime.async.ns_per_task", wall * 1e9 / tree.len() as f64));
        }
        out
    }
}

struct ExecGang {
    inner: Instance,
}

const GANG: u32 = 4;

impl ExecGang {
    fn chain(cfg: &Setup) -> TaskTree {
        let n = if cfg.quick { 2_000 } else { 60_000 };
        large::build(LargeShape::Chain, n, cfg.seed)
    }

    fn new(cfg: &Setup) -> Self {
        let tree = Self::chain(cfg);
        let caps = AllotmentCaps::uniform(&tree, GANG);
        ExecGang {
            inner: Instance::new(tree, Some(caps)),
        }
    }
}

impl Workload for ExecGang {
    fn op(&mut self, _index: u64, tr: &mut Tracer) -> OpResult {
        self.inner.threaded_op(tr)
    }

    /// `LowerBounds` assumes one processor per task. Under the linear
    /// speedup the simulator applies, a task capped at `GANG` processors
    /// runs `GANG` × faster, which divides the critical-path and
    /// memory-time bounds (not the work bound) by `GANG`.
    fn quality(&self) -> Vec<f64> {
        let Instance {
            tree,
            spec,
            instance,
        } = &self.inner;
        let lb = LowerBounds::compute(tree, EXEC_WORKERS, spec.memory);
        let bound = lb
            .work
            .max(lb.critical_path.max(lb.memory_aware) / GANG as f64);
        match SimPlatform::new(EXEC_WORKERS).run_instance(tree, instance) {
            Ok(r) => vec![r.makespan / bound],
            Err(_) => Vec::new(),
        }
    }

    fn extras(&mut self) -> Vec<(&'static str, f64)> {
        let Instance { tree, instance, .. } = &self.inner;
        let threaded = ThreadedPlatform::new(EXEC_WORKERS);
        let mut out = Vec::new();
        let gang = side_wall(&threaded, tree, instance, 5);
        let sim = side_wall(&SimPlatform::new(EXEC_WORKERS), tree, instance, 5);
        if let (Some(gang), Some(sim)) = (gang, sim) {
            let (dispatch, ratio) = over_sim(gang, sim, tree.len());
            out.push(("runtime.threaded.dispatch_ns_per_task", dispatch));
            out.push(("runtime.threaded.over_sim", ratio));
            out.push((
                "runtime.gang.dispatch_ns_per_member",
                dispatch / GANG as f64,
            ));
        }
        // The same chain with every cap at 1: what a unit task costs on
        // the executor the gangs above share.
        let unit = Instance::new(tree.clone(), None);
        let unit = side_wall(&threaded, &unit.tree, &unit.instance, 5);
        if let (Some(gang), Some(unit)) = (gang, unit) {
            out.push(("runtime.gang.over_unit", gang / unit));
        }
        out
    }
}

struct ExecCoarse {
    k: usize,
    /// Wall seconds the simulator predicts for the payload on
    /// `COARSE_WORKERS` workers at `nanos_per_unit`.
    predicted_s: f64,
    nanos_per_unit: f64,
    /// Simulator makespan / lower bound of the calibration cell.
    ratio: f64,
}

const COARSE_WORKERS: usize = 8;

impl ExecCoarse {
    fn spec() -> PolicySpec {
        PolicySpec::new(HeuristicKind::MemBooking, 0).with_orders(AO, EO)
    }

    /// Calibrates the sleep payload: scales model time so the simulator's
    /// makespan on the same tree, spec and worker count is `predicted_s`.
    fn new(cfg: &Setup) -> Result<Self, String> {
        let (k, predicted_s) = if cfg.quick { (20, 0.05) } else { (100, 0.5) };
        let tree = Matrix::Grid2d(k).assembly_tree(&mut Tracer::new(false));
        let spec = Self::spec();
        let spec = spec
            .clone()
            .with_memory(scaled(spec.min_feasible(&tree), 3, 2));
        let report = SimPlatform::new(COARSE_WORKERS)
            .run(&tree, &spec)
            .map_err(|e| format!("exec-coarse calibration: {e}"))?;
        let lb = LowerBounds::compute(&tree, COARSE_WORKERS, spec.memory);
        Ok(ExecCoarse {
            k,
            predicted_s,
            nanos_per_unit: predicted_s * 1e9 / report.makespan,
            ratio: report.makespan / lb.best(),
        })
    }
}

impl Workload for ExecCoarse {
    fn op(&mut self, _index: u64, tr: &mut Tracer) -> OpResult {
        let mut res = OpResult::default();
        let tree = Matrix::Grid2d(self.k).assembly_tree(tr);
        orders(tr, &tree);
        let Some(instance) = instantiate_at_floor(tr, &mut res, &tree, Self::spec()) else {
            return res;
        };
        let threaded = ThreadedPlatform::new(COARSE_WORKERS).with_workload(Payload::Sleep {
            nanos_per_time_unit: self.nanos_per_unit,
            max_nanos: u64::MAX,
        });
        tr.count("runtime.coarse.payload", self.predicted_s);
        if let Some(r) = run_checked(
            tr,
            "runtime.threaded.run",
            &mut res,
            &threaded,
            &tree,
            &instance,
        ) {
            res.realised_over_predicted = Some(r.wall_seconds / self.predicted_s);
        }
        res
    }

    fn quality(&self) -> Vec<f64> {
        vec![self.ratio]
    }
}

struct ShardMerge {
    inner: Instance,
    worker_bin: PathBuf,
}

const SHARDS: usize = 2;
/// Idle watchdog on both coordinators: a stalled shard must fail the op,
/// not hang the benchmark.
const STALL: Duration = Duration::from_secs(30);

impl ShardMerge {
    fn new(cfg: &Setup) -> Self {
        ShardMerge {
            inner: ExecFine::new(cfg).inner,
            worker_bin: cfg.worker_bin.to_path_buf(),
        }
    }

    fn process(&self, shards: usize) -> ProcessPlatform {
        ProcessPlatform::new(shards)
            .with_worker_bin(&self.worker_bin)
            .with_timeout(STALL)
    }

    /// One coordinator run: span, checks, and the merge gap — the wall
    /// time neither the slowest shard nor the residual phase accounts for
    /// (partition, serialise, spawn, wire, join).
    fn run(
        &self,
        tr: &mut Tracer,
        res: &mut OpResult,
        span: &'static str,
        gap: &'static str,
        run: impl FnOnce() -> Result<ShardedReport, PlatformError>,
    ) {
        tr.enter(span);
        let outcome = run();
        if let Ok(d) = &outcome {
            tr.agg_child("sched.callback", d.report.scheduling_seconds);
        }
        tr.exit();
        let d = match outcome {
            Ok(d) => d,
            Err(e) => {
                res.failures.push(format!("{span}: {e}"));
                return;
            }
        };
        let m = self.inner.spec.memory;
        check_report(res, span, &d.report, self.inner.tree.len(), m);
        if d.shard_peak_sum() > m {
            res.failures.push(format!(
                "{span}: Σ shard peaks {} > M {m}",
                d.shard_peak_sum()
            ));
        }
        res.tasks_run += d.report.tasks_run;
        tr.count("run.events", d.report.events as f64);
        tr.count(
            "sched.mem_fraction_sum",
            d.report.peak_actual as f64 / m as f64,
        );
        tr.count("sched.mem_fraction_n", 1.0);
        tr.count(gap, merge_gap(&d));
    }
}

fn merge_gap(d: &ShardedReport) -> f64 {
    let slowest = d
        .shard_reports
        .iter()
        .map(|r| r.wall_seconds)
        .fold(0.0, f64::max);
    d.report.wall_seconds - slowest - d.residual.wall_seconds
}

impl Workload for ShardMerge {
    fn op(&mut self, _index: u64, tr: &mut Tracer) -> OpResult {
        let mut res = OpResult::default();
        let Instance { tree, spec, .. } = &self.inner;
        self.run(
            tr,
            &mut res,
            "runtime.sharded.run",
            "runtime.sharded.merge_gap",
            || {
                ShardedPlatform::new(SHARDS)
                    .with_timeout(STALL)
                    .run_detailed(tree, spec)
            },
        );
        self.run(
            tr,
            &mut res,
            "runtime.process.run",
            "runtime.process.merge_gap",
            || self.process(SHARDS).run_detailed(tree, spec),
        );
        res
    }

    fn quality(&self) -> Vec<f64> {
        self.inner.quality(SHARDS)
    }

    /// The coordinator's own steps as single calls: both platforms do
    /// them inside `run_detailed`, where the harness cannot see them.
    fn extras(&mut self) -> Vec<(&'static str, f64)> {
        const RUNS: usize = 5;
        let Instance { tree, spec, .. } = &self.inner;
        let mut out = Vec::new();
        let (mut part_s, mut encode_s, mut decode_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut bytes = 0usize;
        for _ in 0..RUNS {
            let started = Instant::now();
            let part = partition(tree, &PartitionPolicy::balanced(SHARDS));
            part_s.push(started.elapsed().as_secs_f64());

            let mins: Vec<u64> = part
                .shards
                .iter()
                .map(|s| spec.min_feasible(&s.tree))
                .collect();
            let Ok(shard_specs) = spec.shard_specs(ShardBudget::Proportional, &mins) else {
                return out;
            };
            let started = Instant::now();
            let jobs: Vec<String> = part
                .shards
                .iter()
                .zip(&shard_specs)
                .map(|(s, spec)| {
                    wire::job_to_string(&s.tree, spec, 1, Payload::Noop, Duration::from_millis(50))
                })
                .collect();
            encode_s.push(started.elapsed().as_secs_f64());
            bytes = jobs.iter().map(String::len).sum();

            let started = Instant::now();
            let parsed = jobs.iter().filter(|j| wire::parse_job(j).is_ok()).count();
            decode_s.push(started.elapsed().as_secs_f64());
            if parsed != jobs.len() {
                return out;
            }
        }
        out.push(("tree.partition_s", median(&mut part_s)));
        out.push(("runtime.wire.encode_s", median(&mut encode_s)));
        out.push(("runtime.wire.decode_s", median(&mut decode_s)));
        out.push(("runtime.wire.bytes", bytes as f64));

        // Spawn + handshake floor: one worker process, a three-node chain
        // (the smallest tree the partitioner still cuts a shard from).
        let tiny = Instance::new(large::build(LargeShape::Chain, 3, 0), None);
        let mut floor = Vec::new();
        for _ in 0..RUNS {
            match self.process(1).run_detailed(&tiny.tree, &tiny.spec) {
                Ok(d) if d.shard_reports.len() == 1 => floor.push(d.report.wall_seconds),
                _ => return out,
            }
        }
        out.push(("runtime.process.floor_s", median(&mut floor)));
        out
    }
}
