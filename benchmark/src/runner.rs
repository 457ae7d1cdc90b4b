//! One workload, measured in this process: set-up (repeated, timed),
//! the op loop, the output checks, and — in a traced run — the per-layer
//! numbers derived from the spans.

use crate::json::Json;
use crate::metrics::{COUNTERS, END_TO_END, PER_LAYER, SHARE_LAYERS, TIMED_SPANS};
use crate::span::{OpAcc, Tracer};
use crate::stats::{cpu_seconds, geometric_mean, median, peak_rss_mb, tail};
use crate::workloads::{self, OpResult, Setup, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Seconds the op loop measures for.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub worker_bin: PathBuf,
    pub out_dir: PathBuf,
}

impl Config {
    fn setup(&self) -> Setup<'_> {
        Setup {
            seed: self.seed,
            quick: self.quick,
            worker_bin: &self.worker_bin,
        }
    }
}

/// Set-up is repeated so `setup_s` is a median: at least `MIN_SETUPS`
/// times, and up to `MAX_SETUPS` while the repeats so far took under
/// `SETUP_BUDGET_S` (a 10⁶-node set-up gets three, a 10⁵-node one five).
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 5;
const SETUP_BUDGET_S: f64 = 3.0;
/// The op loop never stops on time alone below this many samples.
const MIN_OPS: usize = 3;

/// Failure messages kept verbatim in the result (all are counted).
const KEPT_FAILURES: usize = 5;

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    fn record(&mut self, res: &OpResult) {
        self.attempted += 1;
        if !res.failures.is_empty() {
            self.failed += 1;
        }
        for f in &res.failures {
            if self.messages.len() < KEPT_FAILURES {
                self.messages.push(f.clone());
            }
        }
    }
}

fn one_op(w: &mut dyn Workload, index: u64, tr: &mut Tracer) -> (OpResult, f64) {
    tr.enter("op");
    let started = Instant::now();
    let res = w.op(index, tr);
    let wall = started.elapsed().as_secs_f64();
    tr.exit();
    tr.next_op();
    (res, wall)
}

/// What the set-up phase leaves behind.
struct SetUp {
    workload: Box<dyn Workload>,
    /// Seconds each set-up (input generation + one warm-up op) took.
    setup_s: Vec<f64>,
    /// Seconds input generation alone took.
    gen_s: Vec<f64>,
    /// Makespan / lower-bound ratios of the first `MIN_SETUPS` warm-ups: a
    /// fixed number of cells, so `makespan_over_lb` repeats exactly
    /// however many ops the time budget buys.
    ratios: Vec<f64>,
}

/// Input generation plus one warm-up op, several times over (once in a
/// traced run, which reports no `setup_s`).
fn set_up(cfg: &Config, tally: &mut Tally) -> Result<SetUp, String> {
    let mut off = Tracer::new(false);
    let (mut setup_s, mut gen_s, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut spent = 0.0;
    loop {
        let started = Instant::now();
        let (mut workload, gen) = workloads::setup(&cfg.workload, &cfg.setup())?;
        let (res, _) = one_op(workload.as_mut(), setup_s.len() as u64, &mut off);
        let took = started.elapsed().as_secs_f64();
        tally.record(&res);
        if setup_s.len() < MIN_SETUPS {
            ratios.extend(res.ratios);
        }
        setup_s.push(took);
        gen_s.push(gen);
        spent += took;
        let enough =
            setup_s.len() >= MAX_SETUPS || (setup_s.len() >= MIN_SETUPS && spent >= SETUP_BUDGET_S);
        if cfg.trace || enough {
            return Ok(SetUp {
                workload,
                setup_s,
                gen_s,
                ratios,
            });
        }
        // `workload` is dropped here, before the next copy is built: two
        // live copies would double the peak RSS the run reports.
    }
}

/// Runs the workload and returns the child's result object.
pub fn run(cfg: &Config) -> Result<Json, String> {
    let mut tally = Tally::default();
    let SetUp {
        workload: mut w,
        mut setup_s,
        mut gen_s,
        mut ratios,
    } = set_up(cfg, &mut tally)?;

    // The op loop. Timed ops are numbered from MAX_SETUPS so their inputs
    // do not depend on how many set-ups ran.
    let mut tr = Tracer::new(cfg.trace);
    let budget = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let (mut walls, mut realised) = (Vec::new(), Vec::new());
    let mut tasks = 0usize;
    let cpu_before = cpu_seconds();
    let loop_started = Instant::now();
    while walls.len() < MIN_OPS || loop_started.elapsed().as_secs_f64() < budget {
        let index = (MAX_SETUPS + walls.len()) as u64;
        let (res, wall) = one_op(w.as_mut(), index, &mut tr);
        tally.record(&res);
        tasks += res.tasks_run;
        realised.extend(res.realised_over_predicted);
        walls.push(wall);
    }
    let cpu = cpu_seconds() - cpu_before;
    let ops = walls.len();
    let total_wall: f64 = walls.iter().sum();
    let op_s_p50 = median(&mut walls); // leaves `walls` sorted
    let (op_s_tail, tail_pct) = tail(&walls);

    let mut metrics: BTreeMap<String, f64> = BTreeMap::new();
    if cfg.trace {
        metrics.extend(per_layer(&tr.per_op()));
        metrics.insert("gen.build_s".into(), median(&mut gen_s));
        metrics.insert("trace.op_s_p50".into(), op_s_p50);
        metrics.insert("trace.op_s_tail".into(), op_s_tail);
        metrics.insert("proc.cpu_s_per_op".into(), cpu / ops as f64);
        for (name, value) in w.extras() {
            metrics.insert(name.into(), value);
        }
        std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
        let path = cfg.out_dir.join(format!("trace-{}.jsonl", cfg.workload));
        tr.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    } else {
        ratios.extend(w.quality());
        if ratios.is_empty() {
            tally.failed += 1;
            tally
                .messages
                .push("no simulator cell for makespan_over_lb".into());
        }
        metrics.insert("setup_s".into(), median(&mut setup_s));
        metrics.insert("op_s_p50".into(), op_s_p50);
        metrics.insert("nodes_per_s".into(), tasks as f64 / total_wall);
        metrics.insert("peak_rss_mb".into(), peak_rss_mb());
        metrics.insert("makespan_over_lb".into(), geometric_mean(&ratios));
        // Workloads without a payload model have nothing to predict: the
        // ratio is 1 by definition there.
        let realised = if realised.is_empty() {
            1.0
        } else {
            median(&mut realised)
        };
        metrics.insert("realised_over_predicted".into(), realised);
    }

    // Emit in catalogue order, every catalogued name exactly once.
    let catalogue: Vec<(&str, &str)> = if cfg.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let metrics = Json::obj(catalogue.into_iter().map(|(name, unit)| {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }));

    Ok(Json::obj([
        ("workload", Json::str(&cfg.workload)),
        ("trace", Json::Bool(cfg.trace)),
        ("ops", Json::Num(ops as f64)),
        ("op_s_tail", Json::Num(op_s_tail)),
        ("tail_pct", Json::Num(tail_pct)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        (
            "failures",
            Json::Arr(tally.messages.into_iter().map(Json::Str).collect()),
        ),
        ("metrics", metrics),
    ]))
}

/// Per-layer metrics of a traced run: each is computed per op from that
/// op's spans and counters, then the median over ops is reported — except
/// counters, which report the first op's value: its inputs are fixed by
/// the seed alone, so the count repeats exactly however many ops ran.
fn per_layer(ops: &[OpAcc]) -> BTreeMap<String, f64> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for acc in ops {
        for (name, value) in derive(acc) {
            samples.entry(name).or_default().push(value);
        }
    }
    samples
        .into_iter()
        .map(|(name, mut values)| {
            let value = if COUNTERS.contains(&name.as_str()) {
                values[0]
            } else {
                median(&mut values)
            };
            (name, value)
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn derive(acc: &OpAcc) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for span in TIMED_SPANS {
        out.push((format!("{span}_s"), acc.dur(span)));
    }
    for counter in COUNTERS {
        out.push((counter.to_string(), acc.count(counter)));
    }
    let mut push = |name: &str, value: f64| out.push((name.to_string(), value));
    push("sim.driver_s", acc.self_s("sim.run"));
    push(
        "sim.ns_per_event",
        ratio(acc.dur("sim.run") * 1e9, acc.count("sim.events")),
    );
    push(
        "sched.callback_ns_per_event",
        ratio(acc.dur("sched.callback") * 1e9, acc.count("run.events")),
    );
    push(
        "sched.peak_actual_over_m",
        ratio(
            acc.count("sched.mem_fraction_sum"),
            acc.count("sched.mem_fraction_n"),
        ),
    );
    let payload = acc.count("runtime.coarse.payload");
    push("runtime.coarse.payload_s", payload);
    if payload > 0.0 {
        push(
            "runtime.coarse.overhead_s",
            acc.dur("runtime.threaded.run") - payload,
        );
    }
    push(
        "runtime.sharded.merge_gap_s",
        acc.count("runtime.sharded.merge_gap"),
    );
    push(
        "runtime.process.merge_gap_s",
        acc.count("runtime.process.merge_gap"),
    );
    for layer in SHARE_LAYERS {
        let own: f64 = acc
            .self_s
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, s)| s)
            // Not `sum()`: an empty f64 sum is -0.0, which prints as "-0".
            .fold(0.0, |a, s| a + s);
        push(&format!("share.{layer}"), ratio(own, acc.wall));
    }
    push("share.harness", ratio(acc.self_s("op"), acc.wall));
    out
}

/// The cross-core wake cost, kept in the ledger: a few ops of the
/// workload in a child the parent did *not* pin, as ns per task.
pub fn run_unpinned(cfg: &Config) -> Result<Json, String> {
    const OPS: usize = 5;
    // The slow placement mode runs ~8× longer; do not let it eat the run.
    const BUDGET_S: f64 = 3.0;
    let (mut w, _) = workloads::setup(&cfg.workload, &cfg.setup())?;
    let mut off = Tracer::new(false);
    let mut per_task = Vec::new();
    let started = Instant::now();
    while per_task.len() < OPS
        && (per_task.is_empty() || started.elapsed().as_secs_f64() < BUDGET_S)
    {
        let (res, wall) = one_op(w.as_mut(), per_task.len() as u64, &mut off);
        if let Some(f) = res.failures.first() {
            return Err(format!("unpinned op failed: {f}"));
        }
        per_task.push(ratio(wall * 1e9, res.tasks_run as f64));
    }
    Ok(Json::obj([(
        "ns_per_task",
        Json::Num(median(&mut per_task)),
    )]))
}
