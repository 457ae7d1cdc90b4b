//! `memtree-benchmark` — the repo's benchmark harness (README.md).
//!
//! ```text
//! memtree-benchmark [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
//!                   [--quick] [--worker-bin P] [--out-dir D] [--out FILE]
//! memtree-benchmark compare A.json B.json
//! ```
//!
//! The harness itself is single-threaded. It runs every workload in a
//! child process of its own, pinned to one CPU with `taskset` (see the
//! README for why unpinned wall times measure the kernel's thread
//! placement, not the program), collects the child's result line, and
//! prints every metric by name with its unit. Without `--trace` each
//! workload gets an untraced run (the end-to-end metrics) and a traced
//! one (the per-layer metrics).

mod compare;
mod json;
mod metrics;
mod runner;
mod span;
mod stats;
mod workloads;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Seconds one run measures for unless `--seconds` says otherwise; the
/// same number as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 12.0;
const QUICK_SECONDS: f64 = 0.5;

/// The workload whose traced run also gets a few ops in an *unpinned*
/// child, so the cross-core wake cost stays in the ledger.
const UNPINNED_WORKLOAD: &str = "exec-fine";

/// Prefix of the one line a child hands back to the parent.
const RESULT_PREFIX: &str = "RESULT ";

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    worker_bin: PathBuf,
    out_dir: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut args = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: None,
        trace: None,
        quick: false,
        worker_bin: manifest_dir.join("../target/release/memtree-shard-worker"),
        out_dir: manifest_dir.join("out"),
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workloads.push(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--quick" => args.quick = true,
            "--worker-bin" => args.worker_bin = value()?.into(),
            "--out-dir" => args.out_dir = value()?.into(),
            "--out" => args.out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    for w in &args.workloads {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; known: {}",
                workloads::NAMES.join(", ")
            ));
        }
    }
    Ok(args)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }

    fn child_config(&self, workload: &str, trace: bool) -> runner::Config {
        runner::Config {
            workload: workload.to_string(),
            seed: self.seed,
            seconds: self.seconds(),
            trace,
            quick: self.quick,
            worker_bin: self.worker_bin.clone(),
            out_dir: self.out_dir.clone(),
        }
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let outcome = match argv.peek().map(String::as_str) {
        Some("compare") => run_compare(argv.skip(1).collect()),
        Some("child") => run_child(argv.skip(1), runner::run),
        Some("child-unpinned") => run_child(argv.skip(1), runner::run_unpinned),
        _ => parse_args(argv).and_then(|args| run_parent(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("memtree-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_compare(paths: Vec<String>) -> Result<bool, String> {
    let [a, b] = paths.as_slice() else {
        return Err("usage: memtree-benchmark compare A.json B.json".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let disagreements = compare::compare(&load(a)?, &load(b)?)?;
    println!("{disagreements} disagreement(s)");
    Ok(disagreements == 0)
}

fn run_child(
    argv: impl Iterator<Item = String>,
    run: fn(&runner::Config) -> Result<Json, String>,
) -> Result<bool, String> {
    let args = parse_args(argv)?;
    let [workload] = args.workloads.as_slice() else {
        return Err("a child runs exactly one --workload".into());
    };
    let result = run(&args.child_config(workload, args.trace == Some(true)))?;
    println!("{RESULT_PREFIX}{result}");
    Ok(true)
}

// ------------------------------------------------------------- the parent

/// Where children are pinned.
struct Pinning {
    /// `Cpus_allowed_list` of this process.
    allowed: String,
    /// The last allowed CPU, when `taskset` is there to pin to it.
    cpu: Option<u32>,
}

impl Pinning {
    fn detect() -> Pinning {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let allowed = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .map_or(String::new(), |l| l.trim().to_string());
        let last = allowed
            .rsplit([',', '-'])
            .next()
            .and_then(|c| c.parse::<u32>().ok());
        let has_taskset = Command::new("taskset")
            .arg("--version")
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        Pinning {
            allowed,
            cpu: last.filter(|_| has_taskset),
        }
    }

    /// The command line that runs this binary on `cpus`.
    fn command(&self, cpus: Option<&str>) -> Result<Command, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        Ok(match cpus {
            Some(cpus) => {
                let mut c = Command::new("taskset");
                c.args(["-c", cpus]).arg(exe);
                c
            }
            None => Command::new(exe),
        })
    }
}

/// Runs one child to completion and parses its result line.
fn spawn_child(
    mut command: Command,
    mode: &str,
    args: &Args,
    workload: &str,
    trace: bool,
) -> Result<Json, String> {
    command
        .arg(mode)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--worker-bin")
        .arg(&args.worker_bin)
        .arg("--out-dir")
        .arg(&args.out_dir);
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(RESULT_PREFIX))
        .ok_or(format!(
            "the {workload} child ({}) printed no result",
            output.status
        ))?;
    Json::parse(line).map_err(|e| format!("the {workload} child's result: {e}"))
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn metric(metrics: &Json, name: &str) -> f64 {
    metrics.get(name).map_or(0.0, |m| num(m, "value"))
}

fn set_metric(metrics: &mut Json, name: &str, value: f64) {
    if let Some(slot) = metrics.get_mut(name).and_then(|m| m.get_mut("value")) {
        *slot = Json::Num(value);
    }
}

fn print_metrics(metrics: &Json) {
    for (name, m) in metrics.entries() {
        // A layer the workload never enters reads 0; the result file and
        // the contract line keep it, the table leaves it out.
        if num(m, "value") == 0.0 {
            continue;
        }
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {name:<40} {:>16.6} {unit}", num(m, "value"));
    }
}

/// One child's result, as the parent uses it.
struct Run {
    ops: f64,
    op_s_tail: f64,
    tail_pct: f64,
    attempted: f64,
    failed: f64,
    failures: Vec<String>,
    /// `{name: {value, unit}}`, in catalogue order.
    metrics: Json,
}

/// Measures `workload` in a pinned child — plus, for the traced run of
/// `UNPINNED_WORKLOAD`, a few ops in a child free to use every allowed CPU.
fn measure(args: &Args, pinning: &Pinning, workload: &str, trace: bool) -> Result<Run, String> {
    let pin = pinning.cpu.map(|c| c.to_string());
    let child = spawn_child(
        pinning.command(pin.as_deref())?,
        "child",
        args,
        workload,
        trace,
    )?;
    let mut metrics = child.get("metrics").cloned().unwrap_or(Json::Null);
    if trace && workload == UNPINNED_WORKLOAD {
        let all = pin.as_ref().map(|_| pinning.allowed.as_str());
        let aux = spawn_child(
            pinning.command(all)?,
            "child-unpinned",
            args,
            workload,
            false,
        )?;
        set_metric(
            &mut metrics,
            "runtime.threaded.unpinned_ns_per_task",
            num(&aux, "ns_per_task"),
        );
    }
    let failures = child.get("failures").and_then(Json::as_arr).unwrap_or(&[]);
    Ok(Run {
        ops: num(&child, "ops"),
        op_s_tail: num(&child, "op_s_tail"),
        tail_pct: num(&child, "tail_pct"),
        attempted: num(&child, "attempted"),
        failed: num(&child, "failed"),
        failures: failures
            .iter()
            .map(|f| f.as_str().unwrap_or("?").to_string())
            .collect(),
        metrics,
    })
}

impl Run {
    fn print(&self, workload: &str, trace: bool, args: &Args, pinning: &Pinning) {
        println!(
            "== {workload}: {} run, seed {}, {} ops (--seconds {}), {} ==",
            if trace { "traced" } else { "untraced" },
            args.seed,
            self.ops,
            args.seconds(),
            pinning
                .cpu
                .map_or("UNPINNED".to_string(), |c| format!("pinned to cpu {c}")),
        );
        print_metrics(&self.metrics);
        // Printed, gated in neither run: the tail percentile (too unsteady
        // between runs to carry a bound; the traced run has it as
        // `trace.op_s_tail`) and the failure ratio (0 on a healthy run).
        if !trace {
            println!(
                "  {:<40} {:>16.6} s      (p{:.1} of {} ops)",
                "op_s_tail", self.op_s_tail, self.tail_pct, self.ops
            );
        }
        println!(
            "  {:<40} {:>16.6} ratio  ({} of {} ops)",
            "fail_ratio",
            self.failed / self.attempted,
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
    }
}

fn run_parent(args: &Args) -> Result<bool, String> {
    let pinning = Pinning::detect();
    if pinning.cpu.is_none() {
        println!(
            "WARNING: taskset not found — running unpinned; not comparable with pinned results"
        );
    }
    let names: Vec<&str> = if args.workloads.is_empty() {
        workloads::NAMES.to_vec()
    } else {
        args.workloads.iter().map(String::as_str).collect()
    };

    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut entries = Vec::new();
    let mut last_metrics = Json::Null;
    for &name in &names {
        let mut entry: Vec<(&str, Json)> = Vec::new();
        let (mut untraced_p50, mut traced_p50) = (0.0, 0.0);
        if args.trace != Some(true) {
            let run = measure(args, &pinning, name, false)?;
            run.print(name, false, args, &pinning);
            untraced_p50 = metric(&run.metrics, "op_s_p50");
            entry.extend([
                ("ops", Json::Num(run.ops)),
                ("op_s_tail", Json::Num(run.op_s_tail)),
                ("tail_pct", Json::Num(run.tail_pct)),
                ("failed", Json::Num(run.failed)),
                ("fail_ratio", Json::Num(run.failed / run.attempted)),
                ("end_to_end", run.metrics.clone()),
            ]);
            (attempted, failed) = (attempted + run.attempted, failed + run.failed);
            last_metrics = run.metrics;
        }
        if args.trace != Some(false) {
            let run = measure(args, &pinning, name, true)?;
            run.print(name, true, args, &pinning);
            traced_p50 = metric(&run.metrics, "trace.op_s_p50");
            entry.extend([
                ("traced_ops", Json::Num(run.ops)),
                ("traced_tail_pct", Json::Num(run.tail_pct)),
                ("traced_failed", Json::Num(run.failed)),
                ("per_layer", run.metrics.clone()),
            ]);
            (attempted, failed) = (attempted + run.attempted, failed + run.failed);
            last_metrics = run.metrics;
        }
        if untraced_p50 > 0.0 && traced_p50 > 0.0 {
            let overhead = traced_p50 / untraced_p50 - 1.0;
            println!("  {:<40} {overhead:>16.6} ratio", "trace_overhead");
            entry.push(("trace_overhead", Json::Num(overhead)));
        }
        entries.push((name, Json::obj(entry)));
    }

    let result = Json::obj([
        ("env", environment(args, &pinning)),
        ("catalogue", metrics::catalogue()),
        ("workloads", Json::obj(entries)),
    ]);
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))?;
    let out = args.out.clone().unwrap_or(args.out_dir.join("result.json"));
    std::fs::write(&out, format!("{result}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("result file: {}", out.display());
    println!("fail_ratio overall: {failed} of {attempted} ops");

    // One workload and one kind of run asked for: the driver's contract.
    // Its last line of standard output is this object and nothing else.
    if let ([_], Some(_)) = (names.as_slice(), args.trace) {
        println!(
            "{}",
            Json::obj([
                ("correct", Json::Bool(failed == 0.0)),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("metrics", last_metrics),
            ])
        );
    }
    Ok(failed == 0.0)
}

/// First line of `program args…`'s standard output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or("unknown".into())
}

/// Everything a reader needs to judge whether two result files compare.
fn environment(args: &Args, pinning: &Pinning) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
    // Cache sizes of the CPU the children ran on: `sim-million`'s working
    // set is read against them.
    let cache = |index: u32| {
        let cpu = pinning.cpu.unwrap_or(0);
        std::fs::read_to_string(format!(
            "/sys/devices/system/cpu/cpu{cpu}/cache/index{index}/size"
        ))
        .map_or("unknown".to_string(), |s| s.trim().to_string())
    };
    Json::obj([
        (
            "git_commit",
            Json::str(first_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("cpu_model", Json::str(cpu_model)),
        ("cpus_allowed", Json::str(&pinning.allowed)),
        ("pinned", Json::Bool(pinning.cpu.is_some())),
        (
            "pinned_cpu",
            pinning.cpu.map_or(Json::Null, |c| Json::Num(c as f64)),
        ),
        ("l2_cache", Json::str(cache(2))),
        ("l3_cache", Json::str(cache(3))),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds())),
        ("quick", Json::Bool(args.quick)),
    ])
}
