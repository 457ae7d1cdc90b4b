//! Malleable-allotment ablation (DESIGN.md §6.10): static moldable caps
//! vs the feedback rescheduler, on the **skewed-estimate corpus** — trees
//! whose allotment caps came from estimates that saw every task as tiny
//! (uniform cap 1), while the true work is heavy. The static run is then
//! near-serial; the rescheduler observes the live backlog and grows the
//! running gangs back to the whole machine.
//!
//! ```text
//! ablation_malleable [quick|full] [--out-dir DIR]
//! ```
//!
//! Prints one CSV row per case (sim-predicted and threaded-measured
//! makespans for both regimes) and writes `BENCH_malleable.json` into
//! `--out-dir` (default `bench-out`) — the artifact the `malleable-smoke`
//! CI job uploads. Exits 1 when a gate fails: on every skewed case the
//! malleable run must beat the static one by ≥10% on the virtual clock,
//! and by ≥10% wall-clock on `ThreadedPlatform` (sleep payload, so the
//! measurement is overlap, not host core count).

use memtree_bench::{ArgParser, TreeCase};
use memtree_runtime::{Platform, ThreadedPlatform, Workload};
use memtree_sched::{
    AllotmentCaps, HeuristicKind, MoldableMemBooking, PolicySpec, ProportionalRescheduler,
    ReschedulePolicy,
};
use memtree_sim::validate::validate_trace;
use memtree_sim::{simulate, simulate_with, SimConfig};
use memtree_tree::TaskSpec;
use std::io::Write;
use std::path::PathBuf;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: ablation_malleable [quick|full] [--out-dir DIR]");
    std::process::exit(2);
}

/// The corpus. Gated cases are the skewed-estimate ones: heavy true
/// times, caps from "tiny task" estimates. Chains are the worst case (no
/// tree parallelism to hide the bad caps behind); the caterpillar adds
/// some, so the gain is smaller but must still clear the gate. The
/// spindle (full scale only) is an ungated **contrast** row: its four
/// branches already saturate the machine under cap 1, so the rescheduler
/// has nothing to win there — reported to show where malleability does
/// not help, never expected to clear the gate.
fn cases(scale: &str) -> Vec<(TreeCase, bool)> {
    let n = match scale {
        "quick" => 24,
        "full" => 120,
        other => fail(&format!("unknown scale {other:?} (quick|full)")),
    };
    let mut v = vec![
        (
            TreeCase::new(
                "skew-chain",
                memtree_gen::shapes::chain(n, TaskSpec::new(1, 3, 4.0)),
            ),
            true,
        ),
        (
            TreeCase::new(
                "skew-caterpillar",
                memtree_gen::shapes::caterpillar(
                    n / 2,
                    2,
                    TaskSpec::new(1, 4, 4.0),
                    TaskSpec::new(0, 2, 2.0),
                ),
            ),
            true,
        ),
    ];
    if scale == "full" {
        v.push((
            TreeCase::new(
                "contrast-spindle",
                memtree_gen::shapes::spindle(4, n / 4, TaskSpec::new(0, 3, 3.0)),
            ),
            false,
        ));
    }
    v
}

struct Row {
    name: String,
    gated: bool,
    sim_static: f64,
    sim_malleable: f64,
    thr_static: f64,
    thr_malleable: f64,
}

fn main() {
    let mut parser = ArgParser::from_env();
    let out_dir = parser
        .take_value("--out-dir")
        .unwrap_or_else(|e| fail(&e))
        .map_or_else(|| PathBuf::from("bench-out"), PathBuf::from);
    let scale = parser
        .take_positional()
        .or_else(|| std::env::var("MEMTREE_SCALE").ok())
        .unwrap_or_else(|| "quick".into());
    parser.finish().unwrap_or_else(|e| fail(&e));

    let p = 4;
    // Sleep payload: compute time without burning CPU, so gang members
    // genuinely overlap even on a small host and the measured gain is the
    // rescheduler's, not the core count's. 1ms per time unit keeps every
    // malleable shard (1/16 of a task) well above OS sleep granularity —
    // smaller units measure wake-up latency, not overlap.
    let payload = Workload::Sleep {
        nanos_per_time_unit: 1_000_000.0,
        max_nanos: 4_000_000,
    };
    let policy = ReschedulePolicy::default();

    let mut rows: Vec<Row> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    println!("tree,platform,static_makespan,malleable_makespan,gain");
    for (c, gated) in &cases(&scale) {
        let gated = *gated;
        let ao = c.order(memtree_order::OrderKind::MemPostorder);
        let m = c.min_memory * 2;
        // The skewed estimate: every task looks tiny, so every cap is 1
        // and the static moldable schedule degenerates to sequential.
        let caps = AllotmentCaps::uniform(&c.tree, 1);

        let sched = MoldableMemBooking::try_new(&c.tree, &ao, &ao, m, caps.clone()).unwrap();
        let sim_static = simulate(&c.tree, SimConfig::new(p, m), sched).unwrap();
        validate_trace(&c.tree, &sim_static).unwrap();

        let sched = MoldableMemBooking::try_new(&c.tree, &ao, &ao, m, caps.clone()).unwrap();
        let mut resched = ProportionalRescheduler::new(&c.tree, policy);
        let sim_malleable =
            simulate_with(&c.tree, SimConfig::new(p, m), sched, Some(&mut resched)).unwrap();
        validate_trace(&c.tree, &sim_malleable).unwrap();
        println!(
            "{},sim,{:.1},{:.1},{:.2}",
            c.name,
            sim_static.makespan,
            sim_malleable.makespan,
            sim_static.makespan / sim_malleable.makespan
        );

        let spec = PolicySpec::new(HeuristicKind::MemBooking, m).with_caps(caps);
        let threads = ThreadedPlatform::new(p).with_workload(payload);
        let thr_static = threads.run(&c.tree, &spec).unwrap();
        let thr_malleable = threads
            .with_rescheduler(policy)
            .run(&c.tree, &spec)
            .unwrap();
        println!(
            "{},threaded,{:.4},{:.4},{:.2}",
            c.name,
            thr_static.makespan,
            thr_malleable.makespan,
            thr_static.makespan / thr_malleable.makespan
        );

        if gated && sim_malleable.makespan > 0.9 * sim_static.makespan {
            violations.push(format!(
                "{}: sim malleable {:.1} not ≤ 0.9 × static {:.1}",
                c.name, sim_malleable.makespan, sim_static.makespan
            ));
        }
        if gated && thr_malleable.makespan > 0.9 * thr_static.makespan {
            violations.push(format!(
                "{}: threaded malleable {:.4}s not ≤ 0.9 × static {:.4}s",
                c.name, thr_malleable.makespan, thr_static.makespan
            ));
        }
        rows.push(Row {
            name: c.name.clone(),
            gated,
            sim_static: sim_static.makespan,
            sim_malleable: sim_malleable.makespan,
            thr_static: thr_static.makespan,
            thr_malleable: thr_malleable.makespan,
        });
    }

    std::fs::create_dir_all(&out_dir)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", out_dir.display())));
    let json_path = out_dir.join("BENCH_malleable.json");
    let mut json = std::fs::File::create(&json_path)
        .unwrap_or_else(|e| fail(&format!("creating BENCH_malleable.json: {e}")));
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"case\": \"{}\",\n      \"gated\": {},\n      \
                 \"sim_static\": {:.4},\n      \
                 \"sim_malleable\": {:.4},\n      \"sim_gain\": {:.4},\n      \
                 \"threaded_static_s\": {:.6},\n      \"threaded_malleable_s\": {:.6},\n      \
                 \"threaded_gain\": {:.4}\n    }}",
                r.name,
                r.gated,
                r.sim_static,
                r.sim_malleable,
                r.sim_static / r.sim_malleable,
                r.thr_static,
                r.thr_malleable,
                r.thr_static / r.thr_malleable,
            )
        })
        .collect();
    write!(
        json,
        "{{\n  \"scale\": \"{scale}\",\n  \"processors\": {p},\n  \"gate\": \
         \"malleable <= 0.9 x static on every gated case, sim and threaded\",\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
    )
    .unwrap_or_else(|e| fail(&format!("writing BENCH_malleable.json: {e}")));
    println!("wrote {}", json_path.display());

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("gate violation: {v}");
        }
        std::process::exit(1);
    }
}
