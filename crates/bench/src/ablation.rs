//! The two allotment ablations: moldable gangs against sequential tasks
//! (`ablation_moldable`), and the feedback rescheduler against static
//! moldable caps (`ablation_malleable`, DESIGN.md §6.10).

use crate::corpus::Scale;
use crate::runner::{OrderPair, TreeCase};
use memtree_runtime::{Platform, ThreadedPlatform, Workload};
use memtree_sched::{
    AllotmentCaps, HeuristicKind, MemBooking, MoldableMemBooking, PolicySpec,
    ProportionalRescheduler, ReschedulePolicy,
};
use memtree_sim::validate::validate_trace;
use memtree_sim::{simulate, simulate_with, SimConfig, SpeedupModel};
use memtree_tree::TaskSpec;
use std::path::Path;

/// Moldable MemBooking vs sequential tasks across tree shapes and speedup
/// models — on **both** platforms (a future-work extension).
///
/// The sim rows are the engine's *predicted* makespans under a speedup
/// model; the `threaded` rows are *measured* wall-clock seconds from the
/// gang-scheduled executor running a sleep payload, so the prediction can
/// be checked against real threads (the gap is scheduling overhead plus
/// how well shard-splitting approximates the linear model).
pub fn ablation_moldable() {
    let p = 8;
    let cases = vec![
        TreeCase::new(
            "chain-2000",
            memtree_gen::shapes::chain(2000, TaskSpec::new(1, 4, 2.0)),
        ),
        TreeCase::new(
            "caterpillar",
            memtree_gen::shapes::caterpillar(
                300,
                3,
                TaskSpec::new(1, 6, 2.0),
                TaskSpec::new(0, 2, 1.0),
            ),
        ),
        TreeCase::new("synthetic-5k", memtree_gen::synthetic::paper_tree(5000, 77)),
        TreeCase::new(
            "spindle-8x50",
            memtree_gen::shapes::spindle(8, 50, TaskSpec::new(0, 3, 1.0)),
        ),
    ];
    // Sleep payload: models compute time without burning CPU, so gang
    // members genuinely overlap even when the host has fewer cores than
    // workers, and each member's shard (1/q of the sleep) still dominates
    // thread wake-up latency.
    let payload = Workload::Sleep {
        nanos_per_time_unit: 100_000.0,
        max_nanos: 400_000,
    };
    println!("tree,model,platform,seq_makespan,moldable_makespan,gain");
    for c in &cases {
        let m = c.min_memory * 2;
        let mem_po = c.instance(HeuristicKind::MemBooking, OrderPair::default_pair(), m);
        let ao = mem_po.ao();
        let seq = simulate(
            &c.tree,
            SimConfig::new(p, m),
            MemBooking::try_new(&c.tree, ao, ao, m).unwrap(),
        )
        .unwrap()
        .makespan;
        for (label, model) in [
            ("linear", SpeedupModel::Linear),
            (
                "amdahl10",
                SpeedupModel::Amdahl {
                    serial_fraction: 0.1,
                },
            ),
        ] {
            let caps = AllotmentCaps::uniform(&c.tree, p as u32);
            let sched = MoldableMemBooking::try_new(&c.tree, ao, ao, m, caps).unwrap();
            let t = simulate(&c.tree, SimConfig::new(p, m).with_speedup(model), sched).unwrap();
            validate_trace(&c.tree, &t).unwrap();
            println!(
                "{},{label},sim,{seq:.1},{:.1},{:.2}",
                c.name,
                t.makespan,
                seq / t.makespan
            );
        }
        // Threaded: the same specs gang-scheduled on real workers. Shards
        // split the sleep payload evenly, so "measured" plays the role of
        // the linear model plus real-world overheads.
        let threads = ThreadedPlatform::new(p).with_workload(payload);
        let seq_spec = PolicySpec::new(HeuristicKind::MemBooking, m);
        let thr_seq = threads.run(&c.tree, &seq_spec).unwrap();
        let mold_spec = seq_spec
            .clone()
            .with_caps(AllotmentCaps::uniform(&c.tree, p as u32));
        let thr_mold = threads.run(&c.tree, &mold_spec).unwrap();
        println!(
            "{},measured,threaded,{:.4},{:.4},{:.2}",
            c.name,
            thr_seq.makespan,
            thr_mold.makespan,
            thr_seq.makespan / thr_mold.makespan
        );
    }
    println!(
        "# moldability helps most where tree parallelism is scarce (chains), least on wide trees"
    );
    println!("# threaded rows are wall-clock seconds from the gang-scheduled executor");
}

/// The malleable corpus. Gated cases are the skewed-estimate ones: heavy
/// true times, caps from "tiny task" estimates. Chains are the worst case
/// (no tree parallelism to hide the bad caps behind); the caterpillar
/// adds some, so the gain is smaller but must still clear the gate. The
/// spindle (full scale only) is an ungated **contrast** row: its four
/// branches already saturate the machine under cap 1, so the rescheduler
/// has nothing to win there — reported to show where malleability does
/// not help, never expected to clear the gate.
fn skewed_cases(scale: Scale) -> Vec<(TreeCase, bool)> {
    let n = match scale {
        Scale::Quick => 24,
        Scale::Full => 120,
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
    if scale == Scale::Full {
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

/// Static moldable caps vs the feedback rescheduler on the
/// **skewed-estimate corpus** — trees whose allotment caps came from
/// estimates that saw every task as tiny (uniform cap 1), while the true
/// work is heavy. The static run is then near-serial; the rescheduler
/// observes the live backlog and grows the running gangs back to the
/// whole machine.
///
/// Prints one CSV row per case and platform (sim-predicted and
/// threaded-measured makespans for both regimes) and writes
/// `BENCH_malleable.json` into `out_dir` — the artifact the
/// `malleable-smoke` CI job uploads.
///
/// # Errors
/// When the JSON cannot be written, or when a gate fails: on every skewed
/// case the malleable run must beat the static one by ≥ 10 % on the
/// virtual clock, and by ≥ 10 % wall-clock on `ThreadedPlatform` (sleep
/// payload, so the measurement is overlap, not host core count).
pub fn ablation_malleable(scale: Scale, out_dir: &Path) -> Result<(), String> {
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

    let mut entries: Vec<String> = Vec::new();
    let mut violations: Vec<String> = Vec::new();
    println!("tree,platform,static_makespan,malleable_makespan,gain");
    for (c, gated) in &skewed_cases(scale) {
        let m = c.min_memory * 2;
        let mem_po = c.instance(HeuristicKind::MemBooking, OrderPair::default_pair(), m);
        let ao = mem_po.ao();
        // The skewed estimate: every task looks tiny, so every cap is 1
        // and the static moldable schedule degenerates to sequential.
        let caps = AllotmentCaps::uniform(&c.tree, 1);

        let sched = MoldableMemBooking::try_new(&c.tree, ao, ao, m, caps.clone()).unwrap();
        let sim_static = simulate(&c.tree, SimConfig::new(p, m), sched).unwrap();
        validate_trace(&c.tree, &sim_static).unwrap();

        let sched = MoldableMemBooking::try_new(&c.tree, ao, ao, m, caps.clone()).unwrap();
        let mut resched = ProportionalRescheduler::new(&c.tree);
        let sim_malleable =
            simulate_with(&c.tree, SimConfig::new(p, m), sched, Some(&mut resched)).unwrap();
        validate_trace(&c.tree, &sim_malleable).unwrap();
        let (sim_static, sim_malleable) = (sim_static.makespan, sim_malleable.makespan);
        println!(
            "{},sim,{sim_static:.1},{sim_malleable:.1},{:.2}",
            c.name,
            sim_static / sim_malleable
        );

        let spec = PolicySpec::new(HeuristicKind::MemBooking, m).with_caps(caps);
        let threads = ThreadedPlatform::new(p).with_workload(payload);
        let thr_static = threads.run(&c.tree, &spec).unwrap().makespan;
        let thr_malleable = threads
            .with_rescheduler(ReschedulePolicy::new())
            .run(&c.tree, &spec)
            .unwrap()
            .makespan;
        println!(
            "{},threaded,{thr_static:.4},{thr_malleable:.4},{:.2}",
            c.name,
            thr_static / thr_malleable
        );

        if *gated && sim_malleable > 0.9 * sim_static {
            violations.push(format!(
                "{}: sim malleable {sim_malleable:.1} not ≤ 0.9 × static {sim_static:.1}",
                c.name
            ));
        }
        if *gated && thr_malleable > 0.9 * thr_static {
            violations.push(format!(
                "{}: threaded malleable {thr_malleable:.4}s not ≤ 0.9 × static {thr_static:.4}s",
                c.name
            ));
        }
        entries.push(format!(
            "    {{\n      \"case\": \"{}\",\n      \"gated\": {gated},\n      \
             \"sim_static\": {sim_static:.4},\n      \
             \"sim_malleable\": {sim_malleable:.4},\n      \"sim_gain\": {:.4},\n      \
             \"threaded_static_s\": {thr_static:.6},\n      \
             \"threaded_malleable_s\": {thr_malleable:.6},\n      \
             \"threaded_gain\": {:.4}\n    }}",
            c.name,
            sim_static / sim_malleable,
            thr_static / thr_malleable,
        ));
    }

    let json = format!(
        "{{\n  \"scale\": \"{}\",\n  \"processors\": {p},\n  \"gate\": \
         \"malleable <= 0.9 x static on every gated case, sim and threaded\",\n  \
         \"cases\": [\n{}\n  ]\n}}\n",
        scale.label(),
        entries.join(",\n"),
    );
    crate::write_artifact(out_dir, "BENCH_malleable.json", &json)?;
    crate::gate(&violations)
}
