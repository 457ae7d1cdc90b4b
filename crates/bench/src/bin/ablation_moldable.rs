//! Ablation (future-work extension): moldable MemBooking vs sequential
//! tasks across tree shapes and speedup models — on **both** platforms.
//!
//! The sim rows are the engine's *predicted* makespans under a speedup
//! model; the `threaded` rows are *measured* wall-clock seconds from the
//! gang-scheduled executor running a spin payload, so the prediction can
//! be checked against real threads (the gap is scheduling overhead plus
//! how well shard-splitting approximates the linear model).
use memtree_bench::TreeCase;
use memtree_runtime::{Platform, ThreadedPlatform, Workload};
use memtree_sched::{AllotmentCaps, HeuristicKind, MemBooking, MoldableMemBooking, PolicySpec};
use memtree_sim::validate::validate_trace;
use memtree_sim::{simulate, SimConfig, SpeedupModel};
use memtree_tree::TaskSpec;

fn main() {
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
        let ao = c.order(memtree_order::OrderKind::MemPostorder);
        let m = c.min_memory * 2;
        let seq = simulate(
            &c.tree,
            SimConfig::new(p, m),
            MemBooking::try_new(&c.tree, &ao, &ao, m).unwrap(),
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
            let sched = MoldableMemBooking::try_new(&c.tree, &ao, &ao, m, caps).unwrap();
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
        // split the spin payload evenly, so "measured" plays the role of
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
