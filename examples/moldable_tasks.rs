//! The paper's future-work extension in action: moldable tasks under
//! MemBooking's memory envelope.
//!
//! A deep assembly-tree chain has no tree parallelism — sequential-task
//! scheduling is stuck at the serial time. Giving MemBooking the ability
//! to mold tasks onto several processors (with Amdahl-law speedup)
//! recovers parallel efficiency while the memory guarantee is untouched.
//!
//! Run with `cargo run --release --example moldable_tasks`.

use memtree::order::mem_postorder;
use memtree::runtime::{Platform, ThreadedPlatform, Workload};
use memtree::sched::{AllotmentCaps, HeuristicKind, MemBooking, MoldableMemBooking, PolicySpec};
use memtree::sim::validate::validate_trace;
use memtree::sim::{simulate, SimConfig, SpeedupModel};

fn main() {
    // A band matrix's assembly tree: essentially a chain of fronts.
    // Rescale flops so times are readable (entry = 1 KiB, µs per flop).
    let pattern = memtree::multifrontal::SparsePattern::band(3000, 2);
    let mut spec = memtree::multifrontal::CorpusSpec::small();
    spec.params = memtree::multifrontal::AssemblyParams {
        entry_size: 8,
        time_scale: 1.0,
    };
    let tree = spec.analyze(&pattern, &(0..3000).collect::<Vec<_>>());
    let stats = memtree::tree::TreeStats::compute(&tree);
    println!(
        "band-matrix assembly tree: {} fronts, height {} (chain-like)",
        tree.len(),
        stats.height
    );

    let ao = mem_postorder(&tree);
    let m = ao.sequential_peak(&tree) * 2;
    let p = 8;

    // Baseline: sequential tasks. A chain cannot use more than one core.
    let seq = MemBooking::try_new(&tree, &ao, &ao, m).expect("feasible");
    let seq_trace = simulate(&tree, SimConfig::new(p, m), seq).expect("completes");
    println!(
        "sequential tasks : makespan {:10.1} (tree parallelism only)",
        seq_trace.makespan
    );

    // Moldable tasks under three speedup models.
    for (label, model) in [
        ("linear speedup  ", SpeedupModel::Linear),
        (
            "Amdahl f = 0.10 ",
            SpeedupModel::Amdahl {
                serial_fraction: 0.10,
            },
        ),
        (
            "Amdahl f = 0.50 ",
            SpeedupModel::Amdahl {
                serial_fraction: 0.50,
            },
        ),
    ] {
        // Fronts are dense kernels: let any of them use every core.
        let caps = AllotmentCaps::uniform(&tree, p as u32);
        let sched = MoldableMemBooking::try_new(&tree, &ao, &ao, m, caps).expect("feasible");
        // Same engine, same trace, same validator as the sequential run:
        // only the allotments and the speedup model differ.
        let cfg = SimConfig::new(p, m).with_speedup(model);
        let trace = simulate(&tree, cfg, sched).expect("completes");
        validate_trace(&tree, &trace).expect("valid");
        println!(
            "moldable, {label}: makespan {:10.1} ({:.2}x vs sequential tasks), peak mem {}/{}",
            trace.makespan,
            seq_trace.makespan / trace.makespan,
            trace.peak_actual,
            m
        );
    }

    // The predictions above, validated on real threads: the same moldable
    // spec gang-schedules its allotments onto the worker pool. A sleep
    // payload stands in for compute time, so gang members overlap even on
    // small hosts.
    let payload = Workload::Sleep {
        nanos_per_time_unit: 50_000.0,
        max_nanos: 400_000,
    };
    let threads = ThreadedPlatform::new(p).with_workload(payload);
    let seq_spec = PolicySpec::new(HeuristicKind::MemBooking, m);
    let thr_seq = threads.run(&tree, &seq_spec).expect("completes");
    let mold_spec = seq_spec
        .clone()
        .with_caps(AllotmentCaps::uniform(&tree, p as u32));
    let thr_mold = threads.run(&tree, &mold_spec).expect("completes");
    println!(
        "threaded (measured): sequential {:.3}s, gang-scheduled {:.3}s ({:.2}x), peak mem {}/{}",
        thr_seq.makespan,
        thr_mold.makespan,
        thr_seq.makespan / thr_mold.makespan,
        thr_mold.peak_actual,
        m
    );
}
