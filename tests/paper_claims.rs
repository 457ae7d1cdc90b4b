//! Executable checks of the paper's headline claims, at test scale.

use memtree::gen::synthetic::paper_tree;
use memtree::order::{make_order, mem_postorder, optimal_traversal, OrderKind};
use memtree::sched::{Activation, MemBooking, MemBookingRef, RedTreeBooking};
use memtree::sim::{simulate, simulate_summary, SimConfig};
use std::time::Instant;

/// Theorem 1: MemBooking completes any tree whose AO fits sequentially —
/// across order kinds, processor counts and the exact minimum bound.
#[test]
fn theorem1_termination_at_minimum_memory() {
    for seed in 0..6 {
        let tree = paper_tree(400, seed);
        for ao_kind in [
            OrderKind::MemPostorder,
            OrderKind::OptSeq,
            OrderKind::PerfPostorder,
        ] {
            let ao = make_order(&tree, ao_kind);
            let m = ao.sequential_peak(&tree);
            for p in [1, 2, 8, 32] {
                let s = MemBooking::try_new(&tree, &ao, &ao, m).unwrap();
                let trace = simulate(&tree, SimConfig::new(p, m), s)
                    .unwrap_or_else(|e| panic!("seed {seed} {ao_kind:?} p={p}: {e}"));
                assert_eq!(trace.records.len(), tree.len());
            }
        }
    }
}

/// Section 7.3: MemBooking's speedup over Activation grows as memory
/// tightens, and vanishes when memory is plentiful.
#[test]
fn speedup_concentrates_at_tight_memory() {
    let mut tight_speedups = Vec::new();
    let mut loose_speedups = Vec::new();
    for seed in 0..10 {
        let tree = paper_tree(600, 100 + seed);
        let ao = mem_postorder(&tree);
        let min_m = ao.sequential_peak(&tree);
        let makespan = |factor: u64, membooking: bool| {
            let m = min_m * factor;
            if membooking {
                let s = MemBooking::try_new(&tree, &ao, &ao, m).unwrap();
                simulate(&tree, SimConfig::new(8, m), s).unwrap().makespan
            } else {
                let s = Activation::try_new(&tree, &ao, &ao, m).unwrap();
                simulate(&tree, SimConfig::new(8, m), s).unwrap().makespan
            }
        };
        tight_speedups.push(makespan(1, false) / makespan(1, true));
        loose_speedups.push(makespan(50, false) / makespan(50, true));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (tight, loose) = (mean(&tight_speedups), mean(&loose_speedups));
    assert!(
        tight > 1.02,
        "under tight memory MemBooking should win on average: {tight}"
    );
    assert!(
        (loose - 1.0).abs() < 0.02,
        "with plentiful memory the heuristics should coincide: {loose}"
    );
    assert!(tight > loose, "speedup must concentrate at tight memory");
}

/// Section 3.2 / 7.4: the reduction-tree baseline needs strictly more
/// memory than MemBooking on most general trees — the "unable to schedule"
/// phenomenon.
#[test]
fn redtree_requires_more_memory() {
    let mut worse = 0;
    let total = 10;
    for seed in 0..total {
        let tree = paper_tree(400, 200 + seed);
        let ao = mem_postorder(&tree);
        let min_m = ao.sequential_peak(&tree);
        let tr = memtree::sched::to_reduction_tree(&tree).unwrap();
        let red_ao = mem_postorder(&tr.tree);
        let red_min = RedTreeBooking::min_memory(&tr.tree, &red_ao);
        assert!(red_min >= min_m);
        if red_min > min_m {
            worse += 1;
        }
    }
    assert!(
        worse >= 8,
        "RedTree should need more memory on most trees: {worse}/{total}"
    );
}

/// Section 7.2 setup: OptSeq's peak is a valid, sometimes smaller,
/// normalisation base than memPO's.
#[test]
fn optseq_no_worse_than_mempo_at_scale() {
    for seed in 0..6 {
        let tree = paper_tree(2_000, 300 + seed);
        let opt = optimal_traversal(&tree);
        let po = mem_postorder(&tree);
        assert!(opt.peak <= po.sequential_peak(&tree));
        assert_eq!(opt.peak, opt.order.sequential_peak(&tree));
    }
}

/// Theorem 3 in anger: the memory-aware bound is respected by every
/// heuristic and becomes the *binding* bound under tight memory for
/// parallel-rich trees.
#[test]
fn memory_aware_bound_binds_under_pressure() {
    let tree = memtree::gen::shapes::spindle(16, 12, memtree::tree::TaskSpec::new(0, 10, 1.0));
    let ao = mem_postorder(&tree);
    let min_m = ao.sequential_peak(&tree);
    let p = 16;
    let lb = memtree::sched::LowerBounds::compute(&tree, p, min_m);
    assert!(
        lb.memory_bound_improves(),
        "for a wide spindle at minimum memory the memory bound must bind: {lb:?}"
    );
    let s = MemBooking::try_new(&tree, &ao, &ao, min_m).unwrap();
    let trace = simulate(&tree, SimConfig::new(p, min_m), s).unwrap();
    assert!(trace.makespan >= lb.memory_aware - 1e-9);
}

/// Appendix B: the optimised MemBooking (rank queues, amortised booking
/// walks) schedules the same tree as the literal Algorithms 2–4 at a
/// fraction of the cost. Best of five mint-and-run timings per kind, on a
/// 2 000-node synthetic tree, p = 8, M = 2 × the memPO peak; the makespans
/// must agree exactly. Wall-clock, so release only:
/// `cargo test --release --test paper_claims -- --ignored appendix_b`.
#[test]
#[ignore = "wall-clock claim; run in release"]
fn appendix_b_membooking_outpaces_the_literal_algorithms() {
    let tree = paper_tree(2_000, 7);
    let ao = mem_postorder(&tree);
    let m = ao.sequential_peak(&tree) * 2;
    let cfg = SimConfig::new(8, m);
    let best_of_five = |optimised: bool| {
        let mut best = (f64::INFINITY, 0.0);
        for _ in 0..5 {
            let t0 = Instant::now();
            let run = if optimised {
                let s = MemBooking::try_new(&tree, &ao, &ao, m).unwrap();
                simulate_summary(&tree, cfg, s, None)
            } else {
                let s = MemBookingRef::try_new(&tree, &ao, &ao, m).unwrap();
                simulate_summary(&tree, cfg, s, None)
            };
            let (makespan, _) = run.unwrap();
            best = (best.0.min(t0.elapsed().as_secs_f64()), makespan);
        }
        best
    };
    let (fast, fast_makespan) = best_of_five(true);
    let (literal, literal_makespan) = best_of_five(false);
    assert_eq!(fast_makespan, literal_makespan, "the same schedule");
    assert!(
        literal >= 4.0 * fast,
        "MemBooking {:.3} ms vs MemBookingRef {:.3} ms: under 4 x",
        fast * 1e3,
        literal * 1e3
    );
}
