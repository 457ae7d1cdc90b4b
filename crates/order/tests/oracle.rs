//! Oracle tests: the clever traversal algorithms against brute force.

use memtree_gen::large::LargeShape;
use memtree_order::{
    avg_mem_postorder, cp_order, make_order, mem_postorder, optimal_traversal, perf_postorder,
    Order, OrderKind,
};
use memtree_sched::to_reduction_tree;
use memtree_testkit::exhaustive::{
    all_postorders, min_enumerated_postorder_peak, min_topological_peak,
};
use memtree_testkit::{arb_tree, id_layouts, random_topological, reference};
use memtree_tree::memory::{sequential_average_memory, sequential_peak};
use memtree_tree::{NodeId, TreeStats};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// OptSeq reaches the exact optimum over all topological orders.
    #[test]
    fn optseq_is_globally_optimal(tree in arb_tree(10)) {
        let opt = optimal_traversal(&tree);
        let oracle = min_topological_peak(&tree);
        prop_assert_eq!(
            opt.peak, oracle,
            "OptSeq peak {} differs from exhaustive optimum {}", opt.peak, oracle
        );
    }

    /// memPO reaches the exact optimum over all postorders.
    #[test]
    fn mem_postorder_is_postorder_optimal(tree in arb_tree(9)) {
        let po = mem_postorder(&tree);
        let got = sequential_peak(&tree, po.sequence()).unwrap();
        let oracle = min_enumerated_postorder_peak(&tree, 250_000);
        prop_assert_eq!(
            got, oracle,
            "memPO peak {} differs from brute-force postorder optimum {}", got, oracle
        );
    }

    /// The Appendix-A order minimises average memory among all postorders.
    #[test]
    fn avg_mem_postorder_is_optimal(tree in arb_tree(8)) {
        // Average memory needs positive times to be meaningful; remap zeros.
        let tree = tree.map_specs(|_, mut s| { s.time = s.time.max(1.0); s.output = s.output.max(1); s }).unwrap();
        let best = avg_mem_postorder(&tree);
        let best_avg = sequential_average_memory(&tree, best.sequence()).unwrap();
        for po in all_postorders(&tree, 100_000) {
            let avg = sequential_average_memory(&tree, &po).unwrap();
            prop_assert!(
                best_avg <= avg + 1e-9,
                "avgMemPO {} beaten by {} via {:?}", best_avg, avg, po
            );
        }
    }

    /// Dominance chain: OptSeq ≤ memPO ≤ any natural postorder.
    #[test]
    fn peak_dominance_chain(tree in arb_tree(40)) {
        let opt = optimal_traversal(&tree).peak;
        let mem = mem_postorder(&tree).sequential_peak(&tree);
        let natural = sequential_peak(
            &tree,
            &memtree_tree::traverse::postorder(&tree),
        ).unwrap();
        prop_assert!(opt <= mem);
        prop_assert!(mem <= natural);
    }

    /// Every order factory yields a valid topological order and a
    /// consistent rank table.
    #[test]
    fn all_orders_topological(tree in arb_tree(40)) {
        for kind in [
            OrderKind::MemPostorder,
            OrderKind::OptSeq,
            OrderKind::CriticalPath,
            OrderKind::PerfPostorder,
            OrderKind::AvgMemPostorder,
            OrderKind::NaturalPostorder,
        ] {
            let o = make_order(&tree, kind);
            tree.check_topological(o.sequence()).unwrap();
            for (k, &i) in o.sequence().iter().enumerate() {
                prop_assert_eq!(o.rank(i) as usize, k);
            }
            prop_assert_eq!(o.kind(), kind);
        }
    }

    /// memPO, perfPO and avgMemPO are still, bit for bit, "the postorder
    /// with this child priority" as the per-frame-`Vec` traversal emitted
    /// it — memPO although it now reuses the child order its peak
    /// computation sorted. Small sizes make equal priorities common.
    #[test]
    fn postorders_match_the_reference_traversal(tree in arb_tree(40)) {
        let peaks = memtree_order::postorder_peaks(&tree);
        let stats = TreeStats::compute(&tree);
        let mem: Vec<u64> = tree
            .nodes()
            .map(|i| u64::MAX - (peaks[i.index()] - tree.output(i)))
            .collect();
        let perf: Vec<u64> = tree
            .nodes()
            .map(|i| u64::MAX - stats.subtree_cp[i.index()].to_bits())
            .collect();
        let avg: Vec<u64> = tree
            .nodes()
            .map(|i| {
                let (t, f) = (stats.subtree_time[i.index()], tree.output(i));
                let ratio = if f == 0 { f64::INFINITY } else { t / f as f64 };
                u64::MAX - ratio.to_bits()
            })
            .collect();
        for (order, rank) in [
            (mem_postorder(&tree), mem),
            (perf_postorder(&tree), perf),
            (avg_mem_postorder(&tree), avg),
        ] {
            prop_assert_eq!(
                order.sequence(),
                &reference::postorder_with_child_order(&tree, &rank)[..],
                "{}", order.kind()
            );
        }
    }

    /// Renumbered along any topological order, a tree's identity order
    /// *is* that order: rank = id, same sequential peak.
    #[test]
    fn identity_order_of_a_renumbered_tree(tree in arb_tree(40), seed in 0u64..1000) {
        let seq = random_topological(&tree, seed);
        let peak = sequential_peak(&tree, &seq).unwrap();
        let layout = tree.renumbered(seq).unwrap();
        let identity = Order::identity(&layout, OrderKind::OptSeq).unwrap();
        prop_assert_eq!(identity.len(), tree.len());
        prop_assert_eq!(identity.sequential_peak(&layout), peak);
        for (k, &i) in identity.sequence().iter().enumerate() {
            prop_assert_eq!(i.index(), k);
            prop_assert_eq!(identity.rank(i) as usize, k);
            prop_assert_eq!(identity.at(k), i);
        }
        // The drawn tree has an identity order exactly when its ids are
        // topological.
        let ids: Vec<NodeId> = tree.nodes().collect();
        prop_assert_eq!(
            Order::identity(&tree, OrderKind::OptSeq).is_err(),
            tree.check_topological(&ids).is_err()
        );
    }

    /// Every order built from id sweeps equals its walk-based reference —
    /// Liu's peaks, memPO, CP, perfPO, avgMemPO and OptSeq — with parents
    /// numbered above, below or on either side of their children, and on
    /// the RedTree transform (original ids, fictitious leaves appended).
    #[test]
    fn orders_match_the_references_on_every_id_layout(tree in arb_tree(40), seed in 0u64..1000) {
        let [down, up, mixed] = id_layouts(&tree, seed);
        let red = to_reduction_tree(&tree).unwrap().tree;
        for t in [&down, &up, &mixed, &red] {
            let (peaks, mem) = reference::mem_postorder(t);
            prop_assert_eq!(memtree_order::postorder_peaks(t), peaks);
            prop_assert_eq!(mem_postorder(t).sequence(), &mem[..]);
            prop_assert_eq!(cp_order(t).sequence(), &reference::cp_order(t)[..]);
            prop_assert_eq!(perf_postorder(t).sequence(), &reference::perf_postorder(t)[..]);
            prop_assert_eq!(avg_mem_postorder(t).sequence(), &reference::avg_mem_postorder(t)[..]);
            let (opt, peak) = reference::optimal_traversal(t);
            let got = optimal_traversal(t);
            prop_assert_eq!((got.order.sequence(), got.peak), (&opt[..], peak));
        }
    }

    /// CP and perfPO break ties deterministically: two runs agree.
    #[test]
    fn orders_are_deterministic(tree in arb_tree(32)) {
        let (a, b) = (cp_order(&tree), cp_order(&tree));
        prop_assert_eq!(a.sequence(), b.sequence());
        let (a, b) = (perf_postorder(&tree), perf_postorder(&tree));
        prop_assert_eq!(a.sequence(), b.sequence());
    }
}

/// The sweeps at the scale they were written for: memPO and CP of a
/// 10⁶-node tree numbered parents-below (as `memtree_gen::large` builds
/// it) and of its memPO layout (parents above) equal the references.
/// Release mode: `cargo test --release -p memtree_order --test oracle --
/// --ignored`.
#[test]
#[ignore]
fn million_node_orders_match_the_references() {
    let tree = memtree_gen::large::build(LargeShape::Random, 1_000_000, 42);
    let layout = tree
        .renumbered(mem_postorder(&tree).sequence().to_vec())
        .unwrap();
    for t in [&tree, &layout] {
        assert_eq!(
            mem_postorder(t).sequence(),
            &reference::mem_postorder(t).1[..]
        );
        assert_eq!(cp_order(t).sequence(), &reference::cp_order(t)[..]);
    }
}
