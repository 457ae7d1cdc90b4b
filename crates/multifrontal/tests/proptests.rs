//! Property tests of the symbolic-analysis pipeline.

mod reference;

use memtree_multifrontal::colcount::{column_counts, factor_nnz};
use memtree_multifrontal::ordering::{is_permutation, minimum_degree, minimum_degree_with_degrees};
use memtree_multifrontal::{elimination_tree, etree_postorder, CorpusSpec, SparsePattern};
use memtree_tree::validate::check_consistency;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_pattern() -> impl Strategy<Value = SparsePattern> {
    (2usize..40, 0usize..80, 0u64..1000)
        .prop_map(|(n, extra, seed)| SparsePattern::random_connected(n, extra, seed))
}

/// Patterns in the hundreds, with extra edges in proportion: one to two
/// per vertex, as in the `plan-irregular` benchmark. Most of them have a
/// minimum-degree step whose union counts more than 64 local ids, so its
/// bitsets span several words; `arb_pattern` is too small for that.
fn arb_wide_pattern() -> impl Strategy<Value = SparsePattern> {
    (200usize..500, 2usize..5, 0u64..1000)
        .prop_map(|(n, halves, seed)| SparsePattern::random_connected(n, n * halves / 2, seed))
}

/// The degree each vertex is eliminated at is the off-diagonal count of
/// its column of the factor.
fn assert_degrees_are_column_counts(p: &SparsePattern) {
    let (perm, degrees) = minimum_degree_with_degrees(p);
    let q = p.permute(&perm);
    let cc = column_counts(&q, &elimination_tree(&q));
    for (k, (&d, &c)) in degrees.iter().zip(&cc).enumerate() {
        assert_eq!(d as u64 + 1, c, "step {}", k);
    }
}

proptest! {
    /// The elimination tree of a connected pattern is a tree rooted at the
    /// last column, with parents strictly above children.
    #[test]
    fn etree_structure(p in arb_pattern()) {
        let et = elimination_tree(&p);
        let n = p.order();
        prop_assert_eq!(et.len(), n);
        prop_assert_eq!(et[n - 1], None, "last column is the root");
        for (j, &par) in et.iter().enumerate().take(n - 1) {
            let par = par.expect("connected pattern: every column has a parent");
            prop_assert!(par > j, "parent {par} not above column {j}");
        }
        // Postorder covers everything exactly once.
        let po = etree_postorder(&et);
        let mut seen = vec![false; n];
        for &x in &po {
            prop_assert!(!seen[x]);
            seen[x] = true;
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    /// Column counts are consistent: within bounds, and the factor never
    /// has fewer nonzeros than the original lower triangle.
    #[test]
    fn colcount_bounds(p in arb_pattern()) {
        let n = p.order();
        let et = elimination_tree(&p);
        let cc = column_counts(&p, &et);
        for (j, &c) in cc.iter().enumerate() {
            prop_assert!(c >= 1, "column {j} lost its diagonal");
            prop_assert!(c <= (n - j) as u64, "column {j} count {c} exceeds n - j");
        }
        let lower_nnz = n as u64 + (p.nnz_off_diagonal() / 2) as u64;
        prop_assert!(factor_nnz(&cc) >= lower_nnz, "factor lost entries of A");
    }

    /// Minimum degree always emits a permutation, and the permuted pattern
    /// factors with no more fill than the identity order... is NOT a
    /// theorem (MD is a heuristic), so only validity is asserted here.
    #[test]
    fn minimum_degree_validity(p in arb_pattern()) {
        let perm = minimum_degree(&p);
        prop_assert!(is_permutation(&perm, p.order()));
        let q = p.permute(&perm);
        prop_assert_eq!(q.nnz_off_diagonal(), p.nnz_off_diagonal());
    }

    /// The quotient-graph ordering is the clique-elimination ordering it
    /// replaced, tie-breaks included.
    #[test]
    fn minimum_degree_matches_reference(p in arb_pattern()) {
        prop_assert_eq!(minimum_degree(&p), reference::minimum_degree(&p));
    }

    /// An oracle that owes nothing to the old code: the degree a vertex is
    /// eliminated at is the off-diagonal count of its column of the factor.
    #[test]
    fn elimination_degrees_are_column_counts(p in arb_pattern()) {
        assert_degrees_are_column_counts(&p);
    }

    /// Both oracles again, on universes wider than one word.
    #[test]
    fn minimum_degree_matches_reference_on_wide_patterns(p in arb_wide_pattern()) {
        prop_assert_eq!(minimum_degree(&p), reference::minimum_degree(&p));
    }

    #[test]
    fn elimination_degrees_are_column_counts_on_wide_patterns(p in arb_wide_pattern()) {
        assert_degrees_are_column_counts(&p);
    }

    /// `permute` builds its CSC directly; relabelling the edge list and
    /// going through `from_edges` must give the same pattern.
    #[test]
    fn permute_matches_the_edge_list_route(p in arb_pattern(), seed in 0u64..1000) {
        let n = p.order();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.random_range(0..i + 1));
        }
        let mut inv = vec![0; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old] = new;
        }
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|j| p.column(j).iter().map(move |&i| (i as usize, j)))
            .map(|(i, j)| (inv[i], inv[j]))
            .collect();
        prop_assert_eq!(p.permute(&perm), SparsePattern::from_edges(n, &edges));
    }

    /// The full pipeline yields a valid assembly tree whose pivots cover
    /// the matrix exactly once (Σ width = n) and whose root front has no
    /// contribution block.
    #[test]
    fn pipeline_yields_valid_assembly_tree(p in arb_pattern()) {
        let spec = CorpusSpec::small();
        let perm = minimum_degree(&p);
        let tree = spec.analyze(&p, &perm);
        check_consistency(&tree).unwrap();
        prop_assert_eq!(tree.output(tree.root()), 0);
        // Every front is structurally sane: d² = exec + output > 0.
        for i in tree.nodes() {
            prop_assert!(tree.exec(i) + tree.output(i) > 0);
        }
    }

    /// Permuting by a postorder of the elimination tree preserves the
    /// factor size (symmetric permutations never change fill of the tree
    /// they were derived from).
    #[test]
    fn postordering_preserves_fill(p in arb_pattern()) {
        let et = elimination_tree(&p);
        let before = factor_nnz(&column_counts(&p, &et));
        let po = etree_postorder(&et);
        let q = p.permute(&po);
        let et_q = elimination_tree(&q);
        let after = factor_nnz(&column_counts(&q, &et_q));
        prop_assert_eq!(before, after);
    }
}
