//! `ordering::minimum_degree` against two oracles: the clique-elimination
//! algorithm it replaced (the permutation must be the same one, vertex for
//! vertex) and `colcount` (the degree a vertex is eliminated at is the
//! off-diagonal count of its column of the factor).

mod reference;

use memtree_multifrontal::colcount::column_counts;
use memtree_multifrontal::elimination_tree;
use memtree_multifrontal::ordering::minimum_degree_with_degrees;
use memtree_multifrontal::SparsePattern;

fn check_against_oracles(what: &str, p: &SparsePattern) {
    let (perm, degrees) = minimum_degree_with_degrees(p);
    assert_eq!(perm, reference::minimum_degree(p), "{what}");
    let q = p.permute(&perm);
    let counts = column_counts(&q, &elimination_tree(&q));
    for (k, (&d, &c)) in degrees.iter().zip(&counts).enumerate() {
        assert_eq!(d as u64 + 1, c, "{what}: step {k}");
    }
}

#[test]
fn matches_reference_on_random_patterns() {
    for seed in [7, 42] {
        let p = SparsePattern::random_connected(2_000, 3_000, seed);
        check_against_oracles(&format!("random_connected(2000, 3000, {seed})"), &p);
    }
}

#[test]
fn matches_reference_on_structured_patterns() {
    check_against_oracles("grid2d(30)", &SparsePattern::grid2d(30));
    check_against_oracles("band(200, 3)", &SparsePattern::band(200, 3));
    // Arrow: a hub adjacent to everything on top of a tridiagonal band, so
    // every elimination but the last few leaves the hub's degree behind.
    let n = 60;
    let arrow: Vec<(usize, usize)> = (1..n)
        .map(|i| (0, i))
        .chain((1..n - 1).map(|i| (i, i + 1)))
        .collect();
    check_against_oracles("arrow", &SparsePattern::from_edges(n, &arrow));
    let star: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, n - 1)).collect();
    check_against_oracles("star", &SparsePattern::from_edges(n, &star));
    // Complete graph: every degree ties at every step.
    let n = 25;
    let complete: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .collect();
    check_against_oracles("complete", &SparsePattern::from_edges(n, &complete));
}

#[test]
fn matches_reference_on_degenerate_patterns() {
    check_against_oracles("n = 1", &SparsePattern::from_edges(1, &[]));
    check_against_oracles("no edges", &SparsePattern::from_edges(7, &[]));
    // Two triangles, a path, an isolated vertex: four components.
    let edges = [
        (0, 1),
        (1, 2),
        (0, 2),
        (3, 4),
        (4, 5),
        (3, 5),
        (6, 7),
        (7, 8),
        (8, 9),
    ];
    check_against_oracles("components", &SparsePattern::from_edges(11, &edges));
}

/// `CaseId::Random(4_000, 6_000, 11)` of the evaluation corpus. The
/// reference needs seconds in release and minutes in debug, so CI runs
/// this one with `cargo test --release -- --ignored`.
#[test]
#[ignore = "evaluation scale: run in release"]
fn matches_reference_at_evaluation_scale() {
    let p = SparsePattern::random_connected(4_000, 6_000, 11);
    check_against_oracles("random_connected(4000, 6000, 11)", &p);
}

/// The four `CaseId::Random` cases of `CorpusSpec::evaluation()`, pinned
/// by an FNV digest of the permutation: a drifted tie-break at the scale
/// the figures run would change every random evaluation tree and its
/// content hash. The reference is too slow to compare here, and debug
/// builds take minutes, so CI runs this with `--release -- --ignored`.
#[test]
#[ignore = "evaluation scale: run in release"]
fn minimum_degree_matches_its_golden_digests_at_evaluation_scale() {
    for (n, extra, seed, digest) in [
        (4_000, 6_000, 11, 0xc555_a9e0_8a02_639d),
        (8_000, 12_000, 12, 0x8a19_952e_a97d_9779),
        (16_000, 24_000, 13, 0xfe7a_a6e9_cd35_9ac5),
        (16_000, 8_000, 14, 0xcc4c_c8bf_25db_1dd5),
    ] {
        let p = SparsePattern::random_connected(n, extra, seed);
        let mut h = memtree_tree::hash::Fnv64::new();
        for v in minimum_degree_with_degrees(&p).0 {
            h.write_u64(v as u64);
        }
        assert_eq!(h.finish(), digest, "random_connected({n}, {extra}, {seed})");
    }
}
