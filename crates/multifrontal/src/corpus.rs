//! The assembly-tree corpus standing in for the paper's 608 UFL trees.
//!
//! Mixes three matrix families to cover the paper's structural spectrum:
//!
//! * **grid Laplacians** (2-D and 3-D) with nested dissection — bushy,
//!   balanced trees with heavy fronts near the root (the typical PDE
//!   matrices of the UFL collection);
//! * **random connected patterns** with minimum degree — irregular trees;
//! * **band matrices** — chain-like elimination trees of extreme height
//!   (the `H ≈ n` regime of Figure 6).
//!
//! Every tree is produced by the full symbolic pipeline:
//! order → permute → elimination tree → postorder → column counts →
//! fundamental supernodes (→ optional amalgamation) → assembly tree.

use crate::assembly::{assembly_tree, AssemblyParams};
use crate::colcount::column_counts;
use crate::etree::{elimination_tree, etree_postorder};
use crate::ordering;
use crate::pattern::SparsePattern;
use crate::supernodes::{amalgamate, fundamental_supernodes, supernode_parents};
use memtree_tree::TaskTree;

/// A corpus configuration.
#[derive(Clone, Debug)]
pub struct CorpusSpec {
    /// 2-D grid sides (each becomes one ND-ordered Laplacian tree).
    pub grids2d: Vec<usize>,
    /// 3-D grid sides.
    pub grids3d: Vec<usize>,
    /// `(order, half_bandwidth)` band matrices (natural order).
    pub bands: Vec<(usize, usize)>,
    /// `(order, extra_edges, seed)` random patterns with minimum degree.
    pub randoms: Vec<(usize, usize, u64)>,
    /// Amalgamation threshold (0 = fundamental supernodes only).
    pub amalgamate_below: usize,
    /// Task sizing knobs.
    pub params: AssemblyParams,
}

impl CorpusSpec {
    /// A small corpus for unit and integration tests (trees of tens to a
    /// few hundreds of nodes).
    pub fn small() -> Self {
        CorpusSpec {
            grids2d: vec![8, 12, 16],
            grids3d: vec![4, 5],
            bands: vec![(300, 1), (200, 3)],
            randoms: vec![(300, 300, 1), (500, 600, 2)],
            amalgamate_below: 0,
            params: AssemblyParams::default(),
        }
    }

    /// The evaluation corpus used by the figure binaries: tree sizes from
    /// roughly a thousand to tens of thousands of nodes, heights from tens
    /// to 10⁵ — matching the paper's spread at laptop scale.
    pub fn evaluation() -> Self {
        CorpusSpec {
            grids2d: vec![40, 60, 80, 100, 120, 150],
            grids3d: vec![10, 14, 18],
            bands: vec![(20_000, 1), (50_000, 1), (100_000, 1), (10_000, 4)],
            randoms: vec![
                (4_000, 6_000, 11),
                (8_000, 12_000, 12),
                (16_000, 24_000, 13),
                (16_000, 8_000, 14),
            ],
            amalgamate_below: 0,
            params: AssemblyParams::default(),
        }
    }

    /// Builds one assembly tree through the full symbolic pipeline.
    pub fn analyze(&self, pattern: &SparsePattern, perm: &[usize]) -> TaskTree {
        let permuted = pattern.permute(perm);
        // Postorder the elimination tree so supernodes are contiguous.
        let et = elimination_tree(&permuted);
        let po = etree_postorder(&et);
        let q = permuted.permute(&po);
        let et = elimination_tree(&q);
        let cc = column_counts(&q, &et);
        let sn = fundamental_supernodes(&et, &cc);
        let par = supernode_parents(&sn, &et);
        let (sn, par) = if self.amalgamate_below > 0 {
            amalgamate(&sn, &par, self.amalgamate_below)
        } else {
            (sn, par)
        };
        assembly_tree(&sn, &par, self.params)
    }

    /// The identities of every tree this corpus contains, in corpus order,
    /// without building anything. Each id can be realised independently
    /// through [`CorpusSpec::build_case`] — the streaming constructor a
    /// windowed sweep uses to keep at most a handful of assembly trees
    /// alive at a time.
    pub fn case_ids(&self) -> Vec<CaseId> {
        let mut out = Vec::new();
        out.extend(self.grids2d.iter().map(|&k| CaseId::Grid2d(k)));
        out.extend(self.grids3d.iter().map(|&k| CaseId::Grid3d(k)));
        out.extend(self.bands.iter().map(|&(n, bw)| CaseId::Band(n, bw)));
        out.extend(
            self.randoms
                .iter()
                .map(|&(n, extra, seed)| CaseId::Random(n, extra, seed)),
        );
        out
    }

    /// Builds the single tree identified by `id` through the full symbolic
    /// pipeline. Deterministic: the same `(spec, id)` always produces the
    /// same `(name, tree)`.
    pub fn build_case(&self, id: &CaseId) -> (String, TaskTree) {
        match *id {
            CaseId::Grid2d(k) => {
                let p = SparsePattern::grid2d(k);
                let perm = ordering::nested_dissection_grid2d(k);
                (format!("grid2d-{k}"), self.analyze(&p, &perm))
            }
            CaseId::Grid3d(k) => {
                let p = SparsePattern::grid3d(k);
                let perm = ordering::nested_dissection_grid3d(k);
                (format!("grid3d-{k}"), self.analyze(&p, &perm))
            }
            CaseId::Band(n, bw) => {
                let p = SparsePattern::band(n, bw);
                let perm = ordering::identity(n);
                (format!("band-{n}-{bw}"), self.analyze(&p, &perm))
            }
            CaseId::Random(n, extra, seed) => {
                let p = SparsePattern::random_connected(n, extra, seed);
                let perm = ordering::minimum_degree(&p);
                (
                    format!("random-{n}-{extra}-{seed}"),
                    self.analyze(&p, &perm),
                )
            }
        }
    }

    /// Generates the whole corpus as `(name, tree)` pairs.
    pub fn build(&self) -> Vec<(String, TaskTree)> {
        self.case_ids()
            .iter()
            .map(|id| self.build_case(id))
            .collect()
    }
}

/// The identity of one corpus tree: which matrix family and which
/// parameters. Realise it with [`CorpusSpec::build_case`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CaseId {
    /// 2-D grid Laplacian of the given side, nested dissection.
    Grid2d(usize),
    /// 3-D grid Laplacian of the given side, nested dissection.
    Grid3d(usize),
    /// Band matrix `(order, half_bandwidth)`, natural order.
    Band(usize, usize),
    /// Random connected pattern `(order, extra_edges, seed)`, minimum
    /// degree.
    Random(usize, usize, u64),
}

/// Builds the corpus described by `spec`.
pub fn assembly_corpus(spec: &CorpusSpec) -> Vec<(String, TaskTree)> {
    spec.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_tree::validate::check_consistency;
    use memtree_tree::TreeStats;

    #[test]
    fn small_corpus_builds_valid_trees() {
        let corpus = assembly_corpus(&CorpusSpec::small());
        assert_eq!(corpus.len(), 9);
        for (name, tree) in &corpus {
            check_consistency(tree).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(tree.len() > 1, "{name} degenerate");
            let root = tree.root();
            assert_eq!(
                tree.output(root),
                0,
                "{name}: root has a contribution block"
            );
        }
    }

    #[test]
    fn corpus_spans_shapes() {
        let corpus = assembly_corpus(&CorpusSpec::small());
        let stats: Vec<(String, u32, usize)> = corpus
            .iter()
            .map(|(n, t)| (n.clone(), TreeStats::compute(t).height, t.len()))
            .collect();
        // Band trees must be the extreme-aspect ones.
        let band = stats
            .iter()
            .find(|(n, _, _)| n.starts_with("band-300"))
            .unwrap();
        assert!(
            band.1 as usize >= band.2 - 2,
            "band tree should be a chain: {band:?}"
        );
        // Grid trees must be much shallower than their size.
        let grid = stats
            .iter()
            .find(|(n, _, _)| n.starts_with("grid2d-16"))
            .unwrap();
        assert!(
            (grid.1 as usize) < grid.2 / 2,
            "ND tree should be shallow: {grid:?}"
        );
    }

    #[test]
    fn case_ids_stream_the_same_corpus() {
        let spec = CorpusSpec::small();
        let eager = spec.build();
        let ids = spec.case_ids();
        assert_eq!(ids.len(), eager.len());
        // Building one id at a time (any order) matches the eager corpus.
        for (id, (want_name, want_tree)) in ids.iter().zip(&eager).rev() {
            let (name, tree) = spec.build_case(id);
            assert_eq!(&name, want_name);
            assert_eq!(&tree, want_tree);
        }
    }

    #[test]
    fn random_trees_match_their_golden_digests() {
        // The sweep cache addresses cells by tree content, so a corpus
        // builder that drifts (a tie-break in `minimum_degree`, say)
        // silently orphans every cached cell of these trees.
        let spec = CorpusSpec::small();
        let digests: Vec<(String, u64)> = spec
            .case_ids()
            .iter()
            .filter(|id| matches!(id, CaseId::Random(..)))
            .map(|id| spec.build_case(id))
            .map(|(name, tree)| (name, tree.content_hash()))
            .collect();
        let golden = [
            ("random-300-300-1".to_string(), 0x190c_e25f_33de_3803),
            ("random-500-600-2".to_string(), 0xc1b1_3ab4_c3c7_6ac8),
        ];
        assert_eq!(digests, golden);
    }

    #[test]
    fn amalgamation_shrinks_trees() {
        let mut spec = CorpusSpec::small();
        let base: usize = assembly_corpus(&spec).iter().map(|(_, t)| t.len()).sum();
        spec.amalgamate_below = 4;
        let merged: usize = assembly_corpus(&spec).iter().map(|(_, t)| t.len()).sum();
        assert!(merged < base, "amalgamation should reduce node count");
    }

    #[test]
    fn trees_are_schedulable() {
        // End-to-end: every corpus tree runs under MemBooking-style
        // sequential memory (peak of the natural postorder) — structural
        // sanity that sizes are consistent.
        for (name, tree) in assembly_corpus(&CorpusSpec::small()) {
            let po = memtree_tree::traverse::postorder(&tree);
            let peak = memtree_tree::memory::sequential_peak(&tree, &po).unwrap();
            assert!(peak > 0, "{name}: zero peak");
        }
    }
}
