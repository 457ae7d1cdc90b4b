//! Corpora for the experiments: assembly trees (multifrontal pipeline)
//! and the paper's synthetic family.
//!
//! Each corpus is a streaming `*_source` (a lazy [`CaseSource`] of cheap
//! descriptors realised on demand), which is what the windowed
//! [`crate::Sweep`] consumes to keep peak RSS bounded by its in-flight
//! window instead of the corpus size.

use crate::runner::{CaseSource, TreeCase};
use memtree_multifrontal::CorpusSpec;
use std::sync::Arc;

/// Experiment scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small corpora: every binary finishes in seconds to a couple of
    /// minutes. The default.
    Quick,
    /// Paper-sized corpora (within laptop limits).
    Full,
}

impl Scale {
    /// The CLI spelling: `quick` or `full`.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

fn assembly_spec(scale: Scale) -> CorpusSpec {
    match scale {
        Scale::Quick => CorpusSpec {
            grids2d: vec![20, 30, 40, 50],
            grids3d: vec![7, 9],
            bands: vec![(3_000, 1), (8_000, 1), (2_000, 3)],
            randoms: vec![(1_500, 2_200, 11), (3_000, 4_500, 12), (3_000, 1_500, 13)],
            amalgamate_below: 0,
            params: Default::default(),
        },
        Scale::Full => CorpusSpec::evaluation(),
    }
}

/// The assembly-tree corpus (the UFL-collection stand-in; DESIGN.md §5)
/// as a streaming source: each tree runs the symbolic pipeline only when
/// its sweep window arrives.
pub fn assembly_source(scale: Scale) -> CaseSource {
    let spec = Arc::new(assembly_spec(scale));
    let mut source = CaseSource::new();
    for id in spec.case_ids() {
        let spec = spec.clone();
        source.push_lazy(move || {
            let (name, tree) = spec.build_case(&id);
            TreeCase::new(name, tree)
        });
    }
    source
}

/// (node count, number of trees) per scale.
fn synthetic_plan(scale: Scale) -> &'static [(usize, usize)] {
    match scale {
        Scale::Quick => &[(1_000, 12), (10_000, 6)],
        Scale::Full => &[(1_000, 50), (10_000, 50), (100_000, 12)],
    }
}

/// The synthetic corpus of Section 7.1 as a streaming source: each tree
/// is generated from its seed when its sweep window arrives.
pub fn synthetic_source(scale: Scale) -> CaseSource {
    let mut source = CaseSource::new();
    for &(n, count) in synthetic_plan(scale) {
        for k in 0..count {
            let seed = 1_000 * n as u64 + k as u64;
            source.push_lazy(move || {
                TreeCase::new(
                    format!("synth-{n}-{k}"),
                    memtree_gen::synthetic::paper_tree(n, seed),
                )
            });
        }
    }
    source
}

/// The memory factors swept by the makespan figures (the paper's x-axis
/// "normalized memory bound", 1…20 for assembly trees, 1…10 synthetic).
pub fn memory_factors(scale: Scale, max: f64) -> Vec<f64> {
    let base: Vec<f64> = match scale {
        Scale::Quick => vec![1.0, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0, 15.0, 20.0],
        Scale::Full => vec![
            1.0, 1.1, 1.2, 1.4, 1.6, 1.8, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 15.0, 20.0,
        ],
    };
    base.into_iter().filter(|&f| f <= max).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_corpora_build() {
        let a = assembly_source(Scale::Quick);
        assert!(a.len() >= 8);
        let s = synthetic_source(Scale::Quick);
        assert_eq!(s.len(), 18);
        for c in a.iter().chain(s.iter()) {
            assert!(c.min_memory > 0, "{} has zero minimum memory", c.name);
        }
    }

    #[test]
    fn sources_stream_the_same_corpora() {
        // The synthetic source realises exactly the seeded generator trees.
        let source = synthetic_source(Scale::Quick);
        let plan = synthetic_plan(Scale::Quick);
        let seeds = plan
            .iter()
            .flat_map(|&(n, count)| (0..count).map(move |k| (n, k, 1_000 * n as u64 + k as u64)));
        for (got, (n, k, seed)) in source.iter().zip(seeds) {
            assert_eq!(got.name, format!("synth-{n}-{k}"));
            let want = memtree_gen::synthetic::paper_tree(n, seed);
            assert_eq!(got.tree.content_hash(), want.content_hash());
        }
        // Assembly: the source streams the pipeline's corpus, in order.
        let asm_source = assembly_source(Scale::Quick);
        let spec = assembly_spec(Scale::Quick);
        assert_eq!(asm_source.len(), spec.case_ids().len());
        let first = asm_source.build(0);
        assert_eq!(first.name, "grid2d-20");
        assert!(first.min_memory > 0);
        let (name, tree) = spec.build_case(&spec.case_ids()[0]);
        assert_eq!(first.name, name);
        assert_eq!(first.tree.content_hash(), tree.content_hash());
    }

    #[test]
    fn factors_capped() {
        let f = memory_factors(Scale::Quick, 10.0);
        assert!(f.iter().all(|&x| x <= 10.0));
        assert_eq!(f[0], 1.0);
    }
}
