//! The experiment implementations behind every figure and table.
//!
//! Each function returns a [`FigureOutput`]; the `memtree-bench` entries
//! ([`crate::experiments`]) print it. The `notes` field carries the shape
//! summary: who wins, by what factor, where the curves cross.
//!
//! Every simulator-backed figure runs its scenario grid through
//! [`Sweep`], so the (tree × policy × p × memory) cells fan out across
//! all cores and stream through a bounded case window. Aggregations read
//! the report's cells and per-case metadata — never the trees
//! themselves, which the streaming sweep has already dropped.

use crate::aggregate::Summary;
use crate::runner::{Backend, CaseSource, OrderPair};
use crate::sweep::{Sweep, SweepReport};
use memtree_sched::{HeuristicKind, PolicySpec};

/// CSV payload plus human-readable findings.
pub struct FigureOutput {
    /// CSV header.
    pub header: String,
    /// CSV rows.
    pub rows: Vec<String>,
    /// Shape-summary lines (printed after the CSV, `# `-prefixed).
    pub notes: Vec<String>,
}

impl FigureOutput {
    /// Prints the CSV and notes to stdout.
    pub fn emit(&self) {
        crate::print_csv(&self.header, &self.rows);
        for n in &self.notes {
            println!("# {n}");
        }
    }
}

/// The three heuristics of the headline comparison.
fn main_heuristics() -> Vec<HeuristicKind> {
    vec![
        HeuristicKind::Activation,
        HeuristicKind::MemBookingRedTree,
        HeuristicKind::MemBooking,
    ]
}

/// The sweep-execution note shared by every figure.
fn sweep_note(report: &SweepReport, p: usize) -> String {
    format!(
        "corpus size: {} trees, p = {p}; {} sweep cells on {} threads",
        report.case_count(),
        report.cells.len(),
        report.threads_used,
    )
}

/// Normalized makespans of the scheduled cells in a series.
fn scheduled_normalized(
    report: &SweepReport,
    kind: HeuristicKind,
    pair: OrderPair,
    p: usize,
    factor: f64,
) -> Vec<f64> {
    report
        .series(kind, pair, p, factor)
        .filter(|c| c.outcome.scheduled)
        .map(|c| c.outcome.normalized)
        .collect()
}

/// Figures 2 and 10: normalized makespan vs normalized memory bound for
/// the three heuristics.
pub fn fig_makespan(cases: &CaseSource, p: usize, factors: &[f64]) -> FigureOutput {
    let report = Sweep::new(cases)
        .kinds(main_heuristics())
        .processors(vec![p])
        .factors(factors.to_vec())
        .run();
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let mut mb_at_2 = f64::NAN;
    let mut ac_at_2 = f64::NAN;
    for &factor in factors {
        for kind in main_heuristics() {
            let label = kind.label();
            let scheduled =
                scheduled_normalized(&report, kind, OrderPair::default_pair(), p, factor);
            let coverage = scheduled.len() as f64 / report.case_count() as f64;
            if let Some(s) = Summary::of(&scheduled) {
                rows.push(format!(
                    "{factor},{label},{:.4},{:.4},{:.3}",
                    s.mean, s.median, coverage
                ));
                if (factor - 2.0).abs() < 1e-9 {
                    if kind == HeuristicKind::MemBooking {
                        mb_at_2 = s.mean;
                    }
                    if kind == HeuristicKind::Activation {
                        ac_at_2 = s.mean;
                    }
                }
            } else {
                rows.push(format!("{factor},{label},NA,NA,{coverage:.3}"));
            }
        }
    }
    if mb_at_2.is_finite() && ac_at_2.is_finite() {
        notes.push(format!(
            "at memory factor 2: MemBooking mean normalized makespan {mb_at_2:.3} vs Activation {ac_at_2:.3} (ratio {:.2})",
            ac_at_2 / mb_at_2
        ));
    }
    notes.push(sweep_note(&report, p));
    FigureOutput {
        header:
            "memory_factor,heuristic,mean_normalized_makespan,median_normalized_makespan,coverage"
                .into(),
        rows,
        notes,
    }
}

/// Per-factor speedups of MemBooking over Activation (cells paired by
/// tree; only trees both policies scheduled count).
fn speedups_at(report: &SweepReport, p: usize, factor: f64) -> Vec<f64> {
    let pair = OrderPair::default_pair();
    (0..report.case_count())
        .filter_map(|ci| {
            let mb = report.cell(ci, HeuristicKind::MemBooking, pair, p, factor)?;
            let ac = report.cell(ci, HeuristicKind::Activation, pair, p, factor)?;
            (mb.outcome.scheduled && ac.outcome.scheduled && mb.outcome.makespan > 0.0)
                .then(|| ac.outcome.makespan / mb.outcome.makespan)
        })
        .collect()
}

/// Figures 3 and 11: the speedup distribution of MemBooking over
/// Activation per memory factor.
pub fn fig_speedup(cases: &CaseSource, p: usize, factors: &[f64]) -> FigureOutput {
    let report = Sweep::new(cases)
        .kinds(vec![HeuristicKind::MemBooking, HeuristicKind::Activation])
        .processors(vec![p])
        .factors(factors.to_vec())
        .run();
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for &factor in factors {
        let speedups = speedups_at(&report, p, factor);
        if let Some(s) = Summary::of(&speedups) {
            rows.push(format!(
                "{factor},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
                s.mean, s.median, s.d1, s.d9, s.min, s.max
            ));
            if (factor - 2.0).abs() < 1e-9 {
                notes.push(format!(
                    "speedup at factor 2: mean {:.3}, median {:.3}, range [{:.2}, {:.2}] (paper: avg 1.25-1.45 on assembly trees)",
                    s.mean, s.median, s.min, s.max
                ));
            }
        }
    }
    FigureOutput {
        header: "memory_factor,mean_speedup,median_speedup,decile1,decile9,min,max".into(),
        rows,
        notes,
    }
}

/// Figures 4 and 12: fraction of the memory bound actually used.
pub fn fig_memfrac(cases: &CaseSource, p: usize, factors: &[f64]) -> FigureOutput {
    let report = Sweep::new(cases)
        .kinds(main_heuristics())
        .processors(vec![p])
        .factors(factors.to_vec())
        .run();
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for &factor in factors {
        for kind in main_heuristics() {
            let fr: Vec<f64> = report
                .series(kind, OrderPair::default_pair(), p, factor)
                .filter(|c| c.outcome.scheduled)
                .map(|c| c.outcome.memory_fraction)
                .collect();
            if let Some(s) = Summary::of(&fr) {
                rows.push(format!(
                    "{factor},{},{:.4},{:.4}",
                    kind.label(),
                    s.mean,
                    s.median
                ));
                if (factor - 2.0).abs() < 1e-9 && kind == HeuristicKind::MemBooking {
                    notes.push(format!(
                        "MemBooking uses {:.0}% of the bound at factor 2 — the competitors are more conservative",
                        100.0 * s.mean
                    ));
                }
            }
        }
    }
    FigureOutput {
        header: "memory_factor,heuristic,mean_memory_fraction,median_memory_fraction".into(),
        rows,
        notes,
    }
}

/// Figures 5, 6 and 13: scheduling time against tree size and height.
pub fn fig_schedtime(cases: &CaseSource, p: usize, factor: f64) -> FigureOutput {
    let report = Sweep::new(cases)
        .kinds(main_heuristics())
        .processors(vec![p])
        .factors(vec![factor])
        .run();
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    let mut worst_per_node = 0f64;
    for (ci, meta) in report.cases.iter().enumerate() {
        for kind in main_heuristics() {
            let Some(cell) = report.cell(ci, kind, OrderPair::default_pair(), p, factor) else {
                continue;
            };
            if !cell.outcome.scheduled {
                continue;
            }
            let per_node = cell.outcome.scheduling_seconds / meta.nodes as f64;
            worst_per_node = worst_per_node.max(per_node);
            rows.push(format!(
                "{},{},{},{},{:.6e},{:.6e}",
                meta.name,
                meta.nodes,
                meta.height,
                kind.label(),
                cell.outcome.scheduling_seconds,
                per_node
            ));
        }
    }
    notes.push(format!(
        "worst scheduling time per node: {worst_per_node:.2e} s (paper: below 1 ms per node even at height 1e5)"
    ));
    FigureOutput {
        header: "tree,nodes,height,heuristic,scheduling_seconds,seconds_per_node".into(),
        rows,
        notes,
    }
}

/// Figure 7: speedup of MemBooking over Activation against tree height at
/// a fixed memory factor.
pub fn fig_speedup_height(cases: &CaseSource, p: usize, factor: f64) -> FigureOutput {
    let report = Sweep::new(cases)
        .kinds(vec![HeuristicKind::MemBooking, HeuristicKind::Activation])
        .processors(vec![p])
        .factors(vec![factor])
        .run();
    let pair = OrderPair::default_pair();
    let mut rows = Vec::new();
    let mut shallow = Vec::new();
    let mut deep = Vec::new();
    for (ci, meta) in report.cases.iter().enumerate() {
        let (Some(mb), Some(ac)) = (
            report.cell(ci, HeuristicKind::MemBooking, pair, p, factor),
            report.cell(ci, HeuristicKind::Activation, pair, p, factor),
        ) else {
            continue;
        };
        if mb.outcome.scheduled && ac.outcome.scheduled && mb.outcome.makespan > 0.0 {
            let s = ac.outcome.makespan / mb.outcome.makespan;
            rows.push(format!(
                "{},{},{},{:.4}",
                meta.name, meta.nodes, meta.height, s
            ));
            if (meta.height as usize) * 4 > meta.nodes {
                deep.push(s);
            } else {
                shallow.push(s);
            }
        }
    }
    let mut notes = Vec::new();
    if let (Some(sh), Some(dp)) = (Summary::of(&shallow), Summary::of(&deep)) {
        notes.push(format!(
            "mean speedup: shallow trees {:.3} vs deep trees {:.3} (paper: best speedups on shallow trees)",
            sh.mean, dp.mean
        ));
    }
    FigureOutput {
        header: "tree,nodes,height,speedup_vs_activation".into(),
        rows,
        notes,
    }
}

/// Figures 8 and 14: MemBooking under the six AO/EO combinations.
pub fn fig_orders(cases: &CaseSource, p: usize, factors: &[f64]) -> FigureOutput {
    let report = Sweep::new(cases)
        .kinds(vec![HeuristicKind::MemBooking])
        .pairs(OrderPair::paper_combinations())
        .processors(vec![p])
        .factors(factors.to_vec())
        .run();
    let mut rows = Vec::new();
    let mut best_at_2: Option<(String, f64)> = None;
    for &factor in factors {
        for pair in OrderPair::paper_combinations() {
            let vals: Vec<f64> = report
                .series(HeuristicKind::MemBooking, pair, p, factor)
                .filter(|c| c.outcome.scheduled)
                .map(|c| c.outcome.normalized)
                .collect();
            if let Some(s) = Summary::of(&vals) {
                rows.push(format!(
                    "{factor},{},{:.4},{:.4}",
                    pair.label(),
                    s.mean,
                    s.median
                ));
                if (factor - 2.0).abs() < 1e-9
                    && best_at_2.as_ref().is_none_or(|(_, m)| s.mean < *m)
                {
                    best_at_2 = Some((pair.label(), s.mean));
                }
            }
        }
    }
    let mut notes = Vec::new();
    if let Some((label, mean)) = best_at_2 {
        notes.push(format!(
            "best AO/EO at factor 2: {label} (mean {mean:.3}); paper finds CP execution order best, with small gaps"
        ));
    }
    FigureOutput {
        header: "memory_factor,ao_eo,mean_normalized_makespan,median_normalized_makespan".into(),
        rows,
        notes,
    }
}

/// Figures 9 and 15: the heuristics across processor counts.
pub fn fig_processors(cases: &CaseSource, processors: &[usize], factors: &[f64]) -> FigureOutput {
    let report = Sweep::new(cases)
        .kinds(main_heuristics())
        .processors(processors.to_vec())
        .factors(factors.to_vec())
        .run();
    let mut rows = Vec::new();
    let mut gaps: Vec<(usize, f64)> = Vec::new();
    for &p in processors {
        let mut mb2 = f64::NAN;
        let mut ac2 = f64::NAN;
        for &factor in factors {
            for kind in main_heuristics() {
                let vals: Vec<f64> = report
                    .series(kind, OrderPair::default_pair(), p, factor)
                    .filter(|c| c.outcome.scheduled)
                    .map(|c| c.outcome.normalized)
                    .collect();
                if let Some(s) = Summary::of(&vals) {
                    rows.push(format!("{p},{factor},{},{:.4}", kind.label(), s.mean));
                    if (factor - 2.0).abs() < 1e-9 {
                        match kind {
                            HeuristicKind::MemBooking => mb2 = s.mean,
                            HeuristicKind::Activation => ac2 = s.mean,
                            _ => {}
                        }
                    }
                }
            }
        }
        if mb2.is_finite() && ac2.is_finite() {
            gaps.push((p, ac2 / mb2));
        }
    }
    let notes = vec![format!(
        "Activation/MemBooking mean-normalized ratio at factor 2, by p: {} (paper: the gain grows with p)",
        gaps.iter()
            .map(|(p, g)| format!("p={p}: {g:.2}"))
            .collect::<Vec<_>>()
            .join(", ")
    )];
    FigureOutput {
        header: "processors,memory_factor,heuristic,mean_normalized_makespan".into(),
        rows,
        notes,
    }
}

/// Figure 16: execution-backend scaling, shard counts included.
///
/// One MemBooking series per backend: the simulator baseline reports
/// virtual-time makespans; the execution backends (threaded, async,
/// sharded, process) report the run's wall-clock seconds, so the rows
/// carry the backend label rather than pretending the clocks compare.
pub fn fig_shards(cases: &CaseSource, p: usize, backends: &[Backend], factor: f64) -> FigureOutput {
    let report = Sweep::new(cases)
        .kinds(vec![HeuristicKind::MemBooking])
        .processors(vec![p])
        .backends(backends.to_vec())
        .factors(vec![factor])
        .run();
    let mut rows = Vec::new();
    let mut scaling: Vec<(usize, f64)> = Vec::new();
    for &b in backends {
        let cells: Vec<_> = report
            .series_at(
                HeuristicKind::MemBooking,
                OrderPair::default_pair(),
                p,
                b,
                factor,
            )
            .collect();
        let scheduled: Vec<f64> = cells
            .iter()
            .filter(|c| c.outcome.scheduled)
            .map(|c| c.outcome.makespan)
            .collect();
        let coverage = scheduled.len() as f64 / report.case_count().max(1) as f64;
        if let Some(summary) = Summary::of(&scheduled) {
            rows.push(format!(
                "{},{coverage:.3},{:.6},{:.6}",
                b.label(),
                summary.mean,
                summary.median
            ));
            if let Backend::Sharded(s) = b {
                scaling.push((s, summary.mean));
            }
        } else {
            rows.push(format!("{},{coverage:.3},NA,NA", b.label()));
        }
    }
    let mut notes = vec![sweep_note(&report, p)];
    if let (Some((s1, t1)), Some((sn, tn))) = (scaling.first(), scaling.last()) {
        if s1 != sn && *tn > 0.0 {
            notes.push(format!(
                "sharded wall-clock scaling: {s1} shard(s) {t1:.4}s -> {sn} shards {tn:.4}s \
                 ({:.2}x)",
                t1 / tn
            ));
        }
    }
    FigureOutput {
        header: "backend,scheduled_fraction,mean_makespan,median_makespan".into(),
        rows,
        notes,
    }
}

/// Section 6 statistics: how often and by how much the memory-aware lower
/// bound improves on the classical one.
///
/// Streams the corpus: each tree is built, measured at every factor, and
/// dropped before the next one is realised.
pub fn table_lowerbound(cases: &CaseSource, p: usize, factors: &[f64]) -> FigureOutput {
    let mut improved = vec![0usize; factors.len()];
    let mut gains: Vec<Vec<f64>> = vec![Vec::new(); factors.len()];
    let mut improvements = Vec::new();
    let mut total = 0usize;
    for c in cases.iter() {
        for (fi, &factor) in factors.iter().enumerate() {
            let lb = c.lower_bounds(p, factor);
            total += 1;
            if lb.memory_bound_improves() {
                improved[fi] += 1;
                gains[fi].push(lb.improvement_ratio());
                improvements.push(lb.improvement_ratio());
            }
        }
    }
    let rows = factors
        .iter()
        .enumerate()
        .map(|(fi, factor)| {
            let avg = Summary::of(&gains[fi]).map_or(0.0, |s| s.mean);
            format!(
                "{factor},{:.3},{:.3}",
                improved[fi] as f64 / cases.len() as f64,
                avg
            )
        })
        .collect();
    let overall = Summary::of(&improvements).map_or(0.0, |s| s.mean);
    let total_improved: usize = improved.iter().sum();
    let notes = vec![format!(
        "memory-aware bound improves the classical bound in {:.0}% of (tree, M) cases, by {:.0}% on average when it does (paper: 22%/46% assembly, 33%/37% synthetic at p = 8)",
        100.0 * total_improved as f64 / total as f64,
        100.0 * overall
    )];
    FigureOutput {
        header: "memory_factor,fraction_improved,avg_improvement_when_improved".into(),
        rows,
        notes,
    }
}

/// Section 7.4 statistic: the fraction of trees MemBookingRedTree cannot
/// schedule under tight memory bounds.
///
/// Streams the corpus (one tree and its reduction transform alive at a
/// time).
pub fn table_redtree_failures(cases: &CaseSource, factors: &[f64]) -> FigureOutput {
    let mut failed = vec![0usize; factors.len()];
    for c in cases.iter() {
        let red_min = PolicySpec::new(HeuristicKind::MemBookingRedTree, 0).min_feasible(&c.tree);
        for (fi, &factor) in factors.iter().enumerate() {
            if red_min > c.memory_at(factor) {
                failed[fi] += 1;
            }
        }
    }
    let mut rows = Vec::new();
    let mut note_at_14 = String::new();
    for (fi, &factor) in factors.iter().enumerate() {
        let frac = failed[fi] as f64 / cases.len() as f64;
        rows.push(format!("{factor},{frac:.3}"));
        if (factor - 1.4).abs() < 0.05 {
            note_at_14 = format!(
                "at factor 1.4, RedTree cannot schedule {:.0}% of the trees (paper: ≥33% of synthetic trees below 1.4)",
                100.0 * frac
            );
        }
    }
    let notes = if note_at_14.is_empty() {
        vec![]
    } else {
        vec![note_at_14]
    };
    FigureOutput {
        header: "memory_factor,fraction_unschedulable".into(),
        rows,
        notes,
    }
}

/// Corpus inventory: the structural spread of the trees behind every
/// experiment (the reproduction's analogue of the paper's corpus
/// description in Section 7.1). Streams each corpus — only one tree is
/// alive at a time no matter the scale.
pub fn table_corpus_stats(corpora: &[(&str, CaseSource)]) -> FigureOutput {
    let mut rows = Vec::new();
    for (corpus, source) in corpora {
        for c in source.iter() {
            rows.push(format!(
                "{corpus},{},{},{},{},{},{},{:.1}",
                c.name,
                c.len(),
                c.stats.height,
                c.stats.max_degree,
                c.tree.leaf_count(),
                c.min_memory,
                c.tree.total_time()
            ));
        }
    }
    FigureOutput {
        header: "corpus,tree,nodes,height,max_degree,leaves,min_memory,total_time".into(),
        rows,
        notes: Vec::new(),
    }
}

/// The Section 7.1 degree table, measured from the generator.
pub fn table_degree_distribution(samples: usize, seed: u64) -> FigureOutput {
    use rand::SeedableRng;
    let dist = memtree_gen::distributions::DegreeDistribution::paper();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut counts = [0usize; 5];
    for _ in 0..samples {
        counts[dist.sample(&mut rng) - 1] += 1;
    }
    let spec = [0.58, 0.17, 0.08, 0.08, 0.08];
    let rows = (0..5)
        .map(|k| {
            format!(
                "{},{:.4},{:.4}",
                k + 1,
                counts[k] as f64 / samples as f64,
                spec[k] / 0.99
            )
        })
        .collect();
    FigureOutput {
        header: "degree,measured_probability,specified_probability".into(),
        rows,
        notes: vec![format!(
            "{samples} samples; spec normalised (paper's table sums to 0.99)"
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{memory_factors, synthetic_source, Scale};
    use crate::runner::TreeCase;

    fn tiny_cases() -> CaseSource {
        (0..4)
            .map(|s| {
                TreeCase::new(
                    format!("tiny-{s}"),
                    memtree_gen::synthetic::paper_tree(150, 40 + s),
                )
            })
            .collect()
    }

    #[test]
    fn makespan_figure_has_all_series() {
        let cases = tiny_cases();
        let out = fig_makespan(&cases, 4, &[1.0, 2.0]);
        assert_eq!(out.rows.len(), 6, "2 factors x 3 heuristics");
        assert!(out.rows.iter().any(|r| r.contains("MemBooking")));
        assert!(!out.notes.is_empty());
    }

    #[test]
    fn speedup_figure_is_sane() {
        let cases = tiny_cases();
        let out = fig_speedup(&cases, 4, &[2.0]);
        assert_eq!(out.rows.len(), 1);
        let mean: f64 = out.rows[0].split(',').nth(1).unwrap().parse().unwrap();
        assert!(
            mean >= 0.95,
            "MemBooking should not lose on average: {mean}"
        );
    }

    #[test]
    fn orders_figure_covers_six_pairs() {
        let cases = tiny_cases();
        let out = fig_orders(&cases, 4, &[2.0]);
        assert_eq!(out.rows.len(), 6);
    }

    #[test]
    fn schedtime_figure_uses_case_metadata() {
        let cases = tiny_cases();
        let out = fig_schedtime(&cases, 4, 2.0);
        assert!(!out.rows.is_empty());
        // Rows carry the tree name and node count from the sweep metadata.
        assert!(out.rows.iter().all(|r| r.starts_with("tiny-")));
        assert!(
            out.rows[0]
                .split(',')
                .nth(1)
                .unwrap()
                .parse::<usize>()
                .unwrap()
                > 0
        );
    }

    #[test]
    fn degree_table_matches_spec() {
        let out = table_degree_distribution(100_000, 1);
        assert_eq!(out.rows.len(), 5);
        for row in &out.rows {
            let mut it = row.split(',');
            let _deg = it.next().unwrap();
            let measured: f64 = it.next().unwrap().parse().unwrap();
            let spec: f64 = it.next().unwrap().parse().unwrap();
            assert!((measured - spec).abs() < 0.02, "{row}");
        }
    }

    #[test]
    fn quick_synthetic_pipeline_smoke() {
        // A minimal end-to-end pass over the real (streaming) corpus
        // machinery: a lazy sub-source of the quick synthetic corpus.
        let full = synthetic_source(Scale::Quick);
        let mut cases = CaseSource::new();
        for i in 0..3 {
            let full = full.clone();
            cases.push_lazy(move || {
                std::sync::Arc::try_unwrap(full.build(i)).unwrap_or_else(|_| unreachable!())
            });
        }
        let factors = memory_factors(Scale::Quick, 3.0);
        let out = fig_makespan(&cases, 8, &factors);
        assert!(!out.rows.is_empty());
    }
}
