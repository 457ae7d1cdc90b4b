//! The experiment table behind `memtree-bench <name>`: every figure,
//! table and ablation of the harness, each a function of the parsed
//! [`BenchArgs`], with its corpus, processor count and factor list
//! written once here.
//!
//! `memtree-bench all` walks [`EXPERIMENTS`] in order and runs each entry
//! once. An entry may answer to several names: Figures 5 and 6 are one
//! measurement (scheduling time on the assembly corpus, by size and by
//! height).

use crate::cli::BenchArgs;
use crate::corpus::{assembly_source, memory_factors, synthetic_source, Scale};
use crate::figures::{self as f, FigureOutput};
use crate::runner::Backend;

/// One experiment: the names that select it and what it runs.
pub struct Experiment {
    /// The names `memtree-bench` accepts for this entry.
    pub names: &'static [&'static str],
    /// Runs the experiment, printing its output.
    ///
    /// # Errors
    /// A gate that failed, or an output file that could not be written —
    /// `memtree-bench` exits 1 on either.
    pub run: fn(&BenchArgs) -> Result<(), String>,
}

/// The processor count of every single-p figure (the paper's p = 8).
const P: usize = 8;
/// The processor axis of Figures 9 and 15.
const PROCESSOR_AXIS: [usize; 5] = [2, 4, 8, 16, 32];
/// Figures 5–7, 13: the one memory factor they run at.
const FACTOR: f64 = 2.0;
/// Section 7.4's tight memory factors.
const REDTREE_FACTORS: [f64; 8] = [1.0, 1.1, 1.2, 1.3, 1.4, 1.6, 2.0, 3.0];

/// The assembly figures' memory axis (the paper's 1…20).
fn assembly_factors(scale: Scale) -> Vec<f64> {
    memory_factors(scale, 20.0)
}

/// The synthetic figures' memory axis (the paper's 1…10).
fn synthetic_factors(scale: Scale) -> Vec<f64> {
    memory_factors(scale, 10.0)
}

fn emit(out: FigureOutput) -> Result<(), String> {
    out.emit();
    Ok(())
}

/// Every experiment, in the order `memtree-bench all` runs them.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        names: &["fig02_makespan_assembly"],
        run: |a| {
            let factors = assembly_factors(a.scale);
            emit(f::fig_makespan(&assembly_source(a.scale), P, &factors))
        },
    },
    Experiment {
        names: &["fig03_speedup_assembly"],
        run: |a| {
            let factors = assembly_factors(a.scale);
            emit(f::fig_speedup(&assembly_source(a.scale), P, &factors))
        },
    },
    Experiment {
        names: &["fig04_memfrac_assembly"],
        run: |a| {
            let factors = assembly_factors(a.scale);
            emit(f::fig_memfrac(&assembly_source(a.scale), P, &factors))
        },
    },
    Experiment {
        // Figure 5 reads the rows by size, Figure 6 by height (the deep
        // band-matrix chains).
        names: &["fig05_schedtime_assembly", "fig06_schedtime_height"],
        run: |a| emit(f::fig_schedtime(&assembly_source(a.scale), P, FACTOR)),
    },
    Experiment {
        names: &["fig07_speedup_height"],
        run: |a| emit(f::fig_speedup_height(&assembly_source(a.scale), P, FACTOR)),
    },
    Experiment {
        names: &["fig08_orders_assembly"],
        run: |a| {
            let factors = assembly_factors(a.scale);
            emit(f::fig_orders(&assembly_source(a.scale), P, &factors))
        },
    },
    Experiment {
        names: &["fig09_processors_assembly"],
        run: |a| {
            let factors = assembly_factors(a.scale);
            let cases = assembly_source(a.scale);
            emit(f::fig_processors(&cases, &PROCESSOR_AXIS, &factors))
        },
    },
    Experiment {
        names: &["fig10_makespan_synthetic"],
        run: |a| {
            let factors = synthetic_factors(a.scale);
            emit(f::fig_makespan(&synthetic_source(a.scale), P, &factors))
        },
    },
    Experiment {
        names: &["fig11_speedup_synthetic"],
        run: |a| {
            let factors = synthetic_factors(a.scale);
            emit(f::fig_speedup(&synthetic_source(a.scale), P, &factors))
        },
    },
    Experiment {
        names: &["fig12_memfrac_synthetic"],
        run: |a| {
            let factors = synthetic_factors(a.scale);
            emit(f::fig_memfrac(&synthetic_source(a.scale), P, &factors))
        },
    },
    Experiment {
        names: &["fig13_schedtime_synthetic"],
        run: |a| emit(f::fig_schedtime(&synthetic_source(a.scale), P, FACTOR)),
    },
    Experiment {
        names: &["fig14_orders_synthetic"],
        run: |a| {
            let factors = synthetic_factors(a.scale);
            emit(f::fig_orders(&synthetic_source(a.scale), P, &factors))
        },
    },
    Experiment {
        names: &["fig15_processors_synthetic"],
        run: |a| {
            let factors = synthetic_factors(a.scale);
            let cases = synthetic_source(a.scale);
            emit(f::fig_processors(&cases, &PROCESSOR_AXIS, &factors))
        },
    },
    Experiment {
        // The backend axis defaults to [`Backend::default_axis`];
        // `--backend` overrides it. A roomy factor: the per-shard budget
        // split must stay feasible at the deepest shard count on the axis.
        names: &["fig16_shards"],
        run: |a| {
            let backends = a.backends.clone().unwrap_or_else(Backend::default_axis);
            emit(f::fig_shards(
                &synthetic_source(a.scale),
                P,
                &backends,
                16.0,
            ))
        },
    },
    Experiment {
        names: &["fig17_service"],
        run: |a| crate::service_load::fig17_service(a.scale, &a.out_dir),
    },
    Experiment {
        names: &["table_corpus_stats"],
        run: |a| {
            emit(f::table_corpus_stats(&[
                ("assembly", assembly_source(a.scale)),
                ("synthetic", synthetic_source(a.scale)),
            ]))
        },
    },
    Experiment {
        names: &["table_degree_distribution"],
        run: |_| emit(f::table_degree_distribution(400_000, 7)),
    },
    Experiment {
        // Section 6, on both corpora, at the synthetic memory axis.
        names: &["table_lowerbound_stats"],
        run: |a| {
            let factors = synthetic_factors(a.scale);
            println!("## assembly trees");
            f::table_lowerbound(&assembly_source(a.scale), P, &factors).emit();
            println!("## synthetic trees");
            emit(f::table_lowerbound(&synthetic_source(a.scale), P, &factors))
        },
    },
    Experiment {
        names: &["table_redtree_failures"],
        run: |a| {
            let cases = synthetic_source(a.scale);
            emit(f::table_redtree_failures(&cases, &REDTREE_FACTORS))
        },
    },
    Experiment {
        names: &["ablation_moldable"],
        run: |_| {
            crate::ablation::ablation_moldable();
            Ok(())
        },
    },
    Experiment {
        names: &["ablation_malleable"],
        run: |a| crate::ablation::ablation_malleable(a.scale, &a.out_dir),
    },
];

/// The entries `name` selects: every entry for `all`, else the one entry
/// answering to `name`; `None` for an unknown name.
pub fn select(name: &str) -> Option<Vec<&'static Experiment>> {
    if name == "all" {
        return Some(EXPERIMENTS.iter().collect());
    }
    EXPERIMENTS
        .iter()
        .find(|e| e.names.contains(&name))
        .map(|e| vec![e])
}

/// The usage line, listing every name.
pub fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS
        .iter()
        .flat_map(|e| e.names.iter().copied())
        .collect();
    format!(
        "usage: memtree-bench <all|{}> [quick|full] [--backend LIST] [--out-dir DIR]",
        names.join("|")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_all_runs_each_function_once() {
        let names: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.names.iter().copied())
            .collect();
        let distinct: HashSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "duplicate name in {names:?}");
        assert!(!distinct.contains("all"));

        let all = select("all").unwrap();
        assert_eq!(all.len(), EXPERIMENTS.len());
        let runs: HashSet<usize> = all.iter().map(|e| e.run as usize).collect();
        assert_eq!(runs.len(), all.len(), "two entries run the same function");

        // Every name selects exactly its own entry; fig06 is fig05's.
        for e in EXPERIMENTS {
            for name in e.names {
                let picked = select(name).unwrap();
                assert_eq!(picked.len(), 1);
                assert!(std::ptr::eq(picked[0], e), "{name}");
            }
        }
        let fig05 = select("fig05_schedtime_assembly").unwrap()[0];
        let fig06 = select("fig06_schedtime_height").unwrap()[0];
        assert!(std::ptr::eq(fig05, fig06));
        assert!(names.iter().all(|n| usage().contains(n)));
    }
}
