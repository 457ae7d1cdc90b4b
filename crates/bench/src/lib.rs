#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Experiment harness regenerating every table and figure of the paper.
//!
//! One binary, `memtree-bench <name> [quick|full]`, runs any entry of
//! [`experiments::EXPERIMENTS`] (named after the figure or table it
//! regenerates) or `all` of them. Figures print their series as CSV on
//! stdout plus a short *shape summary* — who wins, by what factor, where
//! the curves cross — as `#`-prefixed notes. Table entries do the same
//! for the textual statistics (lower-bound improvements, RedTree failure
//! rates, the degree table), and the gated entries (`fig17_service`,
//! `ablation_malleable`) also write a JSON artifact and exit 1 when a
//! gate fails.
//!
//! Scale is the positional argument after the name: `quick` (default;
//! seconds) or `full` (the paper-sized corpora; minutes). The only other
//! options, parsed by [`cli::BenchArgs`], are `--backend` (the backend
//! axis of `fig16_shards`) and `--out-dir` (where JSON artifacts go).

pub mod ablation;
pub mod aggregate;
pub mod cli;
pub mod corpus;
pub mod experiments;
pub mod figures;
pub mod runner;
pub mod service_load;
pub mod sweep;

pub use aggregate::Summary;
pub use cli::{ArgParser, BenchArgs};
pub use corpus::{assembly_source, synthetic_source, Scale};
pub use runner::{
    run_heuristic, run_heuristic_backend, run_on_platform, Backend, CaseSource, OrderPair,
    RunOutcome, TreeCase,
};
pub use service_load::{run_load, LoadReport, LoadSpec};
pub use sweep::{untimed_row, CaseMeta, Sweep, SweepCell, SweepReport};

/// Prints a CSV header and rows through a tiny helper so every experiment
/// formats identically.
pub fn print_csv(header: &str, rows: &[String]) {
    use std::io::Write;
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    writeln!(lock, "{header}").unwrap();
    for r in rows {
        writeln!(lock, "{r}").unwrap();
    }
}

/// Writes `contents` to `dir/name`, creating `dir`, and reports the path.
///
/// # Errors
/// When the directory or the file cannot be written.
pub(crate) fn write_artifact(
    dir: &std::path::Path,
    name: &str,
    contents: &str,
) -> Result<(), String> {
    let path = dir.join(name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, contents))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// An experiment's gate: `Ok` when nothing was violated.
///
/// # Errors
/// One `gate violation:` line per violation.
pub(crate) fn gate(violations: &[String]) -> Result<(), String> {
    if violations.is_empty() {
        return Ok(());
    }
    let lines: Vec<String> = violations
        .iter()
        .map(|v| format!("gate violation: {v}"))
        .collect();
    Err(lines.join("\n"))
}
