#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Experiment harness regenerating every table and figure of the paper.
//!
//! One binary per figure (`src/bin/figNN_*.rs`) prints the figure's series
//! as CSV on stdout plus a short *shape summary* — who wins, by what
//! factor, where the curves cross — the quantities EXPERIMENTS.md compares
//! against the paper. Table binaries do the same for the textual
//! statistics (lower-bound improvements, RedTree failure rates, the degree
//! table).
//!
//! Scale is controlled by the first CLI argument or the `MEMTREE_SCALE`
//! environment variable: `quick` (default; minutes) or `full` (the
//! paper-sized corpora; longer). Every binary also takes `--cache-dir`
//! (persist/replay sweep cells content-addressed; see [`cache`]),
//! `--fresh` (recompute) and `--window` (streaming width) — the shared
//! surface parsed by [`cli::BenchArgs`].

pub mod aggregate;
pub mod cache;
pub mod cli;
pub mod corpus;
pub mod figures;
pub mod runner;
pub mod service_load;
pub mod sweep;

pub use aggregate::Summary;
pub use cache::{cell_key, CellCache, CellKey};
pub use cli::{ArgParser, BenchArgs};
pub use corpus::{assembly_cases, assembly_source, synthetic_cases, synthetic_source, Scale};
pub use runner::{
    run_heuristic, run_heuristic_backend, run_on_platform, Backend, CaseSource, OrderPair,
    RunOutcome, TreeCase,
};
pub use service_load::{run_load, LoadReport, LoadSpec};
pub use sweep::{untimed_row, CaseMeta, Sweep, SweepCell, SweepCtx, SweepReport};

/// Prints a CSV header and rows through a tiny helper so every binary
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
