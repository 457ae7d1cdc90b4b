//! `memtree-bench <name|all> [quick|full] [--backend LIST] [--out-dir DIR]`
//! — runs one experiment of the table in `memtree_bench::experiments`, or
//! all of them in order with a `=== names ===` marker before each.
//!
//! Exits 2 on a usage error (unknown name, scale or option), 1 when an
//! experiment fails (a gate or an output file), 0 otherwise.

use memtree_bench::experiments::{select, usage};
use memtree_bench::{ArgParser, BenchArgs};

fn main() {
    let parsed = BenchArgs::parse(ArgParser::from_env()).and_then(|(name, args)| {
        let selected = select(&name).ok_or_else(|| format!("unknown experiment {name:?}"))?;
        Ok((args, selected))
    });
    let (args, selected) = parsed.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{}", usage());
        std::process::exit(2);
    });
    let marked = selected.len() > 1;
    let mut failed = false;
    for experiment in selected {
        if marked {
            println!("=== {} ===", experiment.names.join(" / "));
        }
        if let Err(e) = (experiment.run)(&args) {
            eprintln!("{}: {e}", experiment.names[0]);
            failed = true;
        }
    }
    std::process::exit(i32::from(failed));
}
