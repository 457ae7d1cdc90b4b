//! The command line of `memtree-bench`.
//!
//! ```text
//! memtree-bench <name|all> [quick|full] [--backend LIST] [--out-dir DIR]
//! ```
//!
//! * `<name>` picks one entry of [`crate::experiments::EXPERIMENTS`];
//!   `all` runs every entry in table order;
//! * the positional scale picks the corpus size (default `quick`);
//! * `--backend` sets `fig16_shards`' execution-backend axis
//!   (comma-separated: `sim`, `threaded`, `async`, `sharded:N`,
//!   `process:N`);
//! * `--out-dir` is where the gated entries write their JSON (default
//!   `bench-out`).

use crate::corpus::Scale;
use crate::runner::Backend;
use std::path::PathBuf;

/// A minimal flag parser over `std::env::args` — enough structure for the
/// experiment CLI without an external dependency.
#[derive(Debug)]
pub struct ArgParser {
    args: Vec<String>,
}

impl ArgParser {
    /// Parses the process arguments (excluding the binary name).
    pub fn from_env() -> Self {
        ArgParser {
            args: std::env::args().skip(1).collect(),
        }
    }

    /// A parser over explicit arguments (tests).
    pub fn from_args(args: &[&str]) -> Self {
        ArgParser {
            args: args.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Removes `name VALUE` if present; returns the value.
    ///
    /// # Errors
    /// When the flag is present without a value — a following `--flag`
    /// does not count, so `--out-dir --backend sim` reports the missing
    /// value instead of writing into a directory named `--backend`.
    pub fn take_value(&mut self, name: &str) -> Result<Option<String>, String> {
        match self.args.iter().position(|a| a == name) {
            Some(i) if i + 1 < self.args.len() && !self.args[i + 1].starts_with("--") => {
                self.args.remove(i);
                Ok(Some(self.args.remove(i)))
            }
            Some(_) => Err(format!("{name} requires a value")),
            None => Ok(None),
        }
    }

    /// Removes and returns the next positional (non-`--`) argument.
    pub fn take_positional(&mut self) -> Option<String> {
        let i = self.args.iter().position(|a| !a.starts_with("--"))?;
        Some(self.args.remove(i))
    }

    /// Succeeds only when every argument has been consumed.
    ///
    /// # Errors
    /// Lists the leftover (unrecognised) arguments.
    pub fn finish(self) -> Result<(), String> {
        if self.args.is_empty() {
            Ok(())
        } else {
            Err(format!("unrecognised arguments: {}", self.args.join(" ")))
        }
    }
}

/// The options every experiment receives.
#[derive(Debug)]
pub struct BenchArgs {
    /// Corpus scale (positional `quick`/`full`, default `quick`).
    pub scale: Scale,
    /// Execution-backend axis (`--backend`, comma-separated names —
    /// `sim`, `threaded`, `async`, `sharded:N`, `process:N`), `None` when
    /// the flag was not given.
    pub backends: Option<Vec<Backend>>,
    /// Where gated experiments write their JSON (`--out-dir`, default
    /// `bench-out`).
    pub out_dir: PathBuf,
}

impl BenchArgs {
    /// Consumes the experiment name and its options from `parser`: the
    /// name is the first positional, the scale the second.
    ///
    /// # Errors
    /// On a missing name, a malformed scale or backend list, a missing
    /// flag value, or a leftover argument.
    pub fn parse(mut parser: ArgParser) -> Result<(String, BenchArgs), String> {
        // Flags (and their values) are consumed before the positional
        // scan, so `--out-dir d fig17_service` parses the same as
        // `fig17_service --out-dir d` — a flag's value must never be
        // mistaken for the name or the scale.
        let out_dir = parser
            .take_value("--out-dir")?
            .map_or_else(|| PathBuf::from("bench-out"), PathBuf::from);
        let backends = parser
            .take_value("--backend")?
            .map(|v| {
                v.split(',')
                    .map(|name| Backend::parse(name.trim()))
                    .collect()
            })
            .transpose()?;
        let name = parser
            .take_positional()
            .ok_or_else(|| String::from("missing experiment name"))?;
        let scale = match parser.take_positional().as_deref() {
            Some("full") => Scale::Full,
            Some("quick") | None => Scale::Quick,
            Some(other) => return Err(format!("unknown scale {other:?} (quick|full)")),
        };
        parser.finish()?;
        let args = BenchArgs {
            scale,
            backends,
            out_dir,
        };
        Ok((name, args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(String, BenchArgs), String> {
        BenchArgs::parse(ArgParser::from_args(args))
    }

    #[test]
    fn parser_consumes_flags_values_and_positionals() {
        let (name, args) = parse(&[
            "fig16_shards",
            "full",
            "--out-dir",
            "/tmp/o",
            "--backend",
            "sim",
        ])
        .unwrap();
        assert_eq!(name, "fig16_shards");
        assert_eq!(args.scale, Scale::Full);
        assert_eq!(args.out_dir, PathBuf::from("/tmp/o"));
        assert_eq!(args.backends, Some(vec![Backend::Sim]));

        // Defaults: quick, no backend axis, `bench-out`.
        let (_, args) = parse(&["all"]).unwrap();
        assert_eq!(args.scale, Scale::Quick);
        assert_eq!(args.backends, None);
        assert_eq!(args.out_dir, PathBuf::from("bench-out"));
    }

    #[test]
    fn leftovers_and_bad_values_error() {
        for bad in [
            &[][..],
            &["all", "--bogus"],
            &["all", "quick", "extra"],
            &["all", "--out-dir"],
            // A following flag is not a value.
            &["all", "--out-dir", "--backend", "sim"],
            &["all", "medium"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn flags_may_precede_the_positional_scale() {
        let (name, args) =
            parse(&["--backend", "async", "--out-dir", "/tmp/o", "x", "full"]).unwrap();
        assert_eq!(name, "x");
        assert_eq!(args.scale, Scale::Full);
        assert_eq!(args.backends, Some(vec![Backend::Async]));
        assert_eq!(args.out_dir, PathBuf::from("/tmp/o"));
    }

    #[test]
    fn backend_axis_parses_explicit_names() {
        let (_, args) =
            parse(&["x", "--backend", "sim,threaded,async,sharded:4,process:2"]).unwrap();
        assert_eq!(
            args.backends,
            Some(vec![
                Backend::Sim,
                Backend::Threaded,
                Backend::Async,
                Backend::Sharded(4),
                Backend::Process(2),
            ])
        );
        assert_eq!(Backend::Process(4).label(), "process:4");
    }

    #[test]
    fn backend_axis_rejects_bare_and_zero_shard_counts() {
        for bad in [
            "simulator",
            "sharded",
            "process",
            "sharded:0",
            "sharded:two",
            "process:0",
            "process:",
            "sim,,async",
        ] {
            assert!(parse(&["x", "--backend", bad]).is_err(), "{bad}");
        }
    }
}
