//! The tiny shared CLI of every figure/table binary.
//!
//! All 20 experiment binaries accept the same surface:
//!
//! ```text
//! <binary> [quick|full] [--cache-dir DIR] [--fresh] [--window N]
//!          [--backend LIST] [--shards LIST]
//! ```
//!
//! * the positional scale (or `MEMTREE_SCALE`) picks the corpus size;
//! * `--cache-dir` (or `MEMTREE_CACHE_DIR`) attaches the content-addressed
//!   [`CellCache`] so re-runs replay completed cells;
//! * `--fresh` recomputes everything while refreshing the store;
//! * `--window` overrides the streaming sweep's in-flight case window;
//! * `--backend` sets the execution-backend axis (comma-separated:
//!   `sim`, `threaded`, `async`, `sharded:N`, `process:N`, or bare
//!   `sharded`/`process` which expand against the `--shards` counts);
//! * `--shards` sets the shard-count axis (comma-separated; `0` is the
//!   unsharded simulator) — the PR-4 spelling, mapped onto the backend
//!   axis when `--backend` is absent.
//!
//! Binaries with extra options (`bench_smoke`) reuse [`ArgParser`]
//! directly and take their extras before handing the rest to
//! [`BenchArgs::from_parser`].

use crate::cache::CellCache;
use crate::corpus::Scale;
use crate::runner::Backend;
use crate::sweep::SweepCtx;
use std::path::PathBuf;

/// A minimal flag parser over `std::env::args` — enough structure for the
/// experiment binaries without an external dependency.
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

    /// Removes `name` if present; returns whether it was.
    pub fn take_flag(&mut self, name: &str) -> bool {
        match self.args.iter().position(|a| a == name) {
            Some(i) => {
                self.args.remove(i);
                true
            }
            None => false,
        }
    }

    /// Removes `name VALUE` if present; returns the value.
    ///
    /// # Errors
    /// When the flag is present without a value — a following `--flag`
    /// does not count, so `--cache-dir --fresh` reports the missing
    /// value instead of caching into a directory named `--fresh`.
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

/// The options shared by every figure/table binary.
#[derive(Debug)]
pub struct BenchArgs {
    /// Corpus scale (positional `quick`/`full` or `MEMTREE_SCALE`).
    pub scale: Scale,
    /// Cell-cache directory (`--cache-dir` or `MEMTREE_CACHE_DIR`).
    pub cache_dir: Option<PathBuf>,
    /// Recompute cells even on cache hits (`--fresh`).
    pub fresh: bool,
    /// Streaming window override (`--window`).
    pub window: Option<usize>,
    /// Shard-count axis (`--shards`, comma-separated; 0 = the unsharded
    /// simulator), `None` when the flag was not given — so binaries with
    /// their own default axis (`fig16_shards`) can tell "unset" apart
    /// from an explicit `--shards 0`. Feeds the backend axis through
    /// [`BenchArgs::backends_axis`].
    pub shards: Option<Vec<usize>>,
    /// Execution-backend axis (`--backend`, comma-separated names —
    /// `sim`, `threaded`, `async`, `sharded:N`, `process:N`; bare
    /// `sharded`/`process` expand against the `--shards` counts), `None`
    /// when the flag was not given. Feed [`BenchArgs::backends_axis`] to
    /// [`crate::Sweep::backends`].
    pub backends: Option<Vec<Backend>>,
}

impl BenchArgs {
    /// Parses the process arguments; prints usage and exits on bad input.
    pub fn parse() -> BenchArgs {
        let mut parser = ArgParser::from_env();
        let parsed = Self::from_parser(&mut parser).and_then(|args| parser.finish().map(|()| args));
        match parsed {
            Ok(args) => args,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                    "usage: [quick|full] [--cache-dir DIR] [--fresh] [--window N] \
                     [--backend LIST] [--shards LIST]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Consumes the shared options from `parser`, leaving any extras for
    /// the caller. Environment fallbacks: `MEMTREE_SCALE`,
    /// `MEMTREE_CACHE_DIR`.
    ///
    /// # Errors
    /// On a malformed scale, window, or missing flag value.
    pub fn from_parser(parser: &mut ArgParser) -> Result<BenchArgs, String> {
        // Flags (and their values) are consumed before the positional
        // scan, so `--cache-dir /tmp/c quick` parses the same as
        // `quick --cache-dir /tmp/c` — a flag's value must never be
        // mistaken for the scale.
        let cache_dir = parser
            .take_value("--cache-dir")?
            .or_else(|| std::env::var("MEMTREE_CACHE_DIR").ok())
            .map(PathBuf::from);
        let fresh = parser.take_flag("--fresh");
        let window = parser
            .take_value("--window")?
            .map(|w| {
                w.parse::<usize>()
                    .ok()
                    .filter(|&w| w >= 1)
                    .ok_or_else(|| format!("--window must be a positive integer, got {w:?}"))
            })
            .transpose()?;
        let shards = parser
            .take_value("--shards")?
            .map(|v| {
                let counts: Result<Vec<usize>, String> = v
                    .split(',')
                    .map(|s| {
                        s.trim().parse::<usize>().map_err(|_| {
                            format!("--shards wants comma-separated counts, got {v:?}")
                        })
                    })
                    .collect();
                let counts = counts?;
                if counts.is_empty() {
                    return Err(String::from("--shards needs at least one count"));
                }
                Ok(counts)
            })
            .transpose()?;
        let backends = parser
            .take_value("--backend")?
            .map(|v| {
                let mut out = Vec::new();
                for name in v.split(',').map(str::trim) {
                    if name == "sharded" || name == "process" {
                        // Bare `sharded`/`process` expands against the
                        // --shards counts (default: 2 shards).
                        let counts = shards
                            .clone()
                            .unwrap_or_else(|| vec![2])
                            .into_iter()
                            .filter(|&s| s >= 1)
                            .collect::<Vec<_>>();
                        if counts.is_empty() {
                            return Err(format!("--backend {name} needs a --shards count >= 1"));
                        }
                        let wrap = if name == "sharded" {
                            Backend::Sharded
                        } else {
                            Backend::Process
                        };
                        out.extend(counts.into_iter().map(wrap));
                    } else {
                        out.push(Backend::parse(name)?);
                    }
                }
                if out.is_empty() {
                    return Err(String::from("--backend needs at least one name"));
                }
                Ok(out)
            })
            .transpose()?;
        let scale_arg = parser
            .take_positional()
            .or_else(|| std::env::var("MEMTREE_SCALE").ok());
        let scale = match scale_arg.as_deref() {
            Some("full") => Scale::Full,
            Some("quick") | None => Scale::Quick,
            Some(other) => return Err(format!("unknown scale {other:?} (quick|full)")),
        };
        Ok(BenchArgs {
            scale,
            cache_dir,
            fresh,
            window,
            shards,
            backends,
        })
    }

    /// The shard-count axis behind [`BenchArgs::backends_axis`]'s
    /// fallback: the explicit `--shards` list, or the single unsharded
    /// backend when unset.
    pub fn shards_axis(&self) -> Vec<usize> {
        self.shards.clone().unwrap_or_else(|| vec![0])
    }

    /// The execution-backend axis for [`crate::Sweep::backends`]: the
    /// explicit `--backend` list when given, else the `--shards` list
    /// through the PR-4 encoding ([`Backend::from_shards`]), else the
    /// single simulator backend.
    pub fn backends_axis(&self) -> Vec<Backend> {
        if let Some(backends) = &self.backends {
            return backends.clone();
        }
        self.shards_axis()
            .into_iter()
            .map(Backend::from_shards)
            .collect()
    }

    /// [`BenchArgs::backends_axis`] with a caller default: the
    /// flag-derived axis when `--backend` or `--shards` was given, else
    /// `default` — for binaries whose natural axis is wider than the
    /// single simulator backend (`fig16_shards`).
    pub fn backends_axis_or(&self, default: &[Backend]) -> Vec<Backend> {
        if self.backends.is_some() || self.shards.is_some() {
            self.backends_axis()
        } else {
            default.to_vec()
        }
    }

    /// The sweep execution knobs these arguments describe. Opens (creating
    /// if needed) the cache directory.
    ///
    /// # Panics
    /// When the cache directory cannot be created — an unusable `--cache-dir`
    /// should fail loudly, not silently recompute.
    pub fn ctx(&self) -> SweepCtx {
        let cache = self.cache_dir.as_ref().map(|d| {
            CellCache::open(d)
                .unwrap_or_else(|e| panic!("cannot open cache dir {}: {e}", d.display()))
        });
        SweepCtx {
            cache,
            fresh: self.fresh,
            window: self.window,
        }
    }
}

/// Peak resident set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`) — the RSS proxy recorded in `BENCH_sweep.json` to
/// track the streaming sweep's memory trajectory.
///
/// Returns `None` off Linux, when `/proc/self/status` is unreadable, or
/// when the `VmHWM` line is missing or unparsable — "unknown" must stay
/// distinguishable from a genuine measurement (a fake 0 would read as a
/// perfect-memory run in the trajectory artifact; `bench_smoke` emits
/// JSON `null` instead).
pub fn peak_rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                return rest.trim().trim_end_matches("kB").trim().parse().ok();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_consumes_flags_values_and_positionals() {
        let mut p = ArgParser::from_args(&["full", "--fresh", "--cache-dir", "/tmp/c"]);
        let args = BenchArgs::from_parser(&mut p).unwrap();
        p.finish().unwrap();
        assert_eq!(args.scale, Scale::Full);
        assert!(args.fresh);
        assert_eq!(
            args.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/c"))
        );
        assert_eq!(args.window, None);
        assert_eq!(args.shards, None);
        assert_eq!(args.shards_axis(), vec![0]);
    }

    #[test]
    fn shards_axis_parses_comma_lists() {
        let mut p = ArgParser::from_args(&["--shards", "0,2,4"]);
        let args = BenchArgs::from_parser(&mut p).unwrap();
        p.finish().unwrap();
        assert_eq!(args.shards, Some(vec![0, 2, 4]));
        assert_eq!(args.shards_axis(), vec![0, 2, 4]);

        // An explicit `--shards 0` is distinguishable from the default.
        let mut p = ArgParser::from_args(&["--shards", "0"]);
        assert_eq!(
            BenchArgs::from_parser(&mut p).unwrap().shards,
            Some(vec![0])
        );

        let mut p = ArgParser::from_args(&["--shards", "two"]);
        assert!(BenchArgs::from_parser(&mut p).is_err());
    }

    #[test]
    fn leftovers_and_bad_values_error() {
        let mut p = ArgParser::from_args(&["--bogus"]);
        let _ = BenchArgs::from_parser(&mut p).unwrap();
        assert!(p.finish().is_err());

        let mut p = ArgParser::from_args(&["--window", "0"]);
        assert!(BenchArgs::from_parser(&mut p).is_err());

        let mut p = ArgParser::from_args(&["--cache-dir"]);
        assert!(BenchArgs::from_parser(&mut p).is_err());

        // A following flag is not a value.
        let mut p = ArgParser::from_args(&["--cache-dir", "--fresh"]);
        assert!(BenchArgs::from_parser(&mut p).is_err());

        let mut p = ArgParser::from_args(&["medium"]);
        assert!(BenchArgs::from_parser(&mut p).is_err());
    }

    #[test]
    fn flags_may_precede_the_positional_scale() {
        let mut p = ArgParser::from_args(&["--cache-dir", "/tmp/c", "full"]);
        let args = BenchArgs::from_parser(&mut p).unwrap();
        p.finish().unwrap();
        assert_eq!(args.scale, Scale::Full);
        assert_eq!(
            args.cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/c"))
        );
    }

    #[test]
    fn extras_can_be_taken_before_shared_parsing() {
        let mut p = ArgParser::from_args(&["quick", "--out-dir", "x", "--window", "3"]);
        assert_eq!(p.take_value("--out-dir").unwrap().as_deref(), Some("x"));
        let args = BenchArgs::from_parser(&mut p).unwrap();
        p.finish().unwrap();
        assert_eq!(args.window, Some(3));
        assert_eq!(args.scale, Scale::Quick);
    }

    #[test]
    fn peak_rss_is_measured_and_positive_on_linux() {
        #[cfg(target_os = "linux")]
        assert!(peak_rss_kb().expect("VmHWM available on Linux") > 0);
        #[cfg(not(target_os = "linux"))]
        assert_eq!(peak_rss_kb(), None);
    }

    #[test]
    fn backend_axis_parses_names_and_expands_sharded() {
        let mut p = ArgParser::from_args(&["--backend", "sim,threaded,async,sharded:4"]);
        let args = BenchArgs::from_parser(&mut p).unwrap();
        p.finish().unwrap();
        assert_eq!(
            args.backends_axis(),
            vec![
                Backend::Sim,
                Backend::Threaded,
                Backend::Async,
                Backend::Sharded(4)
            ]
        );

        // Bare `sharded` expands against the --shards counts (0 entries,
        // being the unsharded simulator, do not produce sharded cells).
        let mut p = ArgParser::from_args(&["--backend", "sim,sharded", "--shards", "0,2,4"]);
        let args = BenchArgs::from_parser(&mut p).unwrap();
        p.finish().unwrap();
        assert_eq!(
            args.backends_axis(),
            vec![Backend::Sim, Backend::Sharded(2), Backend::Sharded(4)]
        );

        // … and defaults to 2 shards without --shards.
        let mut p = ArgParser::from_args(&["--backend", "sharded"]);
        assert_eq!(
            BenchArgs::from_parser(&mut p).unwrap().backends_axis(),
            vec![Backend::Sharded(2)]
        );

        // Without --backend, --shards feeds the axis through the PR-4
        // encoding; without either, the axis is the simulator.
        let mut p = ArgParser::from_args(&["--shards", "0,2"]);
        assert_eq!(
            BenchArgs::from_parser(&mut p).unwrap().backends_axis(),
            vec![Backend::Sim, Backend::Sharded(2)]
        );
        let mut p = ArgParser::from_args(&[]);
        assert_eq!(
            BenchArgs::from_parser(&mut p).unwrap().backends_axis(),
            vec![Backend::Sim]
        );

        // Unknown names and malformed shard suffixes error loudly.
        let mut p = ArgParser::from_args(&["--backend", "simulator"]);
        assert!(BenchArgs::from_parser(&mut p).is_err());
        let mut p = ArgParser::from_args(&["--backend", "sharded:0"]);
        assert!(BenchArgs::from_parser(&mut p).is_err());
        let mut p = ArgParser::from_args(&["--backend", "sharded:two"]);
        assert!(BenchArgs::from_parser(&mut p).is_err());
    }

    #[test]
    fn backend_axis_parses_and_expands_process() {
        let mut p = ArgParser::from_args(&["--backend", "process:2,process:4"]);
        let args = BenchArgs::from_parser(&mut p).unwrap();
        p.finish().unwrap();
        assert_eq!(
            args.backends_axis(),
            vec![Backend::Process(2), Backend::Process(4)]
        );
        assert_eq!(Backend::Process(4).label(), "process:4");

        // Bare `process` expands against --shards, skipping the 0 entry
        // (the unsharded simulator is not a process configuration).
        let mut p = ArgParser::from_args(&["--backend", "process", "--shards", "0,1,4"]);
        let args = BenchArgs::from_parser(&mut p).unwrap();
        p.finish().unwrap();
        assert_eq!(
            args.backends_axis(),
            vec![Backend::Process(1), Backend::Process(4)]
        );

        // … and defaults to 2 shards without --shards.
        let mut p = ArgParser::from_args(&["--backend", "process"]);
        assert_eq!(
            BenchArgs::from_parser(&mut p).unwrap().backends_axis(),
            vec![Backend::Process(2)]
        );

        let mut p = ArgParser::from_args(&["--backend", "process:0"]);
        assert!(BenchArgs::from_parser(&mut p).is_err());
        let mut p = ArgParser::from_args(&["--backend", "process:", "--shards", "2"]);
        assert!(BenchArgs::from_parser(&mut p).is_err());
    }
}
