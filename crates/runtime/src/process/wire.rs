//! The `memtree-worker v1` wire protocol spoken between the
//! [`ProcessPlatform`](super::ProcessPlatform) coordinator and a
//! `memtree-shard-worker` process (DESIGN.md §6.12).
//!
//! **Job (coordinator → worker stdin).** Line-oriented; the coordinator
//! writes the whole job and closes the pipe:
//!
//! ```text
//! memtree-worker v1
//! workers <n>
//! heartbeat-ms <n>
//! workload <encoding>
//! BEGIN SPEC
//! <memtree-spec v1 text>
//! END SPEC
//! BEGIN TREE
//! <memtree-tree v1 text>
//! END TREE
//! run
//! ```
//!
//! The embedded documents reuse the crate-standard text formats verbatim
//! ([`PolicySpec::spec_to_string`], [`memtree_tree::io::tree_to_string`])
//! between `BEGIN`/`END` frames — both parsers are strict, and neither
//! format can produce a line equal to a frame marker. Floating-point
//! workload parameters travel as the hex of their IEEE-754 bits, so the
//! worker computes with bit-identical values.
//!
//! **Reports (worker stdout → coordinator).** One message per line:
//!
//! ```text
//! ready
//! heartbeat
//! done <makespan:x> <wall:x> <booked> <actual> <events> <sched:x> <tasks> <quarantined> <policy…>
//! failed backend <message…>
//! failed infeasible <required> <available>
//! failed error <message…>
//! ```
//!
//! `ready` acknowledges a fully-parsed job; `heartbeat` lines prove
//! liveness to the coordinator's idle watchdog; exactly one `done` or
//! `failed` verdict ends the stream (`<policy…>` and `<message…>` run to
//! end of line). `failed backend` carries a [`DriveError::Backend`] — a
//! panicking payload — so it arrives as the same error a thread-backed
//! run returns. A worker that dies instead — nonzero exit, signal, closed
//! pipe — never produced a verdict, which is precisely how the
//! supervisor distinguishes retryable *death* from a deterministic
//! *refusal*. Any line outside this grammar is a protocol violation and
//! fails the shard without retry.

use crate::platform::{PlatformError, RunReport};
use crate::workload::Workload;
use memtree_sched::{PolicySpec, SchedError};
use memtree_sim::DriveError;
use memtree_tree::TaskTree;
use std::time::Duration;

/// Protocol magic: the first line of every job.
pub const JOB_HEADER: &str = "memtree-worker v1";

/// One fully-parsed job: everything a worker process needs to run its
/// shard.
#[derive(Clone, Debug)]
pub struct Job {
    /// The shard subtree.
    pub tree: TaskTree,
    /// The shard's policy (memory already split to this shard's slice).
    pub spec: PolicySpec,
    /// Worker threads inside the process's executor.
    pub workers: usize,
    /// Per-task payload.
    pub workload: Workload,
    /// Heartbeat period; [`Duration::ZERO`] disables heartbeats.
    pub heartbeat: Duration,
}

/// A message from a shard worker to the shard coordinator — over this
/// wire for worker processes, directly for shard threads. `Ready` and
/// `Heartbeat` prove liveness; `Done`/`Failed` are the worker's verdict;
/// `Died` is synthesised by the process supervisor when the worker exits
/// without one (the retryable case).
#[derive(Debug)]
pub enum WorkerMsg {
    /// The worker parsed its job and is about to run.
    Ready,
    /// Liveness tick.
    Heartbeat,
    /// The shard completed; the reconstructed report (platform
    /// `"process-worker"`).
    Done(RunReport),
    /// The worker reported a clean, deterministic failure — never
    /// retried.
    Failed(PlatformError),
    /// The process died before any verdict — retryable.
    Died(String),
}

/// Serialises a job; the exact bytes a worker receives on stdin.
pub fn job_to_string(
    tree: &TaskTree,
    spec: &PolicySpec,
    workers: usize,
    workload: Workload,
    heartbeat: Duration,
) -> String {
    let mut out = String::new();
    out.push_str(JOB_HEADER);
    out.push('\n');
    out.push_str(&format!("workers {workers}\n"));
    out.push_str(&format!("heartbeat-ms {}\n", heartbeat.as_millis()));
    out.push_str(&format!("workload {}\n", encode_workload(workload)));
    out.push_str("BEGIN SPEC\n");
    out.push_str(&spec.spec_to_string());
    out.push_str("END SPEC\n");
    out.push_str("BEGIN TREE\n");
    out.push_str(&memtree_tree::io::tree_to_string(tree));
    out.push_str("END TREE\n");
    out.push_str("run\n");
    out
}

/// Parses a complete job (the worker reads stdin to EOF first). Strict:
/// missing or duplicate directives, unknown directives, malformed
/// values, unterminated frames and anything after `run` are all errors.
pub fn parse_job(input: &str) -> Result<Job, String> {
    // Every line with the byte range it spans, terminator included, so a
    // frame's body can be sliced out of the input.
    let mut lines = input.split_inclusive('\n').scan(0, |start, raw| {
        let span = *start..*start + raw.len();
        *start = span.end;
        let line = raw
            .strip_suffix('\n')
            .map_or(raw, |l| l.strip_suffix('\r').unwrap_or(l));
        Some((span, line))
    });
    let header = lines
        .by_ref()
        .map(|(_, line)| line)
        .find(|l| !l.trim().is_empty())
        .ok_or("empty job")?;
    if header.trim() != JOB_HEADER {
        return Err(format!("bad job header {header:?}"));
    }
    let mut workers: Option<usize> = None;
    let mut heartbeat: Option<Duration> = None;
    let mut workload: Option<Workload> = None;
    let mut spec: Option<PolicySpec> = None;
    let mut tree: Option<TaskTree> = None;
    let mut ran = false;
    while let Some((span, line)) = lines.next() {
        let line = line.trim_end();
        if ran && !line.trim().is_empty() {
            return Err(format!("unexpected data after run: {line:?}"));
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed == "run" {
            ran = true;
            continue;
        }
        if trimmed == "BEGIN SPEC" || trimmed == "BEGIN TREE" {
            let marker = if trimmed == "BEGIN SPEC" {
                "END SPEC"
            } else {
                "END TREE"
            };
            let (end, _) = lines
                .by_ref()
                .find(|(_, inner)| inner.trim() == marker)
                .ok_or_else(|| format!("unterminated frame (missing {marker})"))?;
            let body = &input[span.end..end.start];
            if marker == "END SPEC" {
                let parsed = PolicySpec::spec_from_str(body).map_err(|e| e.to_string())?;
                if spec.replace(parsed).is_some() {
                    return Err("duplicate SPEC frame".into());
                }
            } else {
                let parsed = memtree_tree::io::tree_from_str(body).map_err(|e| format!("{e}"))?;
                if tree.replace(parsed).is_some() {
                    return Err("duplicate TREE frame".into());
                }
            }
            continue;
        }
        let (key, value) = trimmed
            .split_once(' ')
            .ok_or_else(|| format!("missing value in directive {trimmed:?}"))?;
        match key {
            "workers" => {
                let parsed = value
                    .trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad workers {value:?}"))?;
                if parsed == 0 {
                    return Err("workers must be >= 1".into());
                }
                if workers.replace(parsed).is_some() {
                    return Err("duplicate workers directive".into());
                }
            }
            "heartbeat-ms" => {
                let parsed = value
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| format!("bad heartbeat-ms {value:?}"))?;
                if heartbeat.replace(Duration::from_millis(parsed)).is_some() {
                    return Err("duplicate heartbeat-ms directive".into());
                }
            }
            "workload" => {
                if workload.replace(decode_workload(value.trim())?).is_some() {
                    return Err("duplicate workload directive".into());
                }
            }
            other => return Err(format!("unknown directive {other:?}")),
        }
    }
    if !ran {
        return Err("job missing the run directive".into());
    }
    Ok(Job {
        tree: tree.ok_or("job missing the TREE frame")?,
        spec: spec.ok_or("job missing the SPEC frame")?,
        workers: workers.ok_or("job missing the workers directive")?,
        workload: workload.ok_or("job missing the workload directive")?,
        heartbeat: heartbeat.ok_or("job missing the heartbeat-ms directive")?,
    })
}

/// The worker's verdict line for a finished run.
pub fn verdict_line(outcome: &Result<RunReport, PlatformError>) -> String {
    match outcome {
        Ok(report) => done_line(report),
        Err(PlatformError::Run(DriveError::Backend(msg))) => {
            format!("failed backend {}", single_line(msg))
        }
        Err(PlatformError::Sched(SchedError::InfeasibleMemory {
            required,
            available,
        })) => format!("failed infeasible {required} {available}"),
        Err(e) => format!("failed error {}", single_line(&e.to_string())),
    }
}

/// The `done …` line carrying every [`RunReport`] field; floats travel
/// as hex bit patterns for exact transport.
pub fn done_line(report: &RunReport) -> String {
    format!(
        "done {} {} {} {} {} {} {} {} {}",
        encode_f64(report.makespan),
        encode_f64(report.wall_seconds),
        report.peak_booked,
        report.peak_actual,
        report.events,
        encode_f64(report.scheduling_seconds),
        report.tasks_run,
        report.quarantined,
        report.policy,
    )
}

/// Parses one worker stdout line into a [`WorkerMsg`] (`Ready`,
/// `Heartbeat`, `Done` or `Failed` — `Died` is the supervisor's own
/// synthesis). Any unrecognised line is an error: a protocol violation.
pub fn parse_report_line(line: &str) -> Result<WorkerMsg, String> {
    let line = line.trim_end();
    match line {
        "ready" => return Ok(WorkerMsg::Ready),
        "heartbeat" => return Ok(WorkerMsg::Heartbeat),
        _ => {}
    }
    if let Some(rest) = line.strip_prefix("done ") {
        let mut fields = rest.splitn(9, ' ');
        let mut next = |what: &str| {
            fields
                .next()
                .ok_or_else(|| format!("done line missing {what}"))
        };
        let makespan = decode_f64(next("makespan")?)?;
        let wall_seconds = decode_f64(next("wall")?)?;
        let peak_booked = parse_u64(next("peak_booked")?)?;
        let peak_actual = parse_u64(next("peak_actual")?)?;
        let events = parse_u64(next("events")?)? as usize;
        let scheduling_seconds = decode_f64(next("scheduling")?)?;
        let tasks_run = parse_u64(next("tasks_run")?)? as usize;
        let quarantined = parse_u64(next("quarantined")?)?;
        let policy = next("policy")?.to_string();
        return Ok(WorkerMsg::Done(RunReport {
            platform: "process-worker",
            policy,
            makespan,
            wall_seconds,
            peak_booked,
            peak_actual,
            events,
            scheduling_seconds,
            tasks_run,
            quarantined,
        }));
    }
    if let Some(rest) = line.strip_prefix("failed ") {
        if let Some(msg) = rest.strip_prefix("backend ") {
            return Ok(WorkerMsg::Failed(DriveError::Backend(msg.into()).into()));
        }
        if let Some(rest) = rest.strip_prefix("infeasible ") {
            let (r, a) = rest
                .split_once(' ')
                .ok_or_else(|| format!("bad infeasible verdict {rest:?}"))?;
            return Ok(WorkerMsg::Failed(PlatformError::Sched(
                SchedError::InfeasibleMemory {
                    required: parse_u64(r)?,
                    available: parse_u64(a)?,
                },
            )));
        }
        if let Some(msg) = rest.strip_prefix("error ") {
            return Ok(WorkerMsg::Failed(PlatformError::Process(format!(
                "worker reported: {msg}"
            ))));
        }
        return Err(format!("bad failed verdict {rest:?}"));
    }
    Err(format!("unrecognised report line {line:?}"))
}

/// Encodes a workload for the `workload` directive.
pub fn encode_workload(w: Workload) -> String {
    match w {
        Workload::Noop => "noop".into(),
        Workload::Sleep {
            nanos_per_time_unit,
            max_nanos,
        } => format!("sleep {} {max_nanos}", encode_f64(nanos_per_time_unit)),
        Workload::AllocTouch {
            bytes_per_output_unit,
            max_bytes,
        } => format!(
            "alloctouch {} {max_bytes}",
            encode_f64(bytes_per_output_unit)
        ),
        Workload::IoBound {
            nanos_per_time_unit,
            max_nanos,
            chunks,
        } => format!(
            "iobound {} {max_nanos} {chunks}",
            encode_f64(nanos_per_time_unit)
        ),
        Workload::FailAt { node } => format!("failat {node}"),
    }
}

/// Decodes the `workload` directive value.
pub fn decode_workload(s: &str) -> Result<Workload, String> {
    let mut fields = s.split(' ');
    let tag = fields.next().ok_or("empty workload")?;
    let mut next = |what: &str| {
        fields
            .next()
            .ok_or_else(|| format!("workload {tag} missing {what}"))
    };
    let w = match tag {
        "noop" => Workload::Noop,
        "sleep" => Workload::Sleep {
            nanos_per_time_unit: decode_f64(next("rate")?)?,
            max_nanos: parse_u64(next("cap")?)?,
        },
        "alloctouch" => Workload::AllocTouch {
            bytes_per_output_unit: decode_f64(next("rate")?)?,
            max_bytes: parse_u64(next("cap")?)? as usize,
        },
        "iobound" => Workload::IoBound {
            nanos_per_time_unit: decode_f64(next("rate")?)?,
            max_nanos: parse_u64(next("cap")?)?,
            chunks: parse_u32(next("chunks")?)?,
        },
        "failat" => Workload::FailAt {
            node: parse_u32(next("node")?)?,
        },
        other => return Err(format!("unknown workload {other:?}")),
    };
    if let Some(extra) = fields.next() {
        return Err(format!("unexpected extra workload field {extra:?}"));
    }
    Ok(w)
}

/// Exact f64 transport: the hex of the IEEE-754 bit pattern.
fn encode_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn decode_f64(s: &str) -> Result<f64, String> {
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("bad f64 bits {s:?}"))
}

fn parse_u64(s: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|_| format!("bad integer {s:?}"))
}

/// A `u32` field: a value past `u32::MAX` is an error, never wrapped
/// into another value.
fn parse_u32(s: &str) -> Result<u32, String> {
    u32::try_from(parse_u64(s)?).map_err(|_| format!("integer {s:?} out of range"))
}

fn single_line(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use memtree_sched::HeuristicKind;

    fn job_parts() -> (TaskTree, PolicySpec) {
        let tree = memtree_gen::synthetic::paper_tree(40, 7);
        let m = memtree_sched::min_feasible_memory(&tree) * 4;
        (tree, PolicySpec::new(HeuristicKind::MemBooking, m))
    }

    #[test]
    fn job_round_trips_exactly() {
        let (tree, spec) = job_parts();
        let workload = Workload::Sleep {
            nanos_per_time_unit: 123.456,
            max_nanos: 9_999,
        };
        let text = job_to_string(&tree, &spec, 3, workload, Duration::from_millis(25));
        let job = parse_job(&text).unwrap();
        assert_eq!(job.tree.content_hash(), tree.content_hash());
        assert_eq!(job.spec.fingerprint(), spec.fingerprint());
        assert_eq!(job.workers, 3);
        assert_eq!(job.heartbeat, Duration::from_millis(25));
        match job.workload {
            Workload::Sleep {
                nanos_per_time_unit,
                max_nanos,
            } => {
                // Bit-exact across the pipe, not merely approximate.
                assert_eq!(nanos_per_time_unit.to_bits(), 123.456f64.to_bits());
                assert_eq!(max_nanos, 9_999);
            }
            other => panic!("wrong workload {other:?}"),
        }
    }

    #[test]
    fn every_workload_encoding_round_trips() {
        for w in [
            Workload::Noop,
            Workload::quick(),
            Workload::AllocTouch {
                bytes_per_output_unit: 16.5,
                max_bytes: 4096,
            },
            Workload::quick_io(),
            Workload::FailAt { node: 12 },
        ] {
            let enc = encode_workload(w);
            let dec = decode_workload(&enc).unwrap();
            assert_eq!(enc, encode_workload(dec), "unstable encoding {enc:?}");
        }
        assert!(decode_workload("sleep 42").is_err(), "truncated");
        assert!(decode_workload("noop extra").is_err(), "trailing field");
        assert!(decode_workload("warp 1 2").is_err(), "unknown tag");
    }

    #[test]
    fn job_parser_is_strict() {
        let (tree, spec) = job_parts();
        let good = job_to_string(&tree, &spec, 2, Workload::Noop, Duration::ZERO);
        assert!(parse_job(&good).is_ok());
        assert!(parse_job("").is_err(), "empty job");
        assert!(
            parse_job(&good.replace(JOB_HEADER, "memtree-worker v999")).is_err(),
            "wrong version"
        );
        assert!(
            parse_job(&good.replace("workers 2\n", "")).is_err(),
            "missing workers"
        );
        assert!(
            parse_job(&good.replace("workers 2\n", "workers 2\nworkers 2\n")).is_err(),
            "duplicate workers"
        );
        assert!(
            parse_job(&good.replace("END TREE\n", "")).is_err(),
            "unterminated frame"
        );
        assert!(
            parse_job(&good.replace("run\n", "")).is_err(),
            "missing run"
        );
        assert!(
            parse_job(&format!("{good}contraband\n")).is_err(),
            "data after run"
        );
        assert!(
            parse_job(&good.replace("workload noop\n", "workload noop\nbogus 1\n")).is_err(),
            "unknown directive"
        );
        // 32-bit fields beyond u32 are rejected, not wrapped (2^32 + 1
        // would otherwise decode as node 1).
        let job_with = |w: &str| good.replace("workload noop", &format!("workload {w}"));
        assert!(parse_job(&job_with("failat 4294967295")).is_ok());
        for workload in ["failat 4294967297", "iobound 0 1 4294967297"] {
            assert!(parse_job(&job_with(workload)).is_err(), "{workload}");
        }
    }

    #[test]
    fn verdict_lines_round_trip() {
        let report = RunReport {
            platform: "process-worker",
            policy: "MemBooking ao=memPO eo=memPO".into(),
            makespan: 1.5,
            wall_seconds: 0.25,
            peak_booked: 100,
            peak_actual: 90,
            events: 42,
            scheduling_seconds: 0.003,
            tasks_run: 40,
            quarantined: 0,
        };
        let msg = parse_report_line(&done_line(&report)).unwrap();
        match msg {
            WorkerMsg::Done(r) => {
                assert_eq!(r.policy, report.policy);
                assert_eq!(r.makespan.to_bits(), report.makespan.to_bits());
                assert_eq!(r.wall_seconds.to_bits(), report.wall_seconds.to_bits());
                assert_eq!(r.peak_booked, 100);
                assert_eq!(r.peak_actual, 90);
                assert_eq!(r.events, 42);
                assert_eq!(r.tasks_run, 40);
            }
            other => panic!("wrong message {other:?}"),
        }

        let lost = DriveError::Backend("a worker thread panicked".into());
        let panic_line = verdict_line(&Err(lost.clone().into()));
        match parse_report_line(&panic_line).unwrap() {
            WorkerMsg::Failed(PlatformError::Run(e)) => assert_eq!(e, lost),
            other => panic!("wrong message {other:?}"),
        }

        let inf = verdict_line(&Err(PlatformError::Sched(SchedError::InfeasibleMemory {
            required: 70,
            available: 50,
        })));
        match parse_report_line(&inf).unwrap() {
            WorkerMsg::Failed(e) => assert!(e.is_infeasible(), "{e}"),
            other => panic!("wrong message {other:?}"),
        }

        let err = verdict_line(&Err(PlatformError::Partition("bad\nplan".into())));
        match parse_report_line(&err).unwrap() {
            WorkerMsg::Failed(PlatformError::Process(msg)) => {
                assert!(msg.contains("bad plan"), "newlines collapsed: {msg}");
            }
            other => panic!("wrong message {other:?}"),
        }

        assert!(parse_report_line("gibberish").is_err());
        assert!(parse_report_line("done 1 2").is_err(), "truncated done");
        assert!(parse_report_line("failed sideways").is_err());
    }
}
