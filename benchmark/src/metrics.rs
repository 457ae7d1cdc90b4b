//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — the bound by which it may
//! worsen before a change counts as a regression. `BENCHMARK.json` at the
//! repo root mirrors this table (tests/quick.rs checks they agree);
//! `compare` applies it.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
}

use crate::json::Json;
use Better::{Higher, Lower};

/// The wall-time bounds sit at the driver's cap on purpose: the shared
/// host this was sized on slows a pinned, compute-only op by 20–40 % for
/// minutes at a time (README.md, "How the bounds were set").
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_s_p50", "s", Lower, 0.25),
    e2e("nodes_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("makespan_over_lb", "ratio", Lower, 0.02),
    e2e("realised_over_predicted", "ratio", Lower, 0.05),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// "A faster layer should move end-to-end metric `metric` on `workloads`."
pub struct Moves {
    pub metric: &'static str,
    pub workloads: &'static [&'static str],
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Written down before measuring (README.md has the reasoning);
    /// empty for metrics that are reported but never expected to gate.
    pub moves: &'static [Moves],
}

const PLAN: &[&str] = &["plan-assembly", "plan-irregular"];
const ASSEMBLY: &[&str] = &["plan-assembly"];
const IRREGULAR: &[&str] = &["plan-irregular"];
const FRONT_HALF: &[&str] = &["plan-assembly", "exec-coarse"];
const GENERATED: &[&str] = &["sim-million", "exec-fine", "exec-gang", "shard-merge"];
const MILLION: &[&str] = &["sim-million"];
const SIMULATED: &[&str] = &["plan-assembly", "sim-million"];
const FINE: &[&str] = &["exec-fine"];
const GANG: &[&str] = &["exec-gang"];
const COARSE: &[&str] = &["exec-coarse"];
const MERGE: &[&str] = &["shard-merge"];

const fn p50(workloads: &'static [&'static str]) -> Moves {
    Moves {
        metric: "op_s_p50",
        workloads,
    }
}
const fn rate(workloads: &'static [&'static str]) -> Moves {
    Moves {
        metric: "nodes_per_s",
        workloads,
    }
}
const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static [Moves],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    layer(
        "gen.build_s",
        "s",
        Lower,
        &[Moves {
            metric: "setup_s",
            workloads: GENERATED,
        }],
    ),
    layer("multifrontal.pattern_s", "s", Lower, &[p50(FRONT_HALF)]),
    layer("multifrontal.ordering_s", "s", Lower, &[p50(IRREGULAR)]),
    layer("multifrontal.symbolic_s", "s", Lower, &[p50(FRONT_HALF)]),
    layer("multifrontal.supernodes_s", "s", Lower, &[p50(FRONT_HALF)]),
    layer("multifrontal.assembly_s", "s", Lower, &[p50(FRONT_HALF)]),
    layer("multifrontal.fronts", "count", Lower, &[]),
    layer("multifrontal.factor_nnz", "count", Lower, &[]),
    layer("order.mempo_s", "s", Lower, &[p50(SIMULATED)]),
    layer("order.cp_s", "s", Lower, &[p50(ASSEMBLY)]),
    layer("order.seq_peak", "count", Lower, &[]),
    layer("sched.min_feasible_s", "s", Lower, &[p50(PLAN)]),
    layer("sched.instantiate_s", "s", Lower, &[p50(SIMULATED)]),
    layer(
        "sched.callback_s",
        "s",
        Lower,
        &[rate(MILLION), p50(ASSEMBLY)],
    ),
    layer("sched.callback_ns_per_event", "ns", Lower, &[rate(MILLION)]),
    layer("sched.lower_bound_s", "s", Lower, &[p50(ASSEMBLY)]),
    layer("sched.peak_actual_over_m", "ratio", Higher, &[]),
    layer("sim.run_s", "s", Lower, &[rate(MILLION), p50(ASSEMBLY)]),
    layer("sim.driver_s", "s", Lower, &[rate(MILLION), p50(ASSEMBLY)]),
    layer("sim.events", "count", Lower, &[]),
    layer("sim.ns_per_event", "ns", Lower, &[rate(MILLION)]),
    layer("sim.validate_s", "s", Lower, &[p50(ASSEMBLY)]),
    layer("sim.moldable_run_s", "s", Lower, &[p50(ASSEMBLY)]),
    layer("sim.malleable_run_s", "s", Lower, &[p50(ASSEMBLY)]),
    layer(
        "runtime.threaded.run_s",
        "s",
        Lower,
        &[rate(FINE), rate(GANG)],
    ),
    layer(
        "runtime.threaded.dispatch_ns_per_task",
        "ns",
        Lower,
        &[rate(FINE)],
    ),
    layer("runtime.threaded.over_sim", "ratio", Lower, &[rate(FINE)]),
    layer(
        "runtime.gang.dispatch_ns_per_member",
        "ns",
        Lower,
        &[rate(GANG)],
    ),
    layer("runtime.gang.over_unit", "ratio", Lower, &[rate(GANG)]),
    layer("runtime.coarse.payload_s", "s", Lower, &[]),
    layer(
        "runtime.coarse.overhead_s",
        "s",
        Lower,
        &[Moves {
            metric: "realised_over_predicted",
            workloads: COARSE,
        }],
    ),
    layer("runtime.async.ns_per_task", "ns", Lower, &[]),
    layer("runtime.threaded.unpinned_ns_per_task", "ns", Lower, &[]),
    layer("tree.partition_s", "s", Lower, &[p50(MERGE)]),
    layer("runtime.wire.encode_s", "s", Lower, &[p50(MERGE)]),
    layer("runtime.wire.decode_s", "s", Lower, &[p50(MERGE)]),
    layer("runtime.wire.bytes", "bytes", Lower, &[p50(MERGE)]),
    layer("runtime.sharded.run_s", "s", Lower, &[p50(MERGE)]),
    layer("runtime.process.run_s", "s", Lower, &[p50(MERGE)]),
    layer("runtime.sharded.merge_gap_s", "s", Lower, &[p50(MERGE)]),
    layer("runtime.process.merge_gap_s", "s", Lower, &[p50(MERGE)]),
    layer("runtime.process.floor_s", "s", Lower, &[p50(MERGE)]),
    // Share of traced op time spent in each layer (self time of its
    // spans): the attribution the workloads were chosen by.
    layer("share.multifrontal", "ratio", Lower, &[]),
    layer("share.order", "ratio", Lower, &[]),
    layer("share.sched", "ratio", Lower, &[]),
    layer("share.sim", "ratio", Lower, &[]),
    layer("share.runtime", "ratio", Lower, &[]),
    layer("share.harness", "ratio", Lower, &[]),
    // CPU seconds per traced op (user + system, waited-for children
    // included). On the pinned, CPU-bound workloads it repeats op wall
    // time; on `exec-coarse`, where the payload sleeps, it is what
    // dispatch costs — and varies by 20 % between runs on a shared host,
    // which is why it is reported here and gates nothing.
    layer("proc.cpu_s_per_op", "s", Lower, &[]),
    // Median op time of the traced run; over the untraced `op_s_p50` it
    // gives the tracing overhead.
    layer("trace.op_s_p50", "s", Lower, &[]),
    // The highest percentile of the traced ops with at least ten samples
    // beyond it (the median below 21 ops). Not gated: between two runs of
    // one commit it moved by up to 21 % where the median moved by 7 %.
    layer("trace.op_s_tail", "s", Lower, &[]),
];

/// The layers `share.*` splits an op into, by span-name prefix.
pub const SHARE_LAYERS: [&str; 5] = ["multifrontal", "order", "sched", "sim", "runtime"];

/// Spans whose per-op duration is reported as `<name>_s`.
pub const TIMED_SPANS: &[&str] = &[
    "multifrontal.pattern",
    "multifrontal.ordering",
    "multifrontal.symbolic",
    "multifrontal.supernodes",
    "multifrontal.assembly",
    "order.mempo",
    "order.cp",
    "sched.min_feasible",
    "sched.instantiate",
    "sched.callback",
    "sched.lower_bound",
    "sim.run",
    "sim.validate",
    "sim.moldable_run",
    "sim.malleable_run",
    "runtime.threaded.run",
    "runtime.sharded.run",
    "runtime.process.run",
];

/// Per-op counters reported under their own name.
pub const COUNTERS: &[&str] = &[
    "multifrontal.fronts",
    "multifrontal.factor_nnz",
    "order.seq_peak",
    "sim.events",
];

/// The catalogue as JSON, carried in every result file so a reader (and
/// tests/quick.rs) sees the bounds and the declared interactions the
/// numbers were taken under.
pub fn catalogue() -> Json {
    let end_to_end = END_TO_END.iter().map(|m| {
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.label())),
            ("bound", Json::Num(m.bound)),
        ])
    });
    let per_layer = PER_LAYER.iter().map(|m| {
        let moves = m.moves.iter().map(|mv| {
            Json::obj([
                ("metric", Json::str(mv.metric)),
                (
                    "workloads",
                    Json::Arr(mv.workloads.iter().map(|w| Json::str(*w)).collect()),
                ),
            ])
        });
        Json::obj([
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.label())),
            ("moves", Json::Arr(moves.collect())),
        ])
    });
    Json::obj([
        ("end_to_end", Json::Arr(end_to_end.collect())),
        ("per_layer", Json::Arr(per_layer.collect())),
    ])
}
