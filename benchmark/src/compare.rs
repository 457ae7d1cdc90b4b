//! `memtree-benchmark compare A.json B.json` — applies each end-to-end
//! metric's bound to two result files. One row per (workload, metric);
//! the exit code says whether the two sets agree.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};

fn metric_value(workload: &Json, group: &str, name: &str) -> Option<f64> {
    workload.get(group)?.get(name)?.get("value")?.as_f64()
}

/// `B` against `A`: relative change in the *worse* direction (negative
/// when `B` is better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Compares two parsed result files; prints the table to stdout and
/// returns how many rows disagree.
pub fn compare(a: &Json, b: &Json) -> Result<usize, String> {
    let workloads_a = a.get("workloads").ok_or("A has no \"workloads\"")?;
    let workloads_b = b.get("workloads").ok_or("B has no \"workloads\"")?;
    let mut disagreements = 0;
    println!(
        "{:<15} {:<40} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for (name, wa) in workloads_a.entries() {
        let Some(wb) = workloads_b.get(name) else {
            println!("{name:<15} missing from B");
            disagreements += 1;
            continue;
        };
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (
                metric_value(wa, "end_to_end", m.name),
                metric_value(wb, "end_to_end", m.name),
            ) else {
                continue;
            };
            let worse = worsening(m.better, va, vb);
            let verdict = if worse > m.bound {
                "WORSE"
            } else if worse < -m.bound {
                "BETTER"
            } else {
                "same"
            };
            if verdict != "same" {
                disagreements += 1;
            }
            println!(
                "{name:<15} {:<40} {va:>14.6} {vb:>14.6} {:>+8.2}% {:>6.0}%  {verdict}",
                m.name,
                100.0 * (vb - va) / va.abs(),
                100.0 * m.bound
            );
        }
        // Failed ops and counts repeat exactly, or something changed.
        let failed = |w: &Json| w.get("failed").and_then(Json::as_f64);
        if let (Some(va), Some(vb)) = (failed(wa), failed(wb)) {
            let verdict = if va == vb { "same" } else { "DIFFERS" };
            if va != vb {
                disagreements += 1;
            }
            println!(
                "{name:<15} {:<40} {va:>14} {vb:>14} {:>9} {:>7}  {verdict}",
                "failed", "", "exact"
            );
        }
        for m in PER_LAYER {
            let (Some(va), Some(vb)) = (
                metric_value(wa, "per_layer", m.name),
                metric_value(wb, "per_layer", m.name),
            ) else {
                continue;
            };
            if va == 0.0 && vb == 0.0 {
                continue;
            }
            let counted = matches!(m.unit, "count" | "bytes");
            let verdict = match (counted, va == vb) {
                (true, false) => {
                    disagreements += 1;
                    "DIFFERS"
                }
                (true, true) => "same",
                (false, _) => "-",
            };
            let bound = if counted { "exact" } else { "none" };
            println!(
                "{name:<15} {:<40} {va:>14.6} {vb:>14.6} {:>+8.2}% {bound:>7}  {verdict}",
                m.name,
                100.0 * (vb - va) / va.abs(),
            );
        }
    }
    for (name, _) in workloads_b.entries() {
        if workloads_a.get(name).is_none() {
            println!("{name:<15} missing from A");
            disagreements += 1;
        }
    }
    Ok(disagreements)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(p50: f64, rate: f64, fronts: f64) -> Json {
        let m = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::str("x"))]);
        Json::obj([(
            "workloads",
            Json::obj([(
                "plan-assembly",
                Json::obj([
                    ("failed", Json::Num(0.0)),
                    (
                        "end_to_end",
                        Json::obj([("op_s_p50", m(p50)), ("nodes_per_s", m(rate))]),
                    ),
                    ("per_layer", Json::obj([("multifrontal.fronts", m(fronts))])),
                ]),
            )]),
        )])
    }

    #[test]
    fn bounds_apply_in_each_metric_s_own_direction() {
        let bound = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap().bound;
        let (p50, rate) = (bound("op_s_p50"), bound("nodes_per_s"));
        let base = result(1.0, 100.0, 7.0);
        let within = result(1.0 + p50 - 0.01, 100.0 * (1.0 - rate + 0.01), 7.0);
        assert_eq!(compare(&base, &within), Ok(0));
        // A slower median is worse; so are fewer nodes per second.
        assert_eq!(compare(&base, &result(1.0 + p50 + 0.01, 100.0, 7.0)), Ok(1));
        let slower_rate = 100.0 * (1.0 - rate - 0.01);
        assert_eq!(compare(&base, &result(1.0, slower_rate, 7.0)), Ok(1));
        // Better by more than the bound is a disagreement too.
        assert_eq!(compare(&base, &result(1.0 - p50 - 0.01, 100.0, 7.0)), Ok(1));
        // Counts are exact.
        assert_eq!(compare(&base, &result(1.0, 100.0, 8.0)), Ok(1));
    }
}
