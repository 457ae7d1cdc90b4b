//! Runs the benchmark's one command in `--quick` mode (every workload
//! shrunk to about a second, same code paths) and checks what it produced
//! against `BENCHMARK.json` and the harness's own catalogue.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn declared() -> Json {
    let path = manifest_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// Runs `run.sh --quick <args>` with its files under `dir`; returns stdout.
fn run_quick(dir: &Path, args: &[&str]) -> String {
    let out = Command::new("bash")
        .arg(manifest_dir().join("run.sh"))
        .arg("--quick")
        .arg("--out-dir")
        .arg(dir)
        .args(args)
        .output()
        .expect("bash runs run.sh");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "run.sh {args:?} exited {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn str_field<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{v} has no string {key:?}"))
}

fn names(list: &Json) -> Vec<&str> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| str_field(m, "name"))
        .collect()
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[test]
fn quick_run_emits_everything_benchmark_json_declares() {
    let dir = scratch("full");
    run_quick(&dir, &[]);
    let text = std::fs::read_to_string(dir.join("result.json")).expect("result file written");
    let result = Json::parse(&text).expect("result file parses");
    let declared = declared();

    // The catalogue compiled into the harness is the one BENCHMARK.json
    // publishes: same metrics, units, directions and bounds, same order.
    let catalogue = result.get("catalogue").expect("catalogue");
    for group in ["end_to_end", "per_layer"] {
        let (ours, theirs) = (
            catalogue.get(group).and_then(Json::as_arr).unwrap(),
            declared.get(group).and_then(Json::as_arr).unwrap(),
        );
        assert_eq!(ours.len(), theirs.len(), "{group}: metric count");
        for (a, b) in ours.iter().zip(theirs) {
            for key in ["name", "unit", "better"] {
                assert_eq!(str_field(a, key), str_field(b, key), "{group} {key}");
            }
            assert_eq!(a.get("bound"), b.get("bound"), "{group} bound of {a}");
        }
    }

    let e2e_names = names(declared.get("end_to_end").unwrap());
    let layer_names = names(declared.get("per_layer").unwrap());
    let workload_names = names(declared.get("workloads").unwrap());
    for name in e2e_names.iter().chain(&layer_names).chain(&workload_names) {
        assert!(is_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
    }

    // Every per-layer metric's declared target exists.
    for m in catalogue.get("per_layer").and_then(Json::as_arr).unwrap() {
        for mv in m.get("moves").and_then(Json::as_arr).unwrap() {
            let target = str_field(mv, "metric");
            assert!(e2e_names.contains(&target), "{m}: no end-to-end {target:?}");
            for w in mv.get("workloads").and_then(Json::as_arr).unwrap() {
                let w = w.as_str().unwrap();
                assert!(workload_names.contains(&w), "{m}: no workload {w:?}");
            }
        }
    }

    // Every declared workload ran both ways, emitted every declared
    // metric, and passed every output check.
    let workloads = result.get("workloads").expect("workloads");
    assert_eq!(workloads.entries().len(), workload_names.len());
    for w in &workload_names {
        let entry = workloads.get(w).unwrap_or_else(|| panic!("{w} missing"));
        for (group, expected) in [("end_to_end", &e2e_names), ("per_layer", &layer_names)] {
            let emitted: Vec<&str> = entry
                .get(group)
                .unwrap_or_else(|| panic!("{w} has no {group}"))
                .entries()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(&emitted, expected, "{w} {group}");
        }
        for (name, m) in entry.get("end_to_end").unwrap().entries() {
            let value = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(value > 0.0 && value.is_finite(), "{w} {name} = {value}");
        }
        for key in ["failed", "traced_failed", "fail_ratio"] {
            assert_eq!(entry.get(key), Some(&Json::Num(0.0)), "{w} {key}");
        }
        assert!(
            dir.join(format!("trace-{w}.jsonl")).is_file(),
            "{w}: no trace file"
        );
    }

    // Environment block.
    let env = result.get("env").expect("env");
    for key in [
        "git_commit",
        "rustc",
        "nproc",
        "cpu_model",
        "pinned",
        "pinned_cpu",
        "l2_cache",
        "l3_cache",
        "seed",
        "seconds",
    ] {
        assert!(env.get(key).is_some(), "env lacks {key}");
    }

    // A result file agrees with itself.
    let result_path = dir.join("result.json");
    let same = Command::new("bash")
        .arg(manifest_dir().join("run.sh"))
        .arg("compare")
        .args([&result_path, &result_path])
        .output()
        .unwrap();
    assert!(same.status.success(), "compare A A must agree");
}

#[test]
fn one_workload_run_ends_with_the_driver_s_object() {
    let declared = declared();
    for (trace, group) in [("0", "end_to_end"), ("1", "per_layer")] {
        let dir = scratch(&format!("contract-{trace}"));
        let stdout = run_quick(
            &dir,
            &[
                "--workload",
                "exec-fine",
                "--seed",
                "7",
                "--seconds",
                "0.3",
                "--trace",
                trace,
            ],
        );
        let last = stdout.lines().last().expect("some output");
        let object = Json::parse(last).expect("last line is JSON");
        let keys: Vec<&str> = object.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(object.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(object.get("failed"), Some(&Json::Num(0.0)));
        assert!(object.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let emitted: Vec<&str> = object
            .get("metrics")
            .unwrap()
            .entries()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            emitted,
            names(declared.get(group).unwrap()),
            "--trace {trace}"
        );
    }
}
