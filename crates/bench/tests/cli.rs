//! The `memtree-bench` binary end to end: usage errors and one cheap
//! experiment.

use memtree_bench::experiments::EXPERIMENTS;
use std::process::Command;

fn memtree_bench(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_memtree-bench"))
        .args(args)
        .output()
        .expect("memtree-bench runs")
}

#[test]
fn unknown_name_exits_2_with_a_usage_line_listing_every_name() {
    for args in [&["no_such_figure"][..], &[], &["all_experiments", "quick"]] {
        let out = memtree_bench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        let usage = stderr
            .lines()
            .find(|l| l.starts_with("usage: memtree-bench"))
            .unwrap_or_else(|| panic!("no usage line in {stderr:?}"));
        for name in EXPERIMENTS.iter().flat_map(|e| e.names.iter()) {
            assert!(usage.contains(name), "{name} missing from {usage:?}");
        }
        assert!(out.stdout.is_empty());
    }
}

#[test]
fn unknown_scale_and_options_exit_2() {
    for args in [
        &["table_degree_distribution", "medium"][..],
        &["table_degree_distribution", "--verbose"],
        &["fig16_shards", "--backend", "sharded"],
    ] {
        assert_eq!(memtree_bench(args).status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn degree_table_runs_and_prints_its_csv_header() {
    let out = memtree_bench(&["table_degree_distribution", "quick"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert_eq!(
        stdout.lines().next(),
        Some("degree,measured_probability,specified_probability")
    );
    assert_eq!(stdout.lines().filter(|l| !l.starts_with('#')).count(), 6);
}
