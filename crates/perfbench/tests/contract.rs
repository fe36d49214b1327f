//! Runs the benchmark binary the way `BENCHMARK.json`'s command does
//! and checks its output against that file: every workload prints
//! exactly the declared end-to-end metrics, traced runs print every
//! per-layer metric, counts repeat across runs, and bad arguments fail
//! without a result line.
//!
//! The workloads run at full size, so run these with `--release`:
//! `cargo test --release --manifest-path crates/perfbench/Cargo.toml`.

use std::process::{Command, Output};

use antalloc_sim::scenario::{json, Value};

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");

fn benchmark() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(bench: &'a Value, key: &str) -> &'a [Value] {
    bench
        .get(key)
        .and_then(|v| v.as_array(key).ok())
        .unwrap_or(&[])
}

fn names(bench: &Value, key: &str) -> Vec<(String, String)> {
    list(bench, key)
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(|v| v.as_str(k).ok())
                    .unwrap_or("")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(args: &[&str]) -> Output {
    Command::new(BIN)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs")
}

/// Runs one workload briefly and returns `(name, value, unit)` of every
/// metric in its result line, checking the line's other keys.
fn metrics(workload: &str, trace: &str) -> Vec<(String, f64, String)> {
    let out = run(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload}: {stdout}");
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("the last line is JSON");
    let keys: Vec<&str> = match &result {
        Value::Table(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("result is a {}", other.kind()),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stdout}");
    assert_eq!(result.get("failed"), Some(&Value::Int(0)));
    assert!(matches!(result.get("attempted"), Some(Value::Int(n)) if *n >= 1));
    let Some(Value::Table(entries)) = result.get("metrics") else {
        panic!("no metrics table")
    };
    entries
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(|v| v.as_f64("value").ok());
            let unit = m.get("unit").and_then(|v| v.as_str("unit").ok());
            let value = value.unwrap_or_else(|| panic!("{workload}: {name} has no number"));
            assert!(value.is_finite(), "{workload}: {name} = {value}");
            (name.clone(), value, unit.unwrap_or("").to_string())
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_declares_workloads_with_one_line_reasons() {
    let bench = benchmark();
    let workloads = list(&bench, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        let name = w
            .get("name")
            .and_then(|v| v.as_str("name").ok())
            .unwrap_or("");
        let why = w
            .get("why")
            .and_then(|v| v.as_str("why").ok())
            .unwrap_or("");
        assert!(well_formed(name), "{name:?}");
        assert!(
            !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
            "{name}"
        );
    }
    let e2e = names(&bench, "end_to_end");
    assert!(e2e.contains(&("setup_s".into(), "s".into())));
    for (name, unit) in e2e.iter().chain(&names(&bench, "per_layer")) {
        assert!(well_formed(name), "{name:?}");
        assert!(
            !unit.is_empty() && unit.len() <= 16,
            "{name}: unit {unit:?}"
        );
    }
}

#[test]
fn every_workload_prints_exactly_the_end_to_end_metrics() {
    let bench = benchmark();
    let declared = names(&bench, "end_to_end");
    for w in list(&bench, "workloads") {
        let workload = w
            .get("name")
            .and_then(|v| v.as_str("name").ok())
            .unwrap_or("");
        let printed: Vec<(String, String)> = metrics(workload, "0")
            .into_iter()
            .map(|(name, value, unit)| {
                assert!(value > 0.0, "{workload}: {name} = {value}");
                (name, unit)
            })
            .collect();
        assert_eq!(printed, declared, "{workload}");
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_repeat_their_counts() {
    let bench = benchmark();
    let declared = names(&bench, "per_layer");
    for w in list(&bench, "workloads") {
        let workload = w
            .get("name")
            .and_then(|v| v.as_str("name").ok())
            .unwrap_or("");
        let first = metrics(workload, "1");
        let printed: Vec<(String, String)> = first
            .iter()
            .map(|(n, _, u)| (n.clone(), u.clone()))
            .collect();
        assert_eq!(printed, declared, "{workload}");
        if workload == "arena_shocks" {
            let counts = |m: &[(String, f64, String)]| -> Vec<(String, f64)> {
                m.iter()
                    .filter(|(_, _, unit)| unit == "count" || unit == "bytes")
                    .map(|(n, v, _)| (n.clone(), *v))
                    .collect()
            };
            assert_eq!(counts(&first), counts(&metrics(workload, "1")));
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result_line() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "sweep_store",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        &["--workload", "sweep_store", "--seed", "1", "--seconds", "1"],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
