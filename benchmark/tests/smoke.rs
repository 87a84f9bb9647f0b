//! Runs every workload for two seconds, end to end and traced, and
//! checks what the benchmark prints against `BENCHMARK.json`.
//!
//! One test, run sequentially: two benchmark processes at once would
//! compete for the host's two cores and measure each other.

use evprop_serve::{parse_json, Json};
use std::collections::BTreeMap;
use std::process::Command;

/// Per-layer metrics that are counts of the program's own work: they
/// must repeat bit for bit across two runs of one seed.
const EXACT: [&str; 10] = [
    "taskgraph.plans_interned",
    "taskgraph.plan_bytes",
    "taskgraph.critical_path_frac",
    "potential.entries_per_query",
    "potential.bytes_per_query",
    "sched.arena_bytes",
    "incremental.slice_frac",
    "incremental.full_frac",
    "incremental.cached_frac",
    "incremental.dirty_cliques_per_query",
];

fn text(v: &Json) -> &str {
    match v {
        Json::Str(s) => s,
        other => panic!("expected a string, found {other:?}"),
    }
}

fn number(v: &Json) -> f64 {
    match v {
        Json::Num(n) => *n,
        other => panic!("expected a number, found {other:?}"),
    }
}

fn items(v: &Json) -> &[Json] {
    match v {
        Json::Arr(items) => items,
        other => panic!("expected an array, found {other:?}"),
    }
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(spec: &Json, list: &str) -> BTreeMap<String, String> {
    items(spec.get(list).expect("list exists"))
        .iter()
        .map(|m| {
            (
                text(m.get("name").expect("name")).to_string(),
                text(m.get("unit").expect("unit")).to_string(),
            )
        })
        .collect()
}

/// Runs one pass and returns `name → (value, unit)` from its JSON line.
fn run(workload: &str, why: &str, trace: u8) -> BTreeMap<String, (f64, String)> {
    let output = Command::new(env!("CARGO_BIN_EXE_evprop-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "2"])
        .args(["--trace", &trace.to_string()])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("output is UTF-8");
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // The binary and BENCHMARK.json give the same reason for the workload.
    assert!(
        stdout.lines().any(|l| l == format!("info why {why}")),
        "{workload}: `info why` differs from BENCHMARK.json"
    );
    let last = stdout.lines().last().expect("some output");
    let result = parse_json(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    let Json::Obj(fields) = &result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: wrong answers"
    );
    assert_eq!(number(result.get("failed").expect("failed")), 0.0);
    assert!(number(result.get("attempted").expect("attempted")) >= 1.0);
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                !name.is_empty() && name.len() <= 64,
                "metric name `{name}` has a bad length"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "metric name `{name}` has a character outside [A-Za-z0-9_.-]"
            );
            let value = number(m.get("value").expect("value"));
            assert!(value.is_finite(), "{name} is not finite");
            // Every printed `metric` line agrees with the JSON line.
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with(&format!("metric {name} "))),
                "{name} has no `metric` line"
            );
            (
                name.clone(),
                (value, text(m.get("unit").expect("unit")).to_string()),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_what_benchmark_json_declares() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = std::fs::read_to_string(manifest.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = parse_json(&spec).expect("BENCHMARK.json parses");
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    assert!(end_to_end.len() <= 16 && per_layer.len() <= 128);
    assert!(EXACT.iter().all(|name| per_layer.contains_key(*name)));

    for workload in items(spec.get("workloads").expect("workloads")) {
        let why = text(workload.get("why").expect("why"));
        let workload = text(workload.get("name").expect("name"));
        let check = |got: &BTreeMap<String, (f64, String)>, want: &BTreeMap<String, String>| {
            let got_units: BTreeMap<String, String> = got
                .iter()
                .map(|(k, (_, unit))| (k.clone(), unit.clone()))
                .collect();
            assert_eq!(
                &got_units, want,
                "{workload}: metrics differ from BENCHMARK.json"
            );
        };
        let measured = run(workload, why, 0);
        check(&measured, &end_to_end);
        assert!(
            measured.values().all(|(v, _)| *v > 0.0),
            "{workload}: an end-to-end metric is 0"
        );

        let first = run(workload, why, 1);
        check(&first, &per_layer);
        let second = run(workload, why, 1);
        for name in EXACT {
            assert_eq!(
                first[name].0.to_bits(),
                second[name].0.to_bits(),
                "{workload}: {name} does not repeat for one seed"
            );
        }
    }
}
