//! Every workload runs end to end on tiny inputs, traced and untraced,
//! and prints every metric `BENCHMARK.json` names, with its unit and a
//! finite value; the catalogue in the code matches that file.

use std::process::Command;

use culinaria_perfbench::compare::Json;
use culinaria_perfbench::report::{END_TO_END, PER_LAYER};
use culinaria_perfbench::WORKLOADS;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of one metric list.
fn listed(bench: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = bench.get(key) else {
        panic!("BENCHMARK.json has no {key} list");
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::str).expect("name").to_owned(),
                m.get("unit").and_then(Json::str).expect("unit").to_owned(),
            )
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let bench = benchmark_json();
    let code = |defs: &[culinaria_perfbench::report::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned()))
            .collect()
    };
    assert_eq!(listed(&bench, "end_to_end"), code(END_TO_END));
    assert_eq!(listed(&bench, "per_layer"), code(PER_LAYER));
    let Some(Json::Arr(workloads)) = bench.get("workloads") else {
        panic!("no workloads");
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::str).expect("workload name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_workload_prints_every_metric() {
    let bench = benchmark_json();
    let scratch = std::env::temp_dir().join(format!("perfbench-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    for workload in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
                .args([
                    "run",
                    "--workload",
                    workload,
                    "--seed",
                    "11",
                    "--seconds",
                    "1",
                ])
                .args(["--trace", trace, "--smoke"])
                .current_dir(&scratch)
                .output()
                .expect("benchmark runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{workload} trace {trace}: {stderr}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let result = Json::parse(stdout.lines().last().expect("a result line"))
                .unwrap_or_else(|e| panic!("{workload}: {e}"));
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{workload}");
            assert!(result.get("attempted").and_then(Json::num).unwrap() >= 1.0);
            assert_eq!(
                result.get("failed").and_then(Json::num),
                Some(0.0),
                "{workload}"
            );
            let metrics = result.get("metrics").expect("metrics");
            let Json::Obj(printed) = metrics else {
                panic!("metrics is not an object");
            };
            let expected = listed(&bench, list);
            assert_eq!(printed.len(), expected.len(), "{workload} trace {trace}");
            for (name, unit) in expected {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(
                    m.get("unit").and_then(Json::str),
                    Some(unit.as_str()),
                    "{name}"
                );
                let v = m.get("value").and_then(Json::num).expect("numeric value");
                assert!(v.is_finite(), "{workload}: {name} = {v}");
                if trace == "0" {
                    assert!(v > 0.0, "{workload}: end-to-end {name} = {v}");
                }
            }
            if trace == "1" {
                let trace_file = scratch.join(format!("trace-{workload}.json"));
                let text = std::fs::read_to_string(&trace_file).expect("trace file written");
                Json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", trace_file.display()));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "run",
            "--workload",
            "serve-hot",
            "--seed",
            "-3",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
