//! Short-mode runs of every workload, traced and untraced: every metric
//! `BENCHMARK.json` names is printed with its unit, the result line is
//! well formed, and no op fails on this code.

use std::path::PathBuf;
use std::process::Command;

use ftcoma_sim::Json;

const WORKLOADS: [&str; 3] = ["paper16", "chaos_mix", "traced16"];

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn section(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> (String, Json) {
    let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("spans-{workload}.jsonl"));
    let out = Command::new(env!("CARGO_BIN_EXE_ftcoma-perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--short"])
        .arg("--spans-out")
        .arg(&spans)
        .output()
        .expect("benchmark runs");
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    let result = Json::parse(&last).expect("the last line is JSON");
    if trace == 1 {
        let text = std::fs::read_to_string(&spans).expect("span file written");
        assert!(text.lines().count() > 10, "{workload}: too few spans");
        for line in text.lines() {
            Json::parse(line).expect("span line parses");
        }
    }
    (stdout, result)
}

#[test]
fn every_metric_is_printed_with_its_unit_and_nothing_fails() {
    let doc = manifest();
    for (trace, key) in [(0u8, "end_to_end"), (1, "per_layer")] {
        let wanted = section(&doc, key);
        for workload in WORKLOADS {
            let (stdout, result) = run(workload, trace);
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{stdout}"
            );
            assert_eq!(
                result.get("failed").and_then(Json::as_u64),
                Some(0),
                "{stdout}"
            );
            assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
            let metrics = result.get("metrics").expect("metrics object");
            assert_eq!(
                metrics.keys().len(),
                wanted.len(),
                "{workload}: extra or missing metrics"
            );
            for (name, unit) in &wanted {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: no {name}"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                let v = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite());
                if trace == 0 {
                    assert!(v > 0.0, "{workload}: end-to-end metric {name} is {v}");
                }
                assert!(
                    stdout.contains(&format!("metric {name} = ")),
                    "{workload}: {name} has no printed line"
                );
            }
            if trace == 0 {
                assert!(stdout.contains("metric fail_ratio = 0 ratio"), "{stdout}");
                assert!(stdout.contains("metric recovery_cycles = "), "{stdout}");
            }
        }
    }
}
