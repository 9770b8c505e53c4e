//! Self-test: every metric `BENCHMARK.json` names is printed, with its
//! unit, by every workload it lists, and nothing unnamed is printed.
//! Runs each workload at a tiny size in both modes.

use std::collections::BTreeSet;
use std::process::Command;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit-or-why)` pairs of the flat objects in the `key` array.
fn section(key: &str) -> Vec<(String, String)> {
    let start = MANIFEST
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &MANIFEST[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            let field = |f: &str| {
                let at = obj.find(&format!("\"{f}\": \"")).expect("field present") + f.len() + 5;
                obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
            };
            let second = if obj.contains("\"unit\"") {
                "unit"
            } else {
                "why"
            };
            (field("name"), field(second))
        })
        .collect()
}

/// `(name, unit)` of every metric on the result line.
fn printed(line: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = &line[line.find("\"metrics\": {").expect("metrics key") + 12..];
    while let Some(at) = rest.find(": {\"value\": ") {
        let name = rest[..at].trim_end_matches('"');
        let name = &name[name.rfind('"').expect("quoted name") + 1..];
        let tail = &rest[at..];
        let u = tail.find("\"unit\": \"").expect("unit key") + 9;
        let unit = &tail[u..u + tail[u..].find('"').expect("unit closes")];
        out.push((name.to_string(), unit.to_string()));
        rest = &tail[u..];
    }
    out
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hybrid2-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", trace, "--instrs", "20000"])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload} --trace {trace} failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0, "),
        "{workload} --trace {trace}: {last}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    last
}

#[test]
fn every_named_metric_is_printed_and_nothing_else() {
    let workloads = section("workloads");
    assert!((2..=8).contains(&workloads.len()));
    for (mode, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let named = section(key);
        let unique: BTreeSet<&String> = named.iter().map(|(n, _)| n).collect();
        assert_eq!(unique.len(), named.len(), "duplicate name in {key}");
        for (workload, _) in &workloads {
            assert_eq!(
                printed(&run(workload, mode)),
                named,
                "{workload} --trace {mode} against {key}"
            );
        }
    }
}

#[test]
fn unknown_workload_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_hybrid2-benchmark"))
        .args(["--workload", "nope"])
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
