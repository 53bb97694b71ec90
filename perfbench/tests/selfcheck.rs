//! Tiny-size pass over every workload: every metric BENCHMARK.json
//! declares for the run's kind is emitted, finite and with its unit,
//! and a deliberately corrupted output is counted as a failed op.

use std::process::Command;

/// The `(name, unit)` pairs BENCHMARK.json declares: its end-to-end
/// metrics, or its per-layer ones when `per_layer`.
fn declared(per_layer: bool) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let (_, rest) = json.split_once("\"end_to_end\"").expect("end_to_end");
    let (end_to_end, layers) = rest.split_once("\"per_layer\"").expect("per_layer");
    let field = |s: &str, key: &str| -> String {
        let at = s.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
        s[at..].split('"').next().expect(key).to_string()
    };
    let section = if per_layer { layers } else { end_to_end };
    section
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// Run one tiny workload; returns (exit code, last stdout line).
fn run(workload: &str, trace: u8, inject: bool) -> (i32, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.current_dir(env!("CARGO_TARGET_TMPDIR"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"]);
    if inject {
        cmd.arg("--inject-fault");
    }
    let out = cmd.output().expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    (out.status.code().unwrap_or(-1), last)
}

/// The value of `"key": <integer>` in `json`.
fn count(json: &str, key: &str) -> u64 {
    let at = json.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect(key)
}

/// `json` holds exactly the declared metrics, in order, each a finite
/// number with its declared unit.
fn assert_metrics(json: &str, trace: u8) {
    let expected = declared(trace == 1);
    assert!(!expected.is_empty());
    let names = json.matches("\"value\": ").count();
    assert_eq!(names, expected.len(), "metric count in {json}");
    let mut from = 0;
    for (name, unit) in &expected {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = json[from..]
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing from {json}"))
            + from
            + key.len();
        let (value, rest) = json[at..].split_once(", ").expect("value then unit");
        let v: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("{name} = {value} is not a number"));
        assert!(v.is_finite(), "{name} = {v}");
        assert!(
            rest.starts_with(&format!("\"unit\": \"{unit}\"}}")),
            "{name} unit: {rest}"
        );
        from = at;
    }
}

fn check(workload: &str) {
    for trace in [0, 1] {
        let (code, json) = run(workload, trace, false);
        assert_eq!(code, 0, "{workload} --trace {trace}: {json}");
        assert!(json.starts_with("{\"correct\": true"), "{json}");
        assert_eq!(count(&json, "failed"), 0, "{json}");
        assert!(count(&json, "attempted") >= 1, "{json}");
        assert_metrics(&json, trace);
    }
    let (code, json) = run(workload, 0, true);
    assert_eq!(code, 1, "{workload} with an injected fault: {json}");
    assert!(json.starts_with("{\"correct\": false"), "{json}");
    assert!(count(&json, "failed") >= 1, "{json}");
}

#[test]
fn pipeline_emits_every_metric_and_catches_a_wrong_byte() {
    check("pipeline");
}

#[test]
fn watch_churn_emits_every_metric_and_catches_a_wrong_byte() {
    check("watch-churn");
}

#[test]
fn serve_emits_every_metric_and_catches_a_wrong_answer() {
    check("serve");
}
