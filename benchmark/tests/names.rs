//! Runs every workload at smoke scale, untraced and traced, and asserts
//! that the emitted workload and metric names are exactly the sets
//! `BENCHMARK.json` lists — a renamed or dropped metric fails here, not in
//! a later comparison.

use rcmo_benchmark::json::{self, Value};
use std::collections::BTreeSet;
use std::process::Command;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(v: &Value, key: &str) -> BTreeSet<String> {
    v.get(key)
        .expect(key)
        .as_arr()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_rcmo-benchmark"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.4"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    json::parse(stdout.lines().last().expect("result line")).expect("result line is JSON")
}

#[test]
fn emitted_names_equal_the_manifest() {
    let manifest = manifest();
    let workloads = names(&manifest, "workloads");
    let expected: BTreeSet<String> = ["consult", "lecture", "archive", "rounds"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    assert_eq!(workloads, expected);
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = names(&manifest, key);
        for w in &workloads {
            let result = run(w, trace);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{w}");
            assert_eq!(
                result.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{w}"
            );
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("{w}: no metrics object");
            };
            let got: BTreeSet<String> = metrics.keys().cloned().collect();
            assert_eq!(got, want, "{w} --trace {trace}");
            for m in manifest.get(key).expect(key).as_arr() {
                let name = m.get("name").and_then(Value::as_str).expect("name");
                assert_eq!(
                    metrics[name].get("unit").and_then(Value::as_str),
                    m.get("unit").and_then(Value::as_str),
                    "{w}: unit of {name}"
                );
            }
        }
    }
}
