//! `aa --runs N`: runs every workload N times on the same code (one child
//! process per run, so `peak_rss_mb` is per run) and prints, per
//! end-to-end metric x workload, min / median / max, the interquartile
//! spread as a share of the median, and the bound `BENCHMARK.json` sets.

use crate::hist::median;
use crate::json::{self, Value};
use crate::params::Workload;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which the acceptance
/// rule is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

fn bounds() -> BTreeMap<String, f64> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let mut out = BTreeMap::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        return out;
    };
    if let Ok(v) = json::parse(&text) {
        for m in v.get("end_to_end").map_or(&[][..], Value::as_arr) {
            if let (Some(name), Some(bound)) = (
                m.get("name").and_then(Value::as_str),
                m.get("bound").and_then(Value::as_f64),
            ) {
                out.insert(name.to_string(), bound);
            }
        }
    }
    out
}

pub fn run(runs: usize, seconds: f64, seed: u64, smoke: bool) -> ExitCode {
    let exe = std::env::current_exe().expect("own path");
    let bounds = bounds();
    let mut ok = true;
    for w in Workload::ALL {
        let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for r in 0..runs {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--trace", "0"])
                .args(["--seed", &(seed + r as u64).to_string()])
                .args(["--seconds", &seconds.to_string()]);
            if smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().expect("child run");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let parsed = stdout.lines().last().and_then(|l| json::parse(l).ok());
            let Some(Value::Obj(metrics)) = parsed.as_ref().and_then(|v| v.get("metrics")).cloned()
            else {
                eprintln!(
                    "{} run {r}: no result line\n{}",
                    w.name(),
                    String::from_utf8_lossy(&out.stderr)
                );
                ok = false;
                continue;
            };
            if !out.status.success() {
                eprintln!("{} run {r}: exit {:?}", w.name(), out.status.code());
                ok = false;
            }
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Value::as_f64) {
                    series.entry(name).or_default().push(v);
                }
            }
        }
        println!("\n{} ({runs} runs x {seconds} s)", w.name());
        println!(
            "  {:<16} {:>12} {:>12} {:>12} {:>9} {:>7}",
            "metric", "min", "median", "max", "iqr/med", "bound"
        );
        for (name, values) in &series {
            let (q1, q3) = quartiles(values);
            let med = median(values.clone());
            let spread = if med > 0.0 { (q3 - q1) / med } else { 0.0 };
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(0.0, f64::max);
            let bound = bounds.get(name).copied();
            println!(
                "  {:<16} {:>12.4} {:>12.4} {:>12.4} {:>8.1}% {:>6}{}",
                name,
                min,
                med,
                max,
                spread * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                match bound {
                    Some(b) if name != "setup_s" && spread > b => "  OVER",
                    Some(b) if name != "setup_s" && spread > b / 3.0 => "  wide",
                    _ => "",
                }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::quartiles;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-9 && (q3 - 8.25).abs() < 1e-9);
    }
}
