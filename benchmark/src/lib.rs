//! `rcmo-benchmark`: the repository's one perf ledger. Four conference
//! workloads driven through the public API, twelve end-to-end metrics from
//! an untraced run, and a per-layer table from a traced run of the same
//! seed. See `README.md` for the metric glossary and the rules.

#![forbid(unsafe_code)]

pub mod aa;
pub mod driver;
pub mod hist;
pub mod json;
pub mod params;
pub mod probes;
pub mod report;
pub mod rng;
pub mod run;
pub mod script;
pub mod world;

use report::Metric;

/// The result line the driver's contract prescribes: one JSON object,
/// printed last.
pub fn result_line(out: &run::RunOutput) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|Metric { name, unit, value }| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}
