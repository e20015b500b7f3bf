//! CLI: `[run|trace] --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--smoke]`, or `aa --runs N [--seconds S] [--seed n]
//! [--smoke]`.

use rcmo_benchmark::params::Workload;
use rcmo_benchmark::run::{self, RunConfig};
use rcmo_benchmark::{aa, result_line};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: rcmo-benchmark [run|trace] --workload <consult|lecture|archive|rounds> \
         --seed <u64> --seconds <s> --trace <0|1> [--smoke]\n       \
         rcmo-benchmark aa --runs <n> [--seconds <s>] [--seed <u64>] [--smoke]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let sub = match args.first().map(String::as_str) {
        Some("run" | "trace" | "aa") => args.remove(0),
        _ => "run".to_string(),
    };
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut traced = sub == "trace";
    let mut smoke = false;
    let mut runs = 5usize;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        let parsed: Result<(), String> = (|| {
            match flag.as_str() {
                "--workload" => {
                    let name = value("a name")?;
                    workload = Some(
                        Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload '{name}'"))?,
                    );
                }
                "--seed" => {
                    seed = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    let s: f64 = value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                    seconds = Some(s);
                }
                "--trace" => traced = value("0 or 1")? == "1",
                "--runs" => {
                    runs = value("a number")?
                        .parse()
                        .map_err(|e| format!("--runs: {e}"))?
                }
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument '{other}'")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("{e}");
            return usage();
        }
    }
    let seconds = seconds.unwrap_or(if smoke { 0.4 } else { 15.0 });
    if sub == "aa" {
        return aa::run(runs.max(1), seconds, seed, smoke);
    }
    let Some(workload) = workload else {
        return usage();
    };
    let out = run::run(&RunConfig {
        workload,
        seed,
        seconds,
        traced,
        smoke,
    });
    println!("{}", result_line(&out));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
