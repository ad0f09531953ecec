//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints an info line (seed, pinned configuration, sample counts, error
//! rate) and, as the last line of standard output, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when any
//! result disagrees with the reference executor, 2 on a usage or setup
//! error (printing no result).

use std::path::PathBuf;
use std::process::ExitCode;

use eds_perfbench::bench::{traced, untraced, Report};
use eds_perfbench::run::Budget;
use eds_perfbench::workload::{Config, Workload};

/// Variables `Dbms::new` and `EvalOptions::from_env` read; the benchmark
/// pins every one of these settings itself.
const PINNED_ENV: [&str; 5] = [
    "EDS_PARALLELISM",
    "EDS_OPT_LEVEL",
    "EDS_COLUMNAR",
    "EDS_PLAN_CACHE_CAP",
    "EDS_LINT",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where the traced run's spans go: beside the build output.
fn trace_path(workload: Workload, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-traces");
    dir.join(format!("{}-{seed}.json", workload.name()))
}

fn result_line(report: &Report, correct: bool) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = PINNED_ENV
        .into_iter()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; the benchmark pins these settings itself",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let cfg = Config::pinned();
    let budget = Budget::Seconds(args.seconds);
    let run = if args.trace { traced } else { untraced };
    let mut report = match run(args.workload, args.seed, budget, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(json) = report.trace_json.take() {
        let path = trace_path(args.workload, args.seed);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => report
                .info
                .push(("trace_file", format!("\"{}\"", path.display()))),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    for f in &report.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let info: Vec<String> = report
        .info
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("{{\"info\":{{{}}}}}", info.join(","));
    let correct = report.failed == 0;
    println!("{}", result_line(&report, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
