//! `hisbench`: one seeded, four-workload benchmark of the HisRect system.
//!
//! ```text
//! hisbench run   [--workload W] [--seed S] [--seconds T] [--trace 0|1]
//!                [--rate R] [--repeat N]
//! hisbench trace ...                 same as `run --trace 1`
//! hisbench diff  A.json B.json       apply BENCHMARK.json's bounds
//! hisbench aa    [--seed S] [--seconds T]   run the full set twice, diff
//! ```
//!
//! Every run prints each metric by name with its unit and sample count,
//! checks the outputs, writes `hisbench/out/result.json` (or
//! `trace_result.json` plus `trace_<workload>.json` spans), and ends with
//! the one-line JSON object the benchmark contract reads.

mod cpu;
mod diff;
mod layers;
mod loadgen;
mod report;
mod schedule;
mod span;
mod stats;
mod system;
mod workloads;

use report::{WorkloadResult, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workloads::Params;

const USAGE: &str = "usage: hisbench <run|trace|diff|aa> [--workload W] [--seed S] \
                     [--seconds T] [--trace 0|1] [--rate R] [--repeat N]";

struct Cli {
    workloads: Vec<String>,
    params: Params,
    repeat: usize,
    files: Vec<PathBuf>,
}

fn parse(args: &[String], trace: bool) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: workloads::NAMES.iter().map(|s| s.to_string()).collect(),
        params: Params {
            seed: 1,
            seconds: 10.0,
            rate: 250.0,
            trace,
        },
        repeat: 1,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{arg} needs {what}"))
        };
        fn num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
            s.parse().map_err(|_| format!("{flag}: cannot read `{s}`"))
        }
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload `{name}` (expected one of {:?})",
                        workloads::NAMES
                    ));
                }
                cli.workloads = vec![name.clone()];
            }
            "--seed" => cli.params.seed = num(arg, value("a seed")?)?,
            "--seconds" => cli.params.seconds = num(arg, value("a duration")?)?,
            "--rate" => cli.params.rate = num(arg, value("a rate")?)?,
            "--repeat" => cli.repeat = num(arg, value("a count")?)?,
            "--trace" => cli.params.trace = num::<u8>(arg, value("0 or 1")?)? != 0,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => cli.files.push(PathBuf::from(file)),
        }
    }
    if !(cli.params.seconds > 0.0 && cli.params.rate > 0.0 && cli.repeat >= 1) {
        return Err("--seconds, --rate and --repeat must be positive".into());
    }
    Ok(cli)
}

/// Runs the chosen workloads, prints and writes everything, and returns
/// whether every run was correct.
fn run_set(cli: &Cli, result_path: &Path) -> bool {
    let names: &[(&str, &str)] = if cli.params.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut all: BTreeMap<String, Vec<WorkloadResult>> = BTreeMap::new();
    let mut last_line = String::new();
    for workload in &cli.workloads {
        for _ in 0..cli.repeat {
            let (result, tracer) = workloads::run(workload, &cli.params);
            result.print();
            if let Some(tracer) = tracer {
                let path = report::out_dir().join(format!("trace_{workload}.json"));
                let spans = serde_json::to_string(&tracer.to_json()).expect("values serialize");
                match std::fs::write(&path, spans) {
                    Ok(()) => println!("spans: {} ({})", path.display(), tracer.spans().len()),
                    Err(e) => eprintln!("cannot write {}: {e}", path.display()),
                }
            }
            last_line = result.contract_line(names);
            all.entry(workload.clone()).or_default().push(result);
        }
    }
    let fingerprint = report::fingerprint(cli.params.seed, cli.params.seconds);
    match report::write_result(result_path, fingerprint, &all) {
        Ok(()) => println!("result: {}", result_path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", result_path.display()),
    }
    // The contract's result line: the last line of stdout.
    println!("{last_line}");
    all.values().flatten().all(WorkloadResult::correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let cli = match parse(rest, command == "trace") {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = report::out_dir();
    let ok = match command.as_str() {
        "run" | "trace" => {
            let file = if cli.params.trace {
                "trace_result.json"
            } else {
                "result.json"
            };
            run_set(&cli, &out.join(file))
        }
        "aa" => {
            let (a, b) = (out.join("aa_a.json"), out.join("aa_b.json"));
            let correct = run_set(&cli, &a) & run_set(&cli, &b);
            match diff::run(&a, &b) {
                Ok(worse) => correct && worse == 0,
                Err(e) => {
                    eprintln!("{e}");
                    false
                }
            }
        }
        "diff" => match cli.files.as_slice() {
            [a, b] => match diff::run(a, b) {
                Ok(worse) => worse == 0,
                Err(e) => {
                    eprintln!("{e}");
                    false
                }
            },
            _ => {
                eprintln!("diff needs two result files\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
