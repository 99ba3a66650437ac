//! `hermes-benchmark` — the end-to-end benchmark.
//!
//! ```text
//! hermes-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                              one run; the last line of stdout is the result
//!                              as JSON (end-to-end metrics with --trace 0,
//!                              per-layer metrics with --trace 1)
//! hermes-benchmark run         all four workloads, all five end-to-end metrics
//! hermes-benchmark trace       all four workloads traced, per-layer metrics
//! hermes-benchmark selfcheck   two sets of three full runs compared with the
//!                              bounds; exits non-zero on a breach
//! hermes-benchmark spread      [--runs <n>] the run-to-run spread table of
//!                              NOISE.md, one seed per run
//! hermes-benchmark contract    the text of BENCHMARK.json
//! ```
//!
//! `--quick` turns any of them into a two-round smoke run. Every mode exits
//! non-zero when an operation failed or answered wrongly.

use hermes_benchmark::report::{self, DEFAULT_SECONDS, END_TO_END, PER_LAYER};
use hermes_benchmark::run::{run, Metric, Options, Outcome};
use hermes_benchmark::stats::{median, quartile_spread};
use hermes_benchmark::workload::Workload;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    mode: String,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    runs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: String::new(),
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        runs: 5,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} requires {what}"));
        match arg.as_str() {
            "run" | "trace" | "selfcheck" | "spread" | "contract" if args.mode.is_empty() => {
                args.mode = arg
            }
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Workload::from_name(&name).ok_or(format!(
                    "unknown workload '{name}'; the workloads are {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => args.seed = number(&value("a number")?)?,
            "--seconds" => args.seconds = number(&value("a number of seconds")?)?.max(1),
            "--runs" => args.runs = number(&value("a count")?)?.max(2) as usize,
            "--trace" => args.trace = number(&value("0 or 1")?)? != 0,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn number(text: &str) -> Result<u64, String> {
    text.parse()
        .map_err(|_| format!("'{text}' is not a whole number"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match (args.mode.as_str(), args.workload) {
        ("", Some(workload)) => contract_run(&args, workload),
        ("", None) | ("run", _) => all_workloads(&args, false),
        ("trace", _) => all_workloads(&args, true),
        ("selfcheck", _) => selfcheck(&args),
        ("contract", _) => {
            print!("{}", report::benchmark_json());
            Ok(true)
        }
        _ => spread(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn options(args: &Args, workload: Workload, seed: u64, trace: bool) -> Options {
    Options {
        workload,
        seed,
        seconds: args.seconds,
        trace,
        quick: args.quick,
    }
}

/// One run, with the layer replay after it when traced. Returns the outcome
/// and the metrics that belong on the result line.
fn measured(options: &Options) -> Result<(Outcome, Vec<Metric>), String> {
    let outcome = run(options)?;
    for failure in &outcome.failures {
        eprintln!("failed: {failure}");
    }
    if !options.trace {
        let metrics = outcome.end_to_end.clone();
        return Ok((outcome, metrics));
    }
    let mut found = outcome.observed.clone();
    found.extend(layer_replay(options)?);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = found.iter().find(|m| m.name == name).map(|m| m.value);
            if value.is_none() {
                eprintln!("warning: no value for {name}; reporting 0");
            }
            Metric {
                name,
                value: value.unwrap_or(0.0),
                unit,
            }
        })
        .collect();
    Ok((outcome, metrics))
}

/// Runs `hermes-benchmark-trace` for the same workload and seed and reads
/// its `name value` lines.
fn layer_replay(options: &Options) -> Result<Vec<Metric>, String> {
    let binary = hermes_benchmark::procs::sibling_binary("hermes-benchmark-trace")?;
    let mut command = Command::new(&binary);
    command
        .args(["--workload", options.workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if options.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot run {}: {e}", binary.display()))?;
    if !output.status.success() {
        return Err(format!("{} failed: {}", binary.display(), output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    Ok(text
        .lines()
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            let &(name, unit) = PER_LAYER.iter().find(|m| m.0 == name)?;
            Some(Metric {
                name,
                value: value.trim().parse().ok()?,
                unit,
            })
        })
        .collect())
}

fn print_metrics(workload: Workload, metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{:<16} {:<40} {:>16.4} {}",
            workload.name(),
            m.name,
            m.value,
            m.unit
        );
    }
}

/// The driver's contract: one workload, one JSON object as the last line.
fn contract_run(args: &Args, workload: Workload) -> Result<bool, String> {
    let options = options(args, workload, args.seed, args.trace);
    let (outcome, metrics) = measured(&options)?;
    eprintln!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"reference_s\":{:.3},{}}}",
        workload.name(),
        options.seed,
        options.seconds,
        outcome.reference_s,
        report::fingerprint()
    );
    let rates: Vec<String> = outcome
        .round_rates
        .iter()
        .map(|r| format!("{r:.1}"))
        .collect();
    eprintln!("ops/s by round: {}", rates.join(" "));
    print_metrics(workload, &metrics);
    if let Some(path) = &outcome.trace_file {
        println!("spans written to {}", path.display());
    }
    println!("{}", report::result_line(&outcome, &metrics));
    Ok(outcome.correct())
}

/// Every workload once: one command, every metric by name with its unit.
fn all_workloads(args: &Args, trace: bool) -> Result<bool, String> {
    println!("{{{}}}", report::fingerprint());
    let mut correct = true;
    for workload in Workload::ALL {
        if args.workload.is_some_and(|w| w != workload) {
            continue;
        }
        let (outcome, metrics) = measured(&options(args, workload, args.seed, trace))?;
        print_metrics(workload, &metrics);
        println!(
            "{:<16} attempted {} failed {}",
            workload.name(),
            outcome.attempted,
            outcome.failed
        );
        correct &= outcome.correct();
    }
    Ok(correct)
}

/// `runs` untraced runs of `workload`, seeds `first_seed..`; one vector of
/// values per end-to-end metric. Fails on the first incorrect run.
fn series(
    args: &Args,
    workload: Workload,
    first_seed: u64,
    runs: usize,
) -> Result<Vec<Vec<f64>>, String> {
    let mut values = vec![Vec::new(); END_TO_END.len()];
    for i in 0..runs {
        let seed = first_seed + i as u64;
        let outcome = run(&options(args, workload, seed, false))?;
        if !outcome.correct() {
            return Err(format!(
                "{} seed {seed}: {} of {} operations failed ({})",
                workload.name(),
                outcome.failed,
                outcome.attempted,
                outcome.failures.join("; ")
            ));
        }
        for (slot, m) in values.iter_mut().zip(&outcome.end_to_end) {
            slot.push(m.value);
        }
        eprintln!("{} seed {seed} done", workload.name());
    }
    Ok(values)
}

/// Two sets of three full runs; each metric's medians must agree within its
/// bound in the direction that counts as worse.
fn selfcheck(args: &Args) -> Result<bool, String> {
    println!("{{{}}}", report::fingerprint());
    println!("| workload | metric | set A median | set B median | B worse by | bound | |");
    println!("|---|---|---|---|---|---|---|");
    let mut within = true;
    for workload in Workload::ALL {
        let a = series(args, workload, args.seed, 3)?;
        let b = series(args, workload, args.seed, 3)?;
        for (i, &(name, unit, higher_is_better, bound)) in END_TO_END.iter().enumerate() {
            let (ma, mb) = (median(&a[i]), median(&b[i]));
            let worse = if higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let ok = worse <= bound;
            within &= ok;
            println!(
                "| {} | {name} | {ma:.4} {unit} | {mb:.4} {unit} | {:+.1} % | {:.0} % | {} |",
                workload.name(),
                worse * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "BREACH" }
            );
        }
    }
    Ok(within)
}

/// The run-to-run spread of every workload × end-to-end metric over `runs`
/// seeds: inter-quartile distance as a share of the median.
fn spread(args: &Args) -> Result<bool, String> {
    println!("{{{}}}", report::fingerprint());
    println!("| workload | metric | median | spread (IQR ÷ median) | bound | values |");
    println!("|---|---|---|---|---|---|");
    let mut steady = true;
    for workload in Workload::ALL {
        if args.workload.is_some_and(|w| w != workload) {
            continue;
        }
        let values = series(args, workload, args.seed, args.runs)?;
        for (i, &(name, unit, _, bound)) in END_TO_END.iter().enumerate() {
            let spread = quartile_spread(&values[i]);
            steady &= name == "setup_s" || spread <= bound / 2.0;
            let listed: Vec<String> = values[i].iter().map(|v| format!("{v:.3}")).collect();
            println!(
                "| {} | {name} | {:.4} {unit} | {:.1} % | {:.0} % | {} |",
                workload.name(),
                median(&values[i]),
                spread * 100.0,
                bound * 100.0,
                listed.join(" ")
            );
        }
    }
    Ok(steady)
}
