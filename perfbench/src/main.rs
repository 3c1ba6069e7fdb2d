//! One benchmark for certified PRBP schedules.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <corpus-compose|stream-fft-245k|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The workload's inputs are generated from the seed before timing starts;
//! the program only receives DAG text. Every certificate the program hands
//! back is checked by the benchmark itself (see `check.rs`). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics, or with `--trace 1` the per-layer
//! ledger of a traced run. The line before it is the machine block.

mod check;
mod corpus;
mod inputs;
mod ledger;
mod machine;
mod serve;
mod stats;
mod stream;

use stats::Tally;
use std::io::BufRead;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run hands back: the operation tally, the end-to-end
/// metrics, and (traced runs only) the per-layer ledger.
pub struct Outcome {
    pub tally: Tally,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

/// The command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-ups per run; `setup_s` is their median. Half run before the measured
/// phase and half after it, so one moment of machine noise cannot move them
/// all.
pub const SETUPS: usize = 21;

/// The flag that turns the benchmark into a set-up probe for one workload:
/// it sets the program up, prints `ready`, tears down and exits.
const SET_UP_PROBE: &str = "--set-up-probe";

/// Time `n` set-ups of `workload`, each in a fresh process (so each pays
/// process start and every first-call lazy initialisation): from spawning
/// the probe to its `ready` line, in seconds.
pub fn time_set_ups(workload: &str, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find the benchmark: {e}"))?;
    (0..n)
        .map(|_| {
            let started = Instant::now();
            let mut child = Command::new(&exe)
                .args([SET_UP_PROBE, workload])
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot start a set-up probe: {e}"))?;
            let mut line = String::new();
            let read = std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
                .read_line(&mut line);
            let elapsed = started.elapsed().as_secs_f64();
            let status = child.wait().map_err(|e| e.to_string())?;
            match read {
                Ok(_) if line.trim() == "ready" && status.success() => Ok(elapsed),
                _ => Err(format!("set-up probe failed ({status})")),
            }
        })
        .collect()
}

/// The probe's side of `time_set_ups`.
fn set_up_probe(workload: &str) -> Result<(), String> {
    let ready = || println!("ready");
    match workload {
        "corpus-compose" => corpus::set_up(ready),
        "stream-fft-245k" => stream::set_up(ready),
        "serve-mixed" => serve::set_up(ready),
        _ => Err(format!("no set-up for workload `{workload}`")),
    }
}

const WORKLOADS: [&str; 3] = ["corpus-compose", "stream-fft-245k", "serve-mixed"];

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => opts.workload = value.to_string(),
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                opts.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload expects one of {}, got `{}`",
            WORKLOADS.join(", "),
            opts.workload
        ));
    }
    Ok(opts)
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, workload] = args.as_slice() {
        if flag == SET_UP_PROBE {
            return match set_up_probe(workload) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: set-up probe: {e}");
                    ExitCode::from(1)
                }
            };
        }
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match opts.workload.as_str() {
        "corpus-compose" => corpus::run(&opts),
        "stream-fft-245k" => stream::run(&opts),
        _ => serve::run(&opts),
    };
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", opts.workload);
            return ExitCode::from(1);
        }
    };
    for (kind, metrics) in [
        ("end-to-end", &outcome.end_to_end),
        ("per-layer", &outcome.per_layer),
    ] {
        for m in metrics.iter() {
            println!("{kind} {:<28} {:>14.6} {}", m.name, m.value, m.unit);
        }
    }
    let reported = if opts.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    if let Some(bad) = reported.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.name);
        return ExitCode::from(1);
    }
    let tally = outcome.tally;
    println!(
        "fail_ratio {:.6} ({} of {} operations failed)",
        tally.ratio(),
        tally.failed,
        tally.attempted
    );
    println!("{}", machine::block(&opts.workload, opts.seed, opts.trace));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        json_metrics(reported)
    );
    ExitCode::SUCCESS
}
