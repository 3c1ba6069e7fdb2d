//! Emit (and optionally gate on) the scheduler benchmark baseline.
//!
//! ```text
//! bench_sched [--threads N] [--out PATH] [--check BASELINE]
//! ```
//!
//! Sweeps the E16 scheduling corpus through the full `pebble-sched`
//! portfolio and writes the results as JSON to `--out` (default
//! `BENCH_sched.json` in the current directory). When `--check` names a
//! committed baseline, the results are written only to an explicit `--out`
//! (which must not be the baseline itself), and the run exits nonzero on
//! *any* difference: scheduler costs are deterministic — id-ordered
//! tie-breaks, no randomness, no wall-clock in the document — so the gate
//! is exact and machine independent. Refresh the committed baseline by
//! re-running this binary without `--check` and committing the file
//! whenever scheduler behaviour changes intentionally.

use bench::sched_baseline::{self, SchedBaseline};
use std::process::ExitCode;

struct Args {
    threads: usize,
    out: Option<String>,
    check: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        threads: pebble_experiments::runner::default_threads(),
        out: None,
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--out" => args.out = Some(value("--out")?),
            "--check" => args.check = Some(value("--check")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_sched: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = match bench::output_path(
        args.out.as_deref(),
        args.check.as_deref(),
        "BENCH_sched.json",
    ) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("bench_sched: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline: Option<SchedBaseline> = match &args.check {
        None => None,
        Some(check_path) => match bench::load_baseline("bench_sched", check_path) {
            Ok(b) => Some(b),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
    };

    eprintln!(
        "bench_sched: sweeping the scheduling corpus ({} threads)",
        args.threads
    );
    let current = sched_baseline::run(args.threads);

    if let Err(e) = bench::write_measurement("bench_sched", out.as_deref(), &current) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }

    let (Some(baseline), Some(check_path)) = (baseline, args.check) else {
        return ExitCode::SUCCESS;
    };
    let diffs = sched_baseline::diffs(&baseline, &current);
    if diffs.is_empty() {
        eprintln!("bench_sched: baseline matches {check_path} exactly");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_sched: {} difference(s) vs {check_path}:",
            diffs.len()
        );
        for d in &diffs {
            eprintln!("  DIFF: {d}");
        }
        ExitCode::FAILURE
    }
}
